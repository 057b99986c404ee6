"""Batch mining pipeline: equivalence guard, sharding, fast-forward."""

import random

import pytest

from repro import (
    Document,
    FrequencyTensor,
    Point,
    STComb,
    STLocal,
    SpatiotemporalCollection,
)
from repro.core.config import STLocalConfig
from repro.core.stlocal import STLocalTermTracker
from repro.errors import StreamError
from repro.pipeline import BatchMiner, split_terms
from repro.search import BurstySearchEngine

from oracles.stlocal import replay_term


def build_seed_corpus(n_streams=20, timeline=48, n_terms=14, seed=3):
    """Localised synthetic events, the seed corpus of the ROADMAP."""
    rng = random.Random(seed)
    coll = SpatiotemporalCollection(timeline=timeline)
    for i in range(n_streams):
        coll.add_stream(
            f"s{i:02d}", Point(float(i % 5) * 6.0, float(i // 5) * 6.0)
        )
    doc_id = 0
    for index in range(n_terms):
        term = f"event{index:02d}"
        start = rng.randint(0, timeline - 10)
        span = rng.randint(3, 7)
        members = rng.sample(range(n_streams), rng.randint(1, 4))
        for t in range(start, start + span):
            for member in members:
                for _ in range(rng.randint(1, 4)):
                    coll.add_document(
                        Document(doc_id, f"s{member:02d}", t, (term,))
                    )
                    doc_id += 1
    # A term that never occurs plus background filler everywhere.
    for t in range(timeline):
        coll.add_document(Document(doc_id, "s00", t, ("filler",)))
        doc_id += 1
    return coll


@pytest.fixture(scope="module")
def corpus():
    coll = build_seed_corpus()
    return coll, FrequencyTensor(coll), coll.locations()


class TestEquivalenceGuard:
    """BatchMiner output must equal per-term mining — same patterns,
    same scores — on the seed synthetic corpus."""

    def test_regional_identical_to_per_term_replay(self, corpus):
        # The batch sweep stops each term at its last activity; the
        # façade and the reference replay run the whole timeline.
        coll, tensor, locations = corpus
        stlocal = STLocal()
        per_term, replayed = {}, {}
        for term in sorted(tensor.terms):
            patterns = stlocal.patterns_for_term(tensor, term, locations)
            if patterns:
                per_term[term] = patterns
            reference = replay_term(tensor, term, locations, stlocal.config)
            if reference.patterns(term):
                replayed[term] = reference.patterns(term)
        batch = BatchMiner(stlocal=stlocal).mine_regional(
            tensor, locations=locations
        )
        assert repr(batch) == repr(per_term) == repr(replayed)

    def test_combinatorial_identical_to_per_term(self, corpus):
        coll, tensor, locations = corpus
        stcomb = STComb()
        per_term = {}
        for term in sorted(tensor.terms):
            patterns = stcomb.patterns_for_term(tensor, term)
            if patterns:
                per_term[term] = patterns
        batch = BatchMiner(stcomb=stcomb).mine_combinatorial(tensor)
        assert repr(batch) == repr(per_term)

    def test_mine_facades_delegate(self, corpus):
        coll, tensor, locations = corpus
        direct = BatchMiner().mine_regional(tensor, locations=locations)
        assert repr(STLocal().mine(tensor, locations=locations)) == repr(
            direct
        )
        assert repr(STComb().mine(coll)) == repr(
            BatchMiner().mine_combinatorial(coll)
        )

    def test_collection_input(self, corpus):
        coll, tensor, locations = corpus
        assert repr(STLocal().mine(coll)) == repr(
            STLocal().mine(tensor, locations=locations)
        )

    def test_duplicate_terms_deduplicated(self, corpus):
        """Regression: a repeated term must not be fed each snapshot
        once per occurrence (which corrupted its tracker's clock)."""
        coll, tensor, locations = corpus
        once = STLocal().mine(
            tensor, terms=["event00"], locations=locations
        )
        twice = STLocal().mine(
            tensor, terms=["event00", "event00"], locations=locations
        )
        assert repr(twice) == repr(once)
        assert repr(
            STComb().mine(tensor, terms=["event00", "event00"])
        ) == repr(STComb().mine(tensor, terms=["event00"]))


class TestSharding:
    def test_split_terms_partitions(self):
        terms = [f"t{i}" for i in range(11)]
        shards = split_terms(terms, 3)
        assert len(shards) == 3
        merged = sorted(term for shard in shards for term in shard)
        assert merged == sorted(terms)

    def test_split_more_workers_than_terms(self):
        shards = split_terms(["a", "b"], 8)
        assert len(shards) == 2

    def test_split_empty_vocabulary_yields_no_shards(self):
        # Regression: ``[[]]`` used to make mine_shards spawn a worker
        # process just to mine an empty shard.
        assert split_terms([], 4) == []
        assert split_terms([], 1) == []

    def test_sharded_mine_empty_vocabulary_short_circuits(self):
        from repro import Point, SpatiotemporalCollection

        empty = SpatiotemporalCollection(timeline=8)
        empty.add_stream("s0", Point(0.0, 0.0))
        miner = BatchMiner(workers=4)
        assert miner.mine_regional(empty) == {}
        assert miner.mine_combinatorial(empty) == {}

    def test_sharded_regional_equals_serial(self, corpus):
        coll, tensor, locations = corpus
        serial = BatchMiner().mine_regional(tensor, locations=locations)
        sharded = BatchMiner(workers=2).mine_regional(
            tensor, locations=locations
        )
        assert sharded == serial
        assert list(sharded) == list(serial)
        for term, patterns in serial.items():
            assert [p.score for p in sharded[term]] == [
                p.score for p in patterns
            ]

    def test_sharded_combinatorial_equals_serial(self, corpus):
        coll, tensor, locations = corpus
        serial = BatchMiner().mine_combinatorial(tensor)
        sharded = BatchMiner(workers=2).mine_combinatorial(tensor)
        assert sharded == serial
        assert list(sharded) == list(serial)


class TestFastForward:
    def locations(self):
        return {f"g{i}": Point(float(i), 0.0) for i in range(4)}

    def test_skip_equals_empty_replay(self):
        config = STLocalConfig(warmup=0)
        replayed = STLocalTermTracker(self.locations(), config)
        for _ in range(7):
            replayed.process({})
        replayed.process({"g1": 5.0})

        skipped = STLocalTermTracker(self.locations(), config)
        skipped.fast_forward(7)
        skipped.process({"g1": 5.0})

        assert skipped.clock == replayed.clock == 8
        assert skipped.rectangle_history == replayed.rectangle_history
        assert skipped.open_history == replayed.open_history
        assert repr(skipped.windows()) == repr(replayed.windows())

    def test_rejects_backwards(self):
        tracker = STLocalTermTracker(self.locations())
        tracker.process({})
        tracker.process({})
        with pytest.raises(StreamError):
            tracker.fast_forward(1)

    def test_rejects_after_observation(self):
        tracker = STLocalTermTracker(
            self.locations(), STLocalConfig(warmup=0)
        )
        tracker.process({"g0": 2.0})
        with pytest.raises(StreamError):
            tracker.fast_forward(5)


class TestEnginePrecompute:
    def test_precomputed_results_match_lazy(self, corpus):
        coll, tensor, locations = corpus
        patterns = STComb().mine(coll, terms=["event00", "event01"])
        eager = BurstySearchEngine(coll, patterns)
        lazy = BurstySearchEngine(coll, patterns, precompute=False)
        for query in ("event00", "event01", "event00 event01"):
            eager_hits = eager.search(query, k=8)
            lazy_hits = lazy.search(query, k=8)
            assert [
                (h.document.doc_id, h.score) for h in eager_hits
            ] == [(h.document.doc_id, h.score) for h in lazy_hits]

    def test_precompute_builds_all_pattern_terms(self, corpus):
        coll, tensor, locations = corpus
        patterns = STComb().mine(coll, terms=["event00", "event01"])
        engine = BurstySearchEngine(coll, patterns)
        for term in patterns:
            assert engine._index.get(term) is not None
        # Idempotent: a second sweep finds nothing left to build.
        assert engine.precompute() == 0

    def test_patternless_term_still_searchable(self, corpus):
        coll, tensor, locations = corpus
        patterns = STComb().mine(coll, terms=["event00"])
        engine = BurstySearchEngine(coll, patterns)
        assert engine.search("filler", k=3) == []
