"""Unit tests for the live ingestion + serving layer."""

import pytest

from repro.columnar.postings import PostingArray
from repro.core.config import STLocalConfig
from repro.core.stlocal import STLocalTermTracker
from repro.errors import SearchError, StreamError
from repro.live import LiveCollection, LiveSearchEngine
from repro.pipeline import IncrementalFeeder
from repro.search.relevance import log_relevance
from repro.spatial import Point
from repro.streams import Document
from repro.temporal.baselines import (
    EWMABaseline,
    MovingAverageBaseline,
    RunningMeanBaseline,
    SeasonalBaseline,
)

from oracles.stlocal import ReferenceTermTracker, model_states


def make_live(timeline=16, n_streams=4):
    live = LiveCollection(timeline)
    for i in range(n_streams):
        live.add_stream(f"s{i}", Point(float(i * 10), 0.0))
    return live


class TestLiveCollection:
    def test_epoch_bumps_on_every_mutation(self):
        live = make_live()
        epoch = live.epoch
        live.ingest(Document(1, "s0", 0, ("a",)))
        assert live.epoch == epoch + 1
        live.advance_to(3)
        assert live.epoch == epoch + 2
        live.advance_to(3)  # no-op: already there
        assert live.epoch == epoch + 2

    def test_watermark_and_sealing(self):
        live = make_live()
        assert live.watermark == -1 and live.sealed == 0
        live.ingest(Document(1, "s0", 2, ("a",)))
        assert live.watermark == 2 and live.sealed == 2
        # Same-timestamp arrivals are fine: the snapshot is still open.
        live.ingest(Document(2, "s1", 2, ("a",)))
        live.ingest(Document(3, "s0", 5, ("b",)))
        # Now snapshot 2 is sealed.
        with pytest.raises(StreamError):
            live.ingest(Document(4, "s0", 2, ("a",)))

    def test_duplicate_doc_id_rejected(self):
        live = make_live()
        live.ingest(Document(1, "s0", 0, ("a",)))
        with pytest.raises(StreamError):
            live.ingest(Document(1, "s1", 0, ("a",)))

    def test_streams_frozen_after_first_ingest(self):
        live = make_live()
        live.ingest(Document(1, "s0", 0, ("a",)))
        with pytest.raises(StreamError):
            live.add_stream("late", Point(99.0, 99.0))

    def test_ingest_snapshot_checks_timestamps(self):
        live = make_live()
        docs = [Document(1, "s0", 3, ("a",)), Document(2, "s1", 4, ("a",))]
        with pytest.raises(StreamError):
            live.ingest_snapshot(3, docs)

    def test_empty_snapshot_advances_watermark(self):
        live = make_live()
        live.ingest_snapshot(0, [Document(1, "s0", 0, ("a",))])
        live.ingest_snapshot(4, [])
        assert live.watermark == 4

    def test_advance_validates_bounds(self):
        live = make_live(timeline=8)
        live.advance_to(5)
        with pytest.raises(StreamError):
            live.advance_to(3)
        with pytest.raises(StreamError):
            live.advance_to(8)

    def test_term_views_maintained_incrementally(self):
        live = make_live()
        live.ingest(Document(1, "s0", 1, ("a", "a", "b")))
        live.ingest(Document(2, "s1", 1, ("a",)))
        live.ingest(Document(3, "s0", 4, ("a",)))
        assert live.term_snapshots("a") == {
            1: {"s0": 2.0, "s1": 1.0},
            4: {"s0": 1.0},
        }
        assert live.term_version("a") == 3
        assert live.term_version("b") == 1
        assert live.term_version("zzz") == 0
        assert [d.doc_id for d in live.documents_with("a")] == [1, 2, 3]
        assert live.document(2).stream_id == "s1"
        with pytest.raises(StreamError):
            live.document("nope")

    def test_collection_accessors(self):
        live = make_live(timeline=16, n_streams=3)
        live.ingest(Document(1, "s0", 2, ("a", "b")))
        assert live.timeline == 16
        assert len(live) == 3
        assert live.document_count == 1
        assert live.vocabulary == {"a", "b"}
        assert set(live.locations()) == {"s0", "s1", "s2"}
        assert [d.doc_id for d in live.ingested_documents()] == [1]

    def test_subscribe_hook_fires(self):
        live = make_live()
        seen = []
        live.subscribe(lambda doc: seen.append(doc.doc_id))
        live.ingest(Document(1, "s0", 0, ("a",)))
        live.ingest(Document(2, "s1", 0, ("b",)))
        assert seen == [1, 2]


class TestTrackerFork:
    def test_fork_is_independent(self):
        locations = {"s0": Point(0.0, 0.0), "s1": Point(5.0, 0.0)}
        tracker = STLocalTermTracker(locations, STLocalConfig(warmup=0))
        for t in range(6):
            tracker.process({"s0": 4.0 if 2 <= t <= 4 else 0.0})
        fork = tracker.fork()
        assert fork.clock == tracker.clock
        assert fork.patterns("x") == tracker.patterns("x")
        # Advancing the fork must not disturb the original...
        before = tracker.patterns("x")
        fork.process({"s1": 9.0})
        assert tracker.patterns("x") == before
        assert tracker.clock == 6 and fork.clock == 7
        # ...and replaying the same snapshot on the original converges.
        tracker.process({"s1": 9.0})
        assert tracker.patterns("x") == fork.patterns("x")

    @pytest.mark.parametrize(
        "baseline, columnar",
        [
            (RunningMeanBaseline, True),
            (RunningMeanBaseline, False),
            (lambda: MovingAverageBaseline(window=3), False),
            (lambda: EWMABaseline(alpha=0.5), False),
            (lambda: SeasonalBaseline(period=3, fallback=RunningMeanBaseline()), False),
        ],
        ids=["running-mean-columnar", "running-mean", "moving-average", "ewma", "seasonal"],
    )
    def test_advancing_a_fork_leaves_the_original_untouched(
        self, baseline, columnar
    ):
        # ``columnar``: the tracker comes from a live feeder, sharing
        # its location store; otherwise it is built directly.
        locations = {f"s{i}": Point(float(i), 0.0) for i in range(3)}
        config = STLocalConfig(warmup=0, baseline_factory=baseline)
        if columnar:
            tracker = IncrementalFeeder(locations, config).tracker("x")
        else:
            tracker = STLocalTermTracker(locations, config)
        snapshots = {
            t: {"s0": 4.0 if 2 <= t <= 4 else 1.0, "s1": float(t % 3)}
            for t in range(7)
        }
        tracker.advance(snapshots, 7)
        models = model_states(tracker)
        patterns = repr(tracker.patterns("x"))

        fork = tracker.fork()
        fork.advance({t: {"s0": 9.0, "s2": 5.0} for t in range(7, 12)}, 12)
        assert fork.clock == 12 and tracker.clock == 7
        assert model_states(tracker) == models
        assert repr(tracker.patterns("x")) == patterns
        # The original still advances exactly like a cold replay.
        tracker.advance(snapshots, 8)
        cold = ReferenceTermTracker(locations, config)
        cold.advance(snapshots, 8)
        assert repr(tracker.patterns("x")) == repr(cold.patterns("x"))
        assert model_states(tracker) == model_states(cold)

    def test_fork_of_pristine_tracker_can_fast_forward(self):
        tracker = STLocalTermTracker({"s0": Point(0.0, 0.0)})
        fork = tracker.fork()
        assert fork.pristine
        fork.fast_forward(5)
        assert fork.clock == 5 and tracker.clock == 0


class TestIncrementalFeeder:
    def test_advance_then_preview_equals_cold_replay(self):
        locations = {f"s{i}": Point(float(i), 0.0) for i in range(3)}
        snapshots = {
            3: {"s0": 5.0, "s1": 4.0},
            4: {"s0": 6.0},
            6: {"s2": 2.0},
        }
        feeder = IncrementalFeeder(locations, STLocalConfig(warmup=1))
        # Commit sealed prefix [0, 5), preview through 7.
        patterns = feeder.mine_term("t", snapshots, sealed=5, through=7)
        cold = ReferenceTermTracker(locations, STLocalConfig(warmup=1))
        for timestamp in range(7):
            cold.process(snapshots.get(timestamp, {}))
        assert patterns == cold.patterns("t")
        # The durable tracker stayed at its sealed checkpoint.
        assert feeder.tracker("t").clock == 5

    def test_preview_horizon_validated(self):
        feeder = IncrementalFeeder({"s0": Point(0.0, 0.0)})
        with pytest.raises(StreamError):
            feeder.mine_term("t", {}, sealed=5, through=4)

    def test_mine_term_without_open_snapshots(self):
        locations = {"s0": Point(0.0, 0.0), "s1": Point(4.0, 0.0)}
        snapshots = {2: {"s0": 6.0, "s1": 5.0}, 3: {"s0": 4.0}}
        feeder = IncrementalFeeder(locations, STLocalConfig(warmup=1))
        # sealed == through: read the durable tracker directly, no fork.
        patterns = feeder.mine_term("t", snapshots, sealed=5, through=5)
        cold = ReferenceTermTracker(locations, STLocalConfig(warmup=1))
        for timestamp in range(5):
            cold.process(snapshots.get(timestamp, {}))
        assert patterns == cold.patterns("t")
        assert feeder.terms() == ["t"]

    def test_matrix_spans_exactly_the_observed_timeline(self):
        # Streams first seen at many timestamps grow the matrix's rows
        # again and again; its columns must stay the clock minus the
        # first observation, never a multiple of it.
        locations = {f"s{i}": Point(float(i % 4), float(i // 4)) for i in range(12)}
        snapshots = {
            t: {f"s{i}": 1.0 + (t + i) % 3 for i in range(min(t // 2 + 1, 12))}
            for t in range(3, 40)
        }
        feeder = IncrementalFeeder(locations, STLocalConfig(warmup=2))
        for through in range(5, 41, 2):
            tracker = feeder.advance("t", snapshots, through)
            width = tracker.clock - tracker._first
            assert tracker._first == 3
            assert tracker._matrix.shape == (len(tracker._row_ids), width)
            preview = feeder.preview("t", snapshots, through + 3)
            assert preview._matrix.shape == (
                len(preview._row_ids), preview.clock - preview._first
            )
        assert len(tracker._row_ids) == 12

    def test_quiet_prefix_fast_forwarded(self):
        feeder = IncrementalFeeder({"s0": Point(0.0, 0.0)})
        tracker = feeder.advance("t", {8: {"s0": 3.0}}, through=8)
        # Nothing was active before 8, so no snapshot was replayed.
        assert tracker.clock == 8
        assert tracker.pristine


class TestLiveSearchEngine:
    def _seed_burst(self, live, engine=None, doc_id_start=100):
        """Docs for 'boom' bursting on s0/s1 at t∈[6,8]."""
        doc_id = doc_id_start
        for t in range(10):
            docs = []
            if 6 <= t <= 8:
                for sid in ("s0", "s1"):
                    docs.append(Document(doc_id, sid, t, ("boom", "boom")))
                    doc_id += 1
            live.ingest_snapshot(t, docs)
        return doc_id

    def test_serves_burst_documents(self):
        live = make_live(timeline=16)
        engine = LiveSearchEngine(live, config=STLocalConfig(warmup=2))
        self._seed_burst(live)
        results = engine.search("boom", k=4)
        assert results
        for result in results:
            assert result.document.frequency("boom") > 0
            assert 6 <= result.document.timestamp <= 8

    def test_lru_cache_hits_within_epoch(self):
        live = make_live(timeline=16)
        engine = LiveSearchEngine(live, config=STLocalConfig(warmup=2))
        self._seed_burst(live)
        first = engine.search("boom", k=3)
        again = engine.search("boom", k=3)
        assert again == first
        assert engine.stats.cache_hits == 1

    def test_search_results_are_defensive_copies(self):
        """Regression: ``search`` caches live result objects — a caller
        mutating a returned list (or trying to rebind result fields)
        must never corrupt what later cache hits serve."""
        import dataclasses

        live = make_live(timeline=16)
        engine = LiveSearchEngine(live, config=STLocalConfig(warmup=2))
        self._seed_burst(live)
        first = engine.search("boom", k=3)
        reference = [(r.document.doc_id, r.score) for r in first]
        # The returned list is the caller's to destroy...
        first.reverse()
        first.append("garbage")
        first.clear()
        # ...and the result/document dataclasses are frozen, so fields
        # cannot be rebound in place either.
        second = engine.search("boom", k=3)
        assert engine.stats.cache_hits == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            second[0].score = -1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            second[0].document.timestamp = 0
        third = engine.search("boom", k=3)
        assert third is not second  # fresh list per call, shared elements
        assert [(r.document.doc_id, r.score) for r in third] == reference

    def test_cache_key_normalised_across_term_order_and_duplicates(self):
        live = make_live(timeline=16)
        engine = LiveSearchEngine(live, config=STLocalConfig(warmup=2))
        self._seed_burst(live)
        for offset in range(4):
            live.ingest(Document(500 + offset, "s0", 9, ("calm",)))
        reference = engine.search("boom calm", k=3)
        assert engine.stats.cache_misses == 1
        # Reordered and duplicated spellings hit the same cache entry.
        assert engine.search("calm boom", k=3) == reference
        assert engine.search("boom boom calm", k=3) == reference
        assert engine.stats.cache_hits == 2
        assert engine.stats.cache_misses == 1

    def test_duplicate_term_not_double_counted_live(self):
        live = make_live(timeline=16)
        engine = LiveSearchEngine(live, config=STLocalConfig(warmup=2))
        self._seed_burst(live)
        single = [
            (r.document.doc_id, r.score) for r in engine.search("boom", k=4)
        ]
        repeated = [
            (r.document.doc_id, r.score)
            for r in engine.search("boom boom", k=4)
        ]
        assert repeated == single

    def test_all_strategies_identical_live(self):
        live = make_live(timeline=16)
        engine = LiveSearchEngine(live, config=STLocalConfig(warmup=2))
        self._seed_burst(live)
        reference = [
            (r.document.doc_id, r.score)
            for r in engine.search("boom", k=4, strategy="ta")
        ]
        assert reference
        for strategy in ("auto", "blockmax", "scan"):
            # The result cache is strategy-agnostic (rankings are
            # byte-identical by contract), so it must be dropped for
            # each strategy to actually execute through the live path.
            engine._cache.clear()
            live_results = [
                (r.document.doc_id, r.score)
                for r in engine.search("boom", k=4, strategy=strategy)
            ]
            assert live_results == reference
        assert engine.stats.cache_misses == 4

    def test_unknown_strategy_rejected(self):
        live = make_live(timeline=16)
        with pytest.raises(SearchError):
            LiveSearchEngine(live, strategy="quantum")

    def test_unknown_strategy_rejected_even_when_cached(self):
        live = make_live(timeline=16)
        engine = LiveSearchEngine(live, config=STLocalConfig(warmup=2))
        self._seed_burst(live)
        engine.search("boom", k=3)  # primes the result cache
        with pytest.raises(SearchError):
            engine.search("boom", k=3, strategy="quantum")

    def test_query_serves_columnar_postings(self):
        live = make_live(timeline=16)
        engine = LiveSearchEngine(live, config=STLocalConfig(warmup=2))
        self._seed_burst(live)
        engine.search("boom", k=3)
        # The re-synced term is one columnar array the kernel reads
        # directly, and it carries the newly ingested document.
        live.ingest(Document(999, "s0", 9, ("boom", "boom", "boom")))
        results = engine.search("boom", k=5)
        assert isinstance(engine.postings["boom"], PostingArray)
        assert any(r.document.doc_id == 999 for r in results)

    def test_columnar_scoring_matches_scalar_fallback(self):
        # Scoring callables the columnar kernel does not recognise take
        # the per-document score_posting path; with the same arithmetic
        # both must build the identical list.
        def postings(**scoring):
            live = make_live(timeline=16)
            engine = LiveSearchEngine(
                live, config=STLocalConfig(warmup=2), **scoring
            )
            doc_id = self._seed_burst(live)
            live.ingest_snapshot(
                10,
                [
                    Document(doc_id, "s0", 10, ("boom",) * 3),
                    Document(doc_id + 1, "s1", 10, ("boom", "calm")),
                    Document(doc_id + 2, "s3", 10, ("boom",)),
                ],
            )
            engine.search("boom", k=3)
            return [(p.doc_id, p.score) for p in engine.postings["boom"]]

        columnar = postings()
        assert len(columnar) > 6
        assert postings(relevance=lambda d, t: log_relevance(d, t)) == columnar
        assert postings(aggregate=lambda scores: max(scores)) == columnar

    def test_ingest_invalidates_result_cache(self):
        live = make_live(timeline=16)
        engine = LiveSearchEngine(live, config=STLocalConfig(warmup=2))
        self._seed_burst(live)
        engine.search("boom", k=3)
        live.ingest(Document(999, "s0", 9, ("boom", "boom", "boom")))
        engine.search("boom", k=3)
        assert engine.stats.cache_hits == 0
        assert engine.stats.cache_misses == 2

    def test_lru_cache_bounded(self):
        live = make_live(timeline=16)
        engine = LiveSearchEngine(
            live, config=STLocalConfig(warmup=2), cache_size=2
        )
        self._seed_burst(live)
        for query in ("boom", "one", "two", "three"):
            engine.search(query, k=3)
        assert engine.cached_queries == 2

    def test_unseen_term_served_and_synced_once(self):
        live = make_live(timeline=16)
        engine = LiveSearchEngine(live, config=STLocalConfig(warmup=2))
        self._seed_burst(live)
        assert engine.search("neverseen", k=3) == []
        engine.search("neverseen other", k=3)
        # Second query re-used the synced state for both terms.
        assert engine.stats.served_current >= 1

    def test_stale_sync_rebuilds_when_patterns_stable(self):
        live = make_live(timeline=16)
        engine = LiveSearchEngine(live, config=STLocalConfig(warmup=8))
        # All activity inside the warm-up window: burstiness is forced
        # to zero, so the pattern set stays stably empty while the
        # term's documents keep arriving.
        live.ingest_snapshot(0, [Document(1, "s0", 0, ("calm",))])
        engine.search("calm", k=3)
        live.ingest_snapshot(1, [Document(2, "s0", 1, ("calm",))])
        assert engine.search("calm", k=3) == []
        # Every stale sync re-mines and rescores; there is no
        # incremental branch left to take.
        assert engine.stats.rebuilds == 2
        assert engine.stats.delta_updates == 0
        assert engine.patterns_for("calm") == []
        assert len(engine.postings["calm"]) == 0

    def test_rebuild_on_pattern_shift(self):
        live = make_live(timeline=16)
        engine = LiveSearchEngine(live, config=STLocalConfig(warmup=2))
        doc_id = self._seed_burst(live)
        engine.search("boom", k=3)
        rebuilds = engine.stats.rebuilds
        # A fresh burst document shifts the term's live windows.
        live.ingest(Document(doc_id, "s0", 9, ("boom", "boom")))
        engine.search("boom", k=3)
        assert engine.stats.rebuilds > rebuilds

    def test_patterns_for_tracks_ingestion(self):
        live = make_live(timeline=16)
        engine = LiveSearchEngine(live, config=STLocalConfig(warmup=2))
        assert engine.patterns_for("boom") == []
        self._seed_burst(live)
        assert engine.patterns_for("boom")

    def test_engine_usable_before_streams_registered(self):
        live = LiveCollection(8)
        engine = LiveSearchEngine(live)
        assert engine.search("anything", k=1) == []
        live.add_stream("s0", Point(0.0, 0.0))
        live.ingest(Document(1, "s0", 0, ("anything",)))
        # The feeder rebinds to the final stream set.
        assert engine.search("anything", k=1) == []
        assert len(engine.feeder.locations) == 1

    def test_invalid_arguments(self):
        live = make_live()
        with pytest.raises(SearchError):
            LiveSearchEngine(live, cache_size=0)
        engine = LiveSearchEngine(live)
        with pytest.raises(SearchError):
            engine.search("   ")
