"""Differential test harness: live incremental state == cold batch rebuild.

The live layer's correctness contract is a single sentence: after *any*
append-only ingestion schedule, every externally observable structure —
posting lists, mined pattern sets, top-k answers — must be identical to
throwing the live state away and rebuilding from scratch with the batch
stack.  These tests generate seeded random schedules (bursty and quiet
periods, empty snapshots, multi-document snapshots, interleaved
queries) and assert that equality after every batch, both with plain
seeded RNG schedules and with Hypothesis-generated ones.

"Identical" is exact: document ids, float scores and ordering are
compared with ``==``, no tolerance — both paths must perform the same
arithmetic in the same order.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    BatchMiner,
    BurstySearchEngine,
    Document,
    LiveCollection,
    LiveSearchEngine,
    Point,
    STLocal,
    SpatiotemporalCollection,
)
from repro.core.config import STLocalConfig
from repro.core.stlocal import STLocalTermTracker
from repro.temporal.baselines import EWMABaseline

TIMELINE = 24
VOCABULARY = ("storm", "flood", "market", "quiet", "vote")


def make_streams(rng, n_streams):
    return {
        f"s{i}": Point(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
        for i in range(n_streams)
    }


def random_snapshot(rng, streams, timestamp, next_doc_id, bursty):
    """A random batch of documents for one timestamp."""
    documents = []
    n_docs = rng.randint(0, 3) + (rng.randint(4, 7) if bursty else 0)
    burst_term = VOCABULARY[timestamp % len(VOCABULARY)]
    burst_streams = sorted(streams)[: max(2, len(streams) // 3)]
    for offset in range(n_docs):
        if bursty and offset >= 2:
            stream_id = rng.choice(burst_streams)
            terms = (burst_term, burst_term, rng.choice(VOCABULARY))
        else:
            stream_id = rng.choice(sorted(streams))
            terms = tuple(
                rng.choice(VOCABULARY) for _ in range(rng.randint(1, 3))
            )
        documents.append(
            Document(next_doc_id + offset, stream_id, timestamp, terms)
        )
    return documents


def cold_rebuild(live, config):
    """Throw the live state away: fresh collection, batch mine, static engine."""
    collection = SpatiotemporalCollection(live.timeline)
    for stream_id, point in live.locations().items():
        collection.add_stream(stream_id, point)
    for document in live.ingested_documents():
        collection.add_document(document)
    mined = BatchMiner(stlocal=STLocal(config)).mine_regional(collection)
    engine = BurstySearchEngine(collection, mined)
    return mined, engine


def result_pairs(results):
    return [(r.document.doc_id, r.score) for r in results]


def posting_pairs(plist):
    return [(p.doc_id, p.score) for p in plist]


def assert_live_equals_cold(live, engine, config, queries, ks):
    """The oracle: every observable of the live stack == cold rebuild."""
    mined, cold_engine = cold_rebuild(live, config)

    # 1. Mined pattern sets, term by term (terms with none included).
    for term in VOCABULARY:
        assert engine.patterns_for(term) == mined.get(term, []), term

    # 2. Posting lists: each term's live array (rebuilt or merged)
    #    must read exactly like the static engine's freshly built list.
    for term in VOCABULARY:
        live_list = engine._term_list(term)
        cold_list = cold_engine._posting_list(term)
        assert posting_pairs(live_list) == posting_pairs(cold_list), term

    # 3. Top-k answers.
    for query in queries:
        for k in ks:
            assert result_pairs(engine.search(query, k)) == result_pairs(
                cold_engine.search(query, k)
            ), (query, k)


def run_schedule(seed, config, n_streams=8, check_every=5):
    rng = random.Random(seed)
    streams = make_streams(rng, n_streams)
    live = LiveCollection(TIMELINE)
    for stream_id, point in streams.items():
        live.add_stream(stream_id, point)
    engine = LiveSearchEngine(live, config=config, cache_size=16)
    queries = ["storm", "flood market", "quiet", "vote storm"]
    next_doc_id = 0
    checks = 0
    for timestamp in range(TIMELINE):
        if rng.random() < 0.15:
            live.advance_to(timestamp)  # an empty tick
            continue
        bursty = rng.random() < 0.35
        documents = random_snapshot(rng, streams, timestamp, next_doc_id, bursty)
        next_doc_id += len(documents)
        live.ingest_snapshot(timestamp, documents)
        # Serve mid-schedule (exercises caches + incremental syncs).
        engine.search(rng.choice(queries), k=rng.randint(1, 6))
        if timestamp % check_every == check_every - 1:
            assert_live_equals_cold(
                live, engine, config, queries, ks=(1, 3, 10)
            )
            checks += 1
    assert_live_equals_cold(live, engine, config, queries, ks=(1, 3, 10))
    assert checks >= 2
    return engine


class TestDifferentialSchedules:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_schedule_matches_cold_rebuild(self, seed):
        run_schedule(seed, STLocalConfig(warmup=2))

    def test_zero_warmup_config(self):
        run_schedule(97, STLocalConfig(warmup=0))

    def test_geometry_keyed_regions(self):
        run_schedule(31, STLocalConfig(warmup=2, key_by_geometry=True))

    def test_history_tracking_disabled(self):
        run_schedule(13, STLocalConfig(warmup=2, track_history=False))

    def test_custom_baseline_replays(self):
        # A custom baseline's live trackers carry one model object per
        # stream through the same sweep, and must still match.
        run_schedule(41, STLocalConfig(warmup=2, baseline_factory=EWMABaseline))

    def test_seeded_schedules_sweep_then_advance(self, monkeypatch):
        # The oracle above must cover both halves of a durable tracker's
        # life: swept from pristine on the term's first touch, then
        # extended by later batched advances (and previews of forks).
        calls = []
        advance = STLocalTermTracker.advance

        def recording_advance(tracker, snapshots, through):
            pristine, clock = tracker.pristine, tracker.clock
            advance(tracker, snapshots, through)
            calls.append((pristine, clock, tracker.clock))

        monkeypatch.setattr(STLocalTermTracker, "advance", recording_advance)
        for seed in range(5):
            run_schedule(seed, STLocalConfig(warmup=2))
        assert any(pristine and after > before for pristine, before, after in calls)
        assert any(
            not pristine and after > before for pristine, before, after in calls
        )


class TestHypothesisSchedules:
    """Property-based schedules: shapes the seeded generator may miss."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        schedule=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # timestamp gap
                st.lists(  # docs in the snapshot: (stream idx, term idx, reps)
                    st.tuples(
                        st.integers(min_value=0, max_value=4),
                        st.integers(min_value=0, max_value=4),
                        st.integers(min_value=1, max_value=3),
                    ),
                    max_size=5,
                ),
            ),
            min_size=1,
            max_size=8,
        ),
        warmup=st.integers(min_value=0, max_value=3),
    )
    def test_any_schedule_matches_cold_rebuild(self, schedule, warmup):
        config = STLocalConfig(warmup=warmup)
        live = LiveCollection(40)
        for i in range(5):
            live.add_stream(f"s{i}", Point(float(i * 7 % 20), float(i * 13 % 20)))
        engine = LiveSearchEngine(live, config=config)
        timestamp = 0
        next_doc_id = 0
        for gap, docs in schedule:
            timestamp = min(timestamp + gap, 39)
            batch = [
                Document(
                    next_doc_id + offset,
                    f"s{stream_idx}",
                    timestamp,
                    (VOCABULARY[term_idx],) * reps,
                )
                for offset, (stream_idx, term_idx, reps) in enumerate(docs)
            ]
            next_doc_id += len(batch)
            live.ingest_snapshot(timestamp, batch)
            engine.search("storm flood", k=3)
        assert_live_equals_cold(
            live,
            engine,
            config,
            queries=["storm", "flood market"],
            ks=(1, 5),
        )
