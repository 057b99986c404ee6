"""Unit + property tests for the calibrated query planner.

Covers the three planning tiers (term-set memory, fitted cost model,
cold-log heuristic fallback), the regret property the bench gates on,
hot-combination mining with version-token invalidation, JSONL query-log
and JSON model persistence (fit → save → reload → identical choices),
store round-trips, and the live-engine integration's byte-identity
against a cold batch rebuild.

Timing is fully deterministic here: every planner is built with a fake
monotonic clock, and where the tests need "measured" costs they inject
synthetic per-strategy cost functions through ``observe`` — the regret
property then checks the planner's choices against the exhaustive
per-query argmin of those same costs.
"""

import json
import random

import pytest

from repro.columnar.postings import PostingArray
from repro.errors import SearchError
from repro.search import (
    CANDIDATES,
    CalibratedPlanner,
    CostModel,
    Posting,
    PostingList,
    QueryLog,
    QueryRecord,
    topk,
    topk_many,
    true_length,
)


class FakeClock:
    """Deterministic monotonic clock; advance it by hand."""

    def __init__(self) -> None:
        self.now = 0.0
        self.step = 0.0

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def make_planner(**kwargs):
    clock = FakeClock()
    kwargs.setdefault("hot_support", 0)  # isolate strategy planning
    planner = CalibratedPlanner(clock=clock, **kwargs)
    return planner, clock


def make_lists(rng, n_lists=None, max_len=400):
    lists = []
    for _ in range(n_lists or rng.randint(1, 3)):
        length = rng.randint(5, max_len)
        ids = rng.sample(range(max_len * 4), length)
        lists.append(PostingArray(ids, [rng.random() for _ in ids]))
    return lists


def synthetic_cost(strategy, lists, k):
    """A deterministic per-strategy cost, linear in the model features.

    Chosen so that neither strategy dominates: scan's cost follows the
    total true length, blockmax's follows k and the shortest list.
    """
    visible = [len(pl) for pl in lists]
    true = [true_length(pl) for pl in lists]
    if strategy == "scan":
        return 1e-4 + 2e-6 * sum(true)
    return 3e-4 + 4e-6 * (k * len(lists)) + 1e-6 * min(visible)


def calibrate(planner, workload):
    """Observe both candidate strategies on every query with the
    synthetic costs (what an explicit per-strategy pass produces)."""
    for terms, lists, k in workload:
        for strategy in CANDIDATES:
            planner.observe(
                lists=lists,
                k=k,
                strategy=strategy,
                sorted_accesses=sum(len(pl) for pl in lists),
                elapsed=synthetic_cost(strategy, lists, k),
                terms=terms,
            )


def build_workload(seed, n_queries=24):
    rng = random.Random(seed)
    workload = []
    for index in range(n_queries):
        lists = make_lists(rng)
        workload.append(
            (tuple(sorted({f"t{index}", f"u{index % 7}"})), lists, rng.randint(1, 20))
        )
    return workload


class TestColdFallback:
    def test_cold_planner_falls_back_to_scan(self):
        planner, _ = make_planner()
        rng = random.Random(0)
        for _ in range(10):
            lists = make_lists(rng)
            strategy, source = planner.plan(lists, 3, ("q",))
            assert (strategy, source) == ("scan", "default")

    def test_underfed_model_stays_cold(self):
        planner, _ = make_planner(min_samples=50, refit_every=1)
        calibrate(planner, build_workload(1, n_queries=4))
        assert not planner.model.fitted
        # Unknown term set + cold model → scan, not a half-fit.
        strategy, source = planner.plan(
            make_lists(random.Random(2)), 3, ("new",)
        )
        assert (strategy, source) == ("scan", "default")

    def test_explore_tier_is_opt_in(self):
        planner, _ = make_planner(explore=True)
        lists = make_lists(random.Random(3))
        first, source = planner.plan(lists, 3, ("x",))
        assert source == "explore"
        planner.observe(
            lists=lists, k=3, strategy=first, sorted_accesses=1, elapsed=0.5,
            terms=("x",),
        )
        second, source = planner.plan(lists, 3, ("x",))
        assert source == "explore"
        assert second != first  # least-sampled candidate next
        planner.observe(
            lists=lists, k=3, strategy=second, sorted_accesses=1, elapsed=0.1,
            terms=("x",),
        )
        # Both sampled → memory tier takes over with the empirical best.
        chosen, source = planner.plan(lists, 3, ("x",))
        assert source == "memory"
        assert chosen == second


class TestRegretProperty:
    def test_memory_tier_always_picks_the_per_query_best(self):
        """On a calibrated workload the planner's choice must match the
        exhaustive per-query argmin exactly (regret 1.0)."""
        planner, _ = make_planner(min_samples=8, refit_every=0)
        workload = build_workload(11)
        calibrate(planner, workload)
        for terms, lists, k in workload:
            chosen, source = planner.plan(lists, k, terms)
            assert source == "memory"
            costs = {s: synthetic_cost(s, lists, k) for s in CANDIDATES}
            assert costs[chosen] == min(costs.values())

    @pytest.mark.parametrize("seed", [5, 17, 23])
    def test_model_tier_regret_bound_on_unseen_queries(self, seed):
        """The fitted model, asked about *unseen* term sets, must stay
        within the bench's regret bound (cost of its choice ≤ 1.10 ×
        the per-query best) — the costs are linear in the features, so
        the least-squares fit should recover them almost exactly."""
        planner, _ = make_planner(min_samples=8, refit_every=0)
        calibrate(planner, build_workload(seed, n_queries=30))
        assert planner.fit()
        rng = random.Random(seed + 1000)
        regrets = []
        for index in range(30):
            lists = make_lists(rng)
            k = rng.randint(1, 20)
            chosen, source = planner.plan(lists, k, (f"unseen{index}",))
            assert source == "model"
            costs = {s: synthetic_cost(s, lists, k) for s in CANDIDATES}
            regrets.append(costs[chosen] / min(costs.values()))
        regrets.sort()
        assert regrets[len(regrets) // 2] <= 1.10  # median regret bound
        assert max(regrets) <= 1.5  # no catastrophic mispick either

    def test_fitted_choices_survive_persistence(self):
        """fit → save → reload must plan identically (the satellite's
        log-roundtrip requirement)."""
        planner, _ = make_planner(min_samples=8, refit_every=0)
        calibrate(planner, build_workload(7, n_queries=20))
        planner.fit()
        reloaded = CalibratedPlanner.from_payload(
            json.loads(json.dumps(planner.to_payload())), clock=FakeClock()
        )
        rng = random.Random(99)
        for index in range(25):
            lists = make_lists(rng)
            k = rng.randint(1, 20)
            terms = (f"q{index % 5}",)
            assert planner.plan(lists, k, terms) == reloaded.plan(
                lists, k, terms
            )


class TestQueryLogPersistence:
    def test_jsonl_roundtrip(self, tmp_path):
        log = QueryLog()
        rng = random.Random(4)
        for index in range(9):
            log.append(
                QueryRecord(
                    terms=(f"a{index}", "b"),
                    k=rng.randint(1, 10),
                    visible=(rng.randint(1, 50), rng.randint(1, 50)),
                    true=(rng.randint(50, 99), rng.randint(50, 99)),
                    strategy=rng.choice(CANDIDATES),
                    sorted_accesses=rng.randint(0, 1000),
                    elapsed=rng.random(),
                    source="explicit",
                )
            )
        path = str(tmp_path / "queries.jsonl")
        log.save(path)
        assert list(QueryLog.load(path)) == list(log)

    def test_log_capacity_bounds_and_drops_oldest(self):
        log = QueryLog(capacity=3)
        for index in range(5):
            log.append(
                QueryRecord(
                    terms=(), k=1, visible=(index,), true=(index,),
                    strategy="scan", sorted_accesses=0, elapsed=0.0,
                )
            )
        assert len(log) == 3
        assert [record.visible[0] for record in log] == [2, 3, 4]

    def test_unsupported_format_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"format": 999}\n')
        with pytest.raises(SearchError):
            QueryLog.load(str(path))

    def test_missing_and_corrupt_files_raise_search_error(self, tmp_path):
        with pytest.raises(SearchError):
            QueryLog.load(str(tmp_path / "absent.jsonl"))
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(SearchError):
            QueryLog.load(str(bad))
        with pytest.raises(SearchError):
            CalibratedPlanner.load(str(tmp_path / "absent.json"))

    def test_replay_rebuilds_memory_and_support(self):
        planner, _ = make_planner(min_samples=2, refit_every=0)
        workload = build_workload(13, n_queries=6)
        calibrate(planner, workload)
        fresh = CalibratedPlanner(clock=FakeClock(), min_samples=2)
        fresh.replay(planner.log)
        assert fresh.fit()
        terms, lists, k = workload[0]
        assert fresh.plan(lists, k, terms)[1] == "memory"
        assert fresh.hot_combinations()  # support mined from the log

    def test_model_file_roundtrip(self, tmp_path):
        planner, _ = make_planner(min_samples=8, refit_every=0)
        calibrate(planner, build_workload(21, n_queries=20))
        planner.fit()
        path = str(tmp_path / "model.json")
        planner.save(path)
        reloaded = CalibratedPlanner.load(path, clock=FakeClock())
        assert reloaded.model.fitted
        lists = make_lists(random.Random(5))
        assert reloaded.plan(lists, 4, ("zz",)) == planner.plan(
            lists, 4, ("zz",)
        )

    def test_unsupported_model_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": 999}')
        with pytest.raises(SearchError):
            CalibratedPlanner.load(str(path))


class TestHotCombinations:
    def lists(self):
        n = 60
        return [
            PostingArray(list(range(n)), [float((i * 13) % 37) for i in range(n)]),
            PostingArray(
                list(range(0, n, 2)), [float((i * 7) % 31) for i in range(0, n, 2)]
            ),
        ]

    def test_merged_ranking_is_byte_identical_at_any_k(self):
        planner = CalibratedPlanner(clock=FakeClock(), hot_support=2)
        lists = self.lists()
        terms = ("a", "b")
        baseline = {
            k: [(r.doc_id, r.score) for r in topk(lists, k)[0]]
            for k in (1, 3, 10, 100)
        }
        for round_index in range(4):
            for k in (1, 3, 10, 100):
                results, stats = topk(
                    lists, k, planner=planner, terms=terms, token=("v", 0)
                )
                assert [(r.doc_id, r.score) for r in results] == baseline[k]
                if round_index >= 2:
                    assert stats.strategy == "merged"
                    assert stats.source == "merged"
                    assert stats.sorted_accesses == 0
        assert planner.merged_hits > 0 and planner.merged_builds == 1

    def test_token_mismatch_invalidates_and_rebuilds(self):
        planner = CalibratedPlanner(clock=FakeClock(), hot_support=1)
        lists = self.lists()
        terms = ("a", "b")
        first, stats = topk(lists, 5, planner=planner, terms=terms, token=1)
        assert stats.strategy == "merged"
        # Simulate mutation: new posting data under a new token.
        mutated = [
            PostingArray([7, 8], [100.0, 90.0]),
            PostingArray([7, 8], [50.0, 40.0]),
        ]
        results, stats = topk(mutated, 5, planner=planner, terms=terms, token=2)
        assert stats.strategy == "merged"  # rebuilt, not served stale
        expected, _ = topk(mutated, 5)
        assert [(r.doc_id, r.score) for r in results] == [
            (r.doc_id, r.score) for r in expected
        ]
        assert planner.merged_builds == 2

    def test_invalidate_merged_drops_cache(self):
        planner = CalibratedPlanner(clock=FakeClock(), hot_support=1)
        lists = self.lists()
        topk(lists, 5, planner=planner, terms=("a", "b"), token=1)
        assert planner.stats()["merged_cached"] == 1
        planner.invalidate_merged()
        assert planner.stats()["merged_cached"] == 0
        # Same token after the wholesale drop: must rebuild, not hit.
        _, stats = topk(lists, 5, planner=planner, terms=("a", "b"), token=1)
        assert stats.strategy == "merged"
        assert planner.merged_builds == 2

    def test_lru_eviction_bounds_merged_cache(self):
        planner = CalibratedPlanner(
            clock=FakeClock(), hot_support=1, max_merged=1
        )
        lists = self.lists()
        topk(lists, 5, planner=planner, terms=("a", "b"), token=1)
        topk(lists, 5, planner=planner, terms=("c", "d"), token=1)
        assert planner.stats()["merged_cached"] == 1
        hottest = planner.hot_combinations(2)
        assert {terms for terms, _ in hottest} == {("a", "b"), ("c", "d")}

    def test_topk_many_threads_planner_per_query(self):
        planner = CalibratedPlanner(clock=FakeClock(), hot_support=2)
        lists = self.lists()
        queries = [lists, [lists[0]], lists]
        terms_list = [("a", "b"), ("a",), ("a", "b")]
        for _ in range(3):
            outcomes = topk_many(
                queries, 4, planner=planner, terms_list=terms_list, token=0
            )
            solo = [topk(q, 4)[0] for q in queries]
            for (results, _), expected in zip(outcomes, solo):
                assert [(r.doc_id, r.score) for r in results] == [
                    (r.doc_id, r.score) for r in expected
                ]
        assert planner.merged_hits > 0


class TestEngineIntegration:
    def test_static_engine_with_planner_matches_without(self):
        from tests.test_search import build_event_collection

        from repro.core import STComb
        from repro.search import BurstySearchEngine

        collection, _ = build_event_collection()
        patterns = STComb().mine(collection, terms=["quake"])
        plain = BurstySearchEngine(collection, patterns)
        planner = CalibratedPlanner(clock=FakeClock(), hot_support=1)
        planned = BurstySearchEngine(collection, patterns, planner=planner)
        reference = [
            (r.document.doc_id, r.score) for r in plain.search("quake", k=5)
        ]
        for _ in range(3):
            got = [
                (r.document.doc_id, r.score)
                for r in planned.search("quake", k=5)
            ]
            assert got == reference
        _, stats = planned.search_with_stats("quake", k=5)
        assert stats.strategy == "merged"

    def test_live_engine_with_planner_matches_plain_serving(self):
        from repro.core.config import STLocalConfig
        from repro.live import LiveCollection, LiveSearchEngine
        from repro.spatial import Point
        from repro.streams import Document

        live = LiveCollection(16)
        for i in range(4):
            live.add_stream(f"s{i}", Point(float(i * 10), 0.0))
        planner = CalibratedPlanner(clock=FakeClock(), hot_support=2)
        planned = LiveSearchEngine(
            live, config=STLocalConfig(warmup=2), planner=planner
        )
        plain = LiveSearchEngine(live, config=STLocalConfig(warmup=2))
        doc_id = 0
        for t in range(10):
            docs = []
            if 6 <= t <= 8:
                for sid in ("s0", "s1"):
                    docs.append(Document(doc_id, sid, t, ("boom", "boom")))
                    doc_id += 1
            live.ingest_snapshot(t, docs)

        def serve(engine, k):
            return [
                (r.document.doc_id, r.score)
                for r in engine.search("boom", k=k)
            ]

        reference = serve(plain, 3)
        assert reference
        # Distinct k per call so the live engine's own result cache
        # doesn't absorb the repeats before they reach the planner.
        for k in (3, 4, 5, 6):
            assert serve(planned, k) == serve(plain, k)
        assert planner.merged_builds == 1
        # Ingest more matching docs: term_version bumps, the merged
        # entry goes stale, and serving must reflect the new corpus.
        for t in (11, 12):
            live.ingest_snapshot(
                t, [Document(100 + t, "s2", t, ("boom", "boom"))]
            )
        updated = serve(planned, 3)
        assert updated == serve(plain, 3)
        assert planner.merged_builds == 2  # rebuilt under the new token

    def test_store_roundtrip_reattaches_planner(self, tmp_path):
        from tests.test_search import build_event_collection

        from repro.pipeline import BatchMiner
        from repro.search import BurstySearchEngine

        collection, _ = build_event_collection()
        trackers = BatchMiner().regional_trackers(collection)
        patterns = {
            term: tracker.patterns(term)
            for term, tracker in trackers.items()
            if tracker.patterns(term)
        }
        planner, _ = make_planner(min_samples=4, refit_every=0)
        calibrate(planner, build_workload(31, n_queries=12))
        planner.fit()
        engine = BurstySearchEngine(collection, patterns, planner=planner)
        path = str(tmp_path / "idx")
        engine.save(path)
        reloaded = BurstySearchEngine.from_store(path)
        assert reloaded.planner is not None
        assert reloaded.planner.model.fitted
        rng = random.Random(41)
        for index in range(10):
            lists = make_lists(rng)
            k = rng.randint(1, 10)
            terms = (f"w{index}",)
            assert reloaded.planner.plan(lists, k, terms) == planner.plan(
                lists, k, terms
            )
        assert [
            (r.document.doc_id, r.score)
            for r in reloaded.search("quake", k=3)
        ] == [
            (r.document.doc_id, r.score) for r in engine.search("quake", k=3)
        ]


class TestValidation:
    def test_invalid_constructor_arguments(self):
        with pytest.raises(SearchError):
            QueryLog(capacity=0)
        with pytest.raises(SearchError):
            CostModel(min_samples=0)
        with pytest.raises(SearchError):
            CalibratedPlanner(hot_support=-1)
        with pytest.raises(SearchError):
            CalibratedPlanner(max_merged=0)

    def test_predict_requires_fit(self):
        model = CostModel()
        with pytest.raises(SearchError):
            model.predict([10], [10], 3)

    def test_explain_has_no_side_effects(self):
        planner = CalibratedPlanner(clock=FakeClock(), hot_support=5)
        lists = [PostingArray([1, 2], [2.0, 1.0])]
        before = planner.stats()
        info = planner.explain(lists, 2, ("a",))
        assert info["strategy"] in CANDIDATES
        assert (info["strategy"], info["source"]) == ("scan", "default")
        assert planner.stats() == before

    def test_observe_with_fake_clock_is_deterministic(self):
        """The injected-clock seam: identical runs produce identical
        logs, bit for bit."""

        def run():
            clock = FakeClock()
            clock.step = 0.5
            planner = CalibratedPlanner(clock=clock, hot_support=0)
            lists = [PostingArray(list(range(20)), [float(i) for i in range(20)])]
            start = planner.clock()
            topk(lists, 3, planner=planner, terms=("t",), token=0)
            assert planner.clock() > start
            return [record.to_json() for record in planner.log]

        assert run() == run()