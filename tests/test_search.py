"""Inverted index, Threshold Algorithm, and the search engines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.postings import PostingArray
from repro.core import CombinatorialPattern, STComb, STLocal
from repro.errors import SearchError
from repro.intervals import Interval
from repro.search import (
    STRATEGIES,
    BurstySearchEngine,
    InvertedIndex,
    Posting,
    TemporalSearchEngine,
    binary_relevance,
    blockmax_topk,
    exhaustive_topk,
    log_relevance,
    raw_relevance,
    scan_topk,
    threshold_topk,
    topk,
)
from repro.search.engine import score_posting
from repro.spatial import Point
from repro.streams import Document, SpatiotemporalCollection

from oracles.postings import assert_serves_like_oracle, reference_log_relevance


class TestRelevance:
    def test_log_relevance(self):
        doc = Document(1, "us", 0, ("a", "a", "b"))
        import math

        assert log_relevance(doc, "a") == pytest.approx(math.log(3))
        assert log_relevance(doc, "z") == 0.0

    def test_raw_and_binary(self):
        doc = Document(1, "us", 0, ("a", "a"))
        assert raw_relevance(doc, "a") == 2.0
        assert binary_relevance(doc, "a") == 1.0
        assert binary_relevance(doc, "z") == 0.0


class TestPostingList:
    def test_sorted_access_descending(self):
        plist = PostingArray.from_postings(
            [Posting("a", 1.0), Posting("b", 3.0), Posting("c", 2.0)]
        )
        scores = [plist.sorted_access(i).score for i in range(3)]
        assert scores == [3.0, 2.0, 1.0]

    def test_sorted_access_past_end(self):
        plist = PostingArray.from_postings([Posting("a", 1.0)])
        assert plist.sorted_access(5) is None

    def test_random_access(self):
        plist = PostingArray.from_postings([Posting("a", 1.0)])
        assert plist.random_access("a") == 1.0
        assert plist.random_access("z") is None

    def test_top(self):
        plist = PostingArray.from_postings([Posting(i, float(i)) for i in range(5)])
        assert [p.doc_id for p in plist.top(2)] == [4, 3]

    def test_index_registration(self):
        index = InvertedIndex()
        index.add("t", [Posting("a", 1.0)])
        assert "t" in index
        assert index.get("t") is not None
        assert index.get("z") is None
        assert index.terms() == ["t"]
        assert len(index) == 1


def _lists_from_spec(spec):
    """spec: list of dicts doc->score."""
    return [
        PostingArray.from_postings(
            [Posting(doc, score) for doc, score in entries.items()]
        )
        for entries in spec
    ]


class TestThresholdAlgorithm:
    def test_invalid_k(self):
        with pytest.raises(SearchError):
            threshold_topk(_lists_from_spec([{"a": 1.0}]), 0)

    def test_no_lists(self):
        with pytest.raises(SearchError):
            threshold_topk([], 3)

    def test_single_list(self):
        lists = _lists_from_spec([{"a": 1.0, "b": 5.0, "c": 3.0}])
        results, _ = threshold_topk(lists, 2)
        assert [r.doc_id for r in results] == ["b", "c"]

    def test_conjunctive_semantics(self):
        """Docs missing from any list are excluded (Eq. 11's −∞)."""
        lists = _lists_from_spec([{"a": 9.0, "b": 1.0}, {"b": 1.0, "c": 9.0}])
        results, _ = threshold_topk(lists, 5)
        assert [r.doc_id for r in results] == ["b"]
        assert results[0].score == pytest.approx(2.0)

    def test_early_termination_saves_accesses(self):
        entries = {f"d{i:03d}": float(1000 - i) for i in range(1000)}
        lists = _lists_from_spec([entries])
        _, accesses = threshold_topk(lists, 5)
        assert accesses < 1000

    @settings(max_examples=60)
    @given(
        st.lists(
            st.dictionaries(
                st.integers(0, 20),
                st.floats(0.0, 10.0, allow_nan=False),
                max_size=12,
            ),
            min_size=1,
            max_size=3,
        ),
        st.integers(1, 8),
    )
    def test_ta_matches_exhaustive(self, spec, k):
        lists = _lists_from_spec(spec)
        ta_results, _ = threshold_topk(lists, k)
        reference = exhaustive_topk(lists, k)
        assert [r.doc_id for r in ta_results] == [r.doc_id for r in reference]
        for ta, ref in zip(ta_results, reference):
            assert ta.score == pytest.approx(ref.score)


class TestThresholdRegressions:
    """Stopping-rule defects of the original implementation.

    Both scenarios return a provably wrong top-1 when (a) exhausted
    lists stop contributing to the threshold, or (b) the stop test uses
    ``>=`` against the threshold.
    """

    def test_exhausted_list_keeps_bounding_unseen_documents(self):
        """A pruned list exhausts early; its final score must stay in
        the threshold or TA stops before finding the true winner."""
        full = PostingArray.from_postings([Posting("x", 10.0), Posting("y", 9.0)])
        pruned = full.truncated(1)  # sorted access sees only x
        other = PostingArray.from_postings(
            [
                Posting("d1", 3.0),
                Posting("d2", 2.9),
                Posting("y", 2.5),
                Posting("x", 0.1),
            ]
        )
        ta_results, _ = threshold_topk([pruned, other], 1)
        reference = exhaustive_topk([pruned, other], 1)
        # y = 9.0 + 2.5 beats x = 10.0 + 0.1; the understated threshold
        # (2.9 after the pruned list exhausts) used to stop at x.
        assert [r.doc_id for r in reference] == ["y"]
        assert [r.doc_id for r in ta_results] == ["y"]
        assert ta_results[0].score == pytest.approx(11.5)

    def test_threshold_tie_resolved_by_deterministic_tiebreak(self):
        """An unseen document tying the k-th aggregate can still win the
        document-id tiebreak; stopping at ``>=`` returned the loser."""
        from repro.search.inverted_index import rank_tiebreak

        pool = sorted((f"doc{i}" for i in range(200)), key=rank_tiebreak)
        b1, b2, a2, a3, y, w = (*pool[:5], pool[-1])
        list_a = _lists_from_spec([{w: 5.0, a2: 3.0, a3: 3.0, y: 3.0}])[0]
        list_b = _lists_from_spec([{b1: 3.0, b2: 3.0, y: 3.0, w: 1.0}])[0]
        # Totals tie at 6.0 for w (5+1) and y (3+3); y wins the tiebreak
        # but is unseen when the threshold first equals the top score.
        ta_results, _ = threshold_topk([list_a, list_b], 1)
        reference = exhaustive_topk([list_a, list_b], 1)
        assert [r.doc_id for r in reference] == [y]
        assert [r.doc_id for r in ta_results] == [y]

    def test_empty_list_excludes_everything(self):
        lists = [
            PostingArray.from_postings([]),
            PostingArray.from_postings([Posting("a", 2.0), Posting("b", 1.0)]),
        ]
        results, _ = threshold_topk(lists, 3)
        assert results == []
        assert exhaustive_topk(lists, 3) == []

    @settings(max_examples=120)
    @given(
        st.lists(
            st.dictionaries(
                st.integers(0, 15),
                # Small integer scores force heavy score ties.
                st.integers(-3, 6).map(float),
                max_size=10,
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 6),
        st.randoms(use_true_random=False),
    )
    def test_ta_exact_under_ties_negatives_and_truncation(
        self, spec, k, rng
    ):
        """TA must equal the exhaustive ranking *exactly* — same ids in
        the same order — under ties, negative scores, and pruning."""
        lists = []
        for plist in _lists_from_spec(spec):
            if len(plist) and rng.random() < 0.4:
                plist = plist.truncated(rng.randint(1, len(plist)))
            lists.append(plist)
        ta_results, _ = threshold_topk(lists, k)
        reference = exhaustive_topk(lists, k)
        assert [(r.doc_id, r.score) for r in ta_results] == [
            (r.doc_id, r.score) for r in reference
        ]


def build_event_collection():
    """Tiny corpus: event on s0/s1 weeks 5-7; ambient mention on s2."""
    coll = SpatiotemporalCollection(timeline=12)
    for i, sid in enumerate(("s0", "s1", "s2")):
        coll.add_stream(sid, Point(float(i), 0.0))
    doc_id = 0
    for sid in ("s0", "s1", "s2"):
        for t in range(12):
            coll.add_document(Document(doc_id, sid, t, ("filler", "news")))
            doc_id += 1
    event_docs = []
    for sid in ("s0", "s1"):
        for t in (5, 6, 7):
            doc = Document(doc_id, sid, t, ("quake", "quake", "damage"), event_id=1)
            coll.add_document(doc)
            event_docs.append(doc)
            doc_id += 1
    coll.add_document(Document(doc_id, "s2", 1, ("quake", "history")))
    return coll, event_docs


class TestBurstySearchEngine:
    def test_retrieves_event_documents(self):
        coll, event_docs = build_event_collection()
        patterns = STComb().mine(coll, terms=["quake"])
        engine = BurstySearchEngine(coll, patterns)
        hits = engine.search("quake", k=6)
        assert hits
        hit_ids = {hit.document.doc_id for hit in hits}
        event_ids = {doc.doc_id for doc in event_docs}
        assert hit_ids <= event_ids | {coll.document_count - 1}
        # Every returned document actually contains the term.
        for hit in hits:
            assert hit.document.frequency("quake") > 0

    def test_scores_descending(self):
        coll, _ = build_event_collection()
        patterns = STComb().mine(coll, terms=["quake"])
        engine = BurstySearchEngine(coll, patterns)
        hits = engine.search("quake", k=10)
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)

    def test_empty_query_rejected(self):
        coll, _ = build_event_collection()
        engine = BurstySearchEngine(coll, {})
        with pytest.raises(SearchError):
            engine.search("   ", k=3)

    def test_term_without_patterns_returns_nothing(self):
        coll, _ = build_event_collection()
        engine = BurstySearchEngine(coll, {})
        assert engine.search("quake", k=3) == []

    def test_multi_term_query_conjunctive(self):
        coll, event_docs = build_event_collection()
        patterns = STComb().mine(coll, terms=["quake", "damage"])
        engine = BurstySearchEngine(coll, patterns)
        hits = engine.search("quake damage", k=10)
        for hit in hits:
            assert hit.document.frequency("quake") > 0
            assert hit.document.frequency("damage") > 0

    def test_regional_patterns_work_too(self):
        coll, event_docs = build_event_collection()
        patterns = STLocal().mine(coll, terms=["quake"])
        engine = BurstySearchEngine(coll, patterns)
        hits = engine.search("quake", k=5)
        assert hits

    def test_custom_aggregate(self):
        coll, _ = build_event_collection()
        patterns = STComb().mine(coll, terms=["quake"])
        engine_max = BurstySearchEngine(coll, patterns)
        engine_min = BurstySearchEngine(coll, patterns, aggregate=min)
        assert engine_max.search("quake", k=3)
        assert engine_min.search("quake", k=3)


class TestQueryNormalization:
    """Duplicate / reordered query terms (the double-count regression)."""

    def test_duplicate_term_not_double_counted(self):
        coll, _ = build_event_collection()
        patterns = STComb().mine(coll, terms=["quake"])
        engine = BurstySearchEngine(coll, patterns)
        single = [(h.document.doc_id, h.score) for h in engine.search("quake", k=8)]
        repeated = [
            (h.document.doc_id, h.score)
            for h in engine.search("quake quake quake", k=8)
        ]
        assert repeated == single

    def test_term_order_does_not_change_results(self):
        coll, _ = build_event_collection()
        patterns = STComb().mine(coll, terms=["quake", "damage"])
        engine = BurstySearchEngine(coll, patterns)
        forward = [(h.document.doc_id, h.score) for h in engine.search("quake damage", k=8)]
        backward = [(h.document.doc_id, h.score) for h in engine.search("damage quake", k=8)]
        assert forward == backward


class TestEngineStrategies:
    def test_all_strategies_identical_through_engine(self):
        coll, _ = build_event_collection()
        patterns = STComb().mine(coll, terms=["quake", "damage"])
        engine = BurstySearchEngine(coll, patterns)
        reference = [
            (h.document.doc_id, h.score)
            for h in engine.search("quake damage", k=8, strategy="ta")
        ]
        for strategy in ("auto", "blockmax", "scan"):
            assert [
                (h.document.doc_id, h.score)
                for h in engine.search("quake damage", k=8, strategy=strategy)
            ] == reference

    def test_unknown_strategy_rejected(self):
        coll, _ = build_event_collection()
        with pytest.raises(SearchError):
            BurstySearchEngine(coll, {}, strategy="quantum")
        engine = BurstySearchEngine(coll, {})
        with pytest.raises(SearchError):
            engine.search("quake", k=3, strategy="quantum")

    def test_search_many_matches_search(self):
        coll, _ = build_event_collection()
        patterns = STComb().mine(coll, terms=["quake", "damage"])
        engine = BurstySearchEngine(coll, patterns)
        queries = ["quake", "quake damage", "damage"]
        batched = engine.search_many(queries, k=6)
        for query, results in zip(queries, batched):
            solo = engine.search(query, k=6)
            assert [(h.document.doc_id, h.score) for h in results] == [
                (h.document.doc_id, h.score) for h in solo
            ]

    def test_search_many_rejects_empty_query(self):
        coll, _ = build_event_collection()
        engine = BurstySearchEngine(coll, {})
        with pytest.raises(SearchError):
            engine.search_many(["quake", "  "], k=3)


class TestTemporalSearchEngine:
    def test_tb_ignores_location(self):
        coll, event_docs = build_event_collection()
        engine = TemporalSearchEngine(coll)
        hits = engine.search("quake", k=6)
        assert hits
        # The burst window 5-7 dominates the merged stream; retrieved
        # docs come from inside it.
        for hit in hits:
            assert 5 <= hit.document.timestamp <= 7

    def test_patterns_cached(self):
        coll, _ = build_event_collection()
        engine = TemporalSearchEngine(coll)
        first = engine.patterns_for("quake")
        second = engine.patterns_for("quake")
        assert first is second

    def test_temporal_pattern_overlap(self):
        from repro.search import TemporalPattern

        pattern = TemporalPattern("quake", Interval(5, 7), 0.5)
        assert pattern.overlaps(Document(1, "anywhere", 6, ()))
        assert not pattern.overlaps(Document(1, "anywhere", 8, ()))


def reference_postings(engine, term):
    """One term's postings, every document scored by ``score_posting``."""
    patterns = engine.patterns_for(term)
    postings = []
    for document in engine.collection.documents():
        if document.frequency(term):
            posting = score_posting(
                document, term, patterns, engine.relevance, engine.aggregate
            )
            if posting is not None:
                postings.append(posting)
    return postings


class TestServedPostingArrays:
    """Every engine path that scores postings one at a time serves a
    ``PostingArray`` reading exactly like the object-list oracle."""

    def test_reference_scorer_serves_posting_arrays(self, tmp_path):
        coll, _ = build_event_collection()
        for name, miner in (("stcomb", STComb()), ("stlocal", STLocal())):
            patterns = miner.mine(coll, terms=["quake", "damage"])
            engine = BurstySearchEngine(
                coll, patterns, relevance=reference_log_relevance
            )
            assert set(patterns) == {"quake", "damage"}
            for term in patterns:
                assert_serves_like_oracle(
                    engine._posting_list(term),
                    reference_postings(engine, term),
                    tmp_path / f"{name}-{term}",
                )

    def test_custom_aggregate_serves_posting_arrays(self, tmp_path):
        coll, _ = build_event_collection()
        patterns = STComb().mine(coll, terms=["quake", "damage"])
        engine = BurstySearchEngine(coll, patterns, aggregate=sum)
        for term in patterns:
            assert_serves_like_oracle(
                engine._posting_list(term),
                reference_postings(engine, term),
                tmp_path / term,
            )

    def test_temporal_engine_serves_posting_arrays(self, tmp_path):
        coll, _ = build_event_collection()
        engine = TemporalSearchEngine(coll)
        for term in ("quake", "filler", "absent"):
            assert_serves_like_oracle(
                engine._posting_list(term),
                reference_postings(engine, term),
                tmp_path / term,
            )
        assert engine._posting_list("quake")


class TestPostingListEdgeCases:
    def test_empty_list(self):
        plist = PostingArray.from_postings([])
        assert len(plist) == 0
        assert plist.sorted_access(0) is None
        assert plist.random_access("a") is None
        assert plist.top(3) == []
        assert list(plist) == []

    def test_truncated_empty_list(self):
        truncated = PostingArray.from_postings([]).truncated(5)
        assert len(truncated) == 0
        assert truncated.sorted_access(0) is None

    def test_truncated_depth_zero(self):
        plist = PostingArray.from_postings([Posting("a", 2.0), Posting("b", 1.0)])
        pruned = plist.truncated(0)
        # Sorted access sees nothing...
        assert pruned.sorted_access(0) is None
        assert len(pruned) == 0
        # ...but random access still resolves every original document.
        assert pruned.random_access("a") == 2.0
        assert pruned.random_access("b") == 1.0

    def test_truncated_depth_beyond_length(self):
        plist = PostingArray.from_postings([Posting("a", 2.0), Posting("b", 1.0)])
        pruned = plist.truncated(10)
        assert [p.doc_id for p in pruned] == [p.doc_id for p in plist]

    def test_truncated_keeps_best_prefix(self):
        plist = PostingArray.from_postings(
            [Posting("a", 1.0), Posting("b", 3.0), Posting("c", 2.0)]
        )
        pruned = plist.truncated(2)
        assert [p.doc_id for p in pruned] == ["b", "c"]
        assert pruned.random_access("a") == 1.0

    def test_duplicate_scores_order_deterministic(self):
        # Equal scores fall back to the hash tiebreak: any insertion
        # order must produce the same ranking.
        postings = [Posting(f"d{i}", 1.5) for i in range(8)]
        forward = PostingArray.from_postings(postings)
        backward = PostingArray.from_postings(list(reversed(postings)))
        assert [p.doc_id for p in forward] == [p.doc_id for p in backward]

    def test_truncation_with_duplicate_scores_stable(self):
        postings = [Posting(f"d{i}", 1.5) for i in range(8)]
        full_order = [p.doc_id for p in PostingArray.from_postings(postings)]
        pruned = PostingArray.from_postings(list(reversed(postings))).truncated(3)
        assert [p.doc_id for p in pruned] == full_order[:3]


class TestInvertedIndexGuards:
    def test_duplicate_add_rejected(self):
        index = InvertedIndex()
        index.add("t", [Posting("a", 1.0)])
        with pytest.raises(SearchError):
            index.add("t", [Posting("b", 2.0)])
        # The original list survives the rejected overwrite.
        assert index.get("t").random_access("a") == 1.0

    def test_explicit_replace_allowed(self):
        index = InvertedIndex()
        index.add("t", [Posting("a", 1.0)])
        index.add("t", [Posting("b", 2.0)], replace=True)
        assert index.get("t").random_access("a") is None
        assert index.get("t").random_access("b") == 2.0

    def test_discard_and_clear(self):
        index = InvertedIndex()
        index.add("t", [Posting("a", 1.0)])
        index.add("u", [Posting("b", 1.0)])
        assert index.discard("t") is True
        assert index.discard("t") is False
        index.clear()
        assert len(index) == 0


class TestEngineStalenessRegressions:
    """The build-once engines must notice collection mutations.

    Before the fix, posting lists, ``_doc_map`` and the TB pattern
    cache were built once and served forever: a document appended after
    the first query was invisible (or worse, inconsistently visible).
    """

    def test_bursty_engine_sees_documents_added_after_first_query(self):
        coll, _ = build_event_collection()
        patterns = STComb().mine(coll, terms=["quake"])
        engine = BurstySearchEngine(coll, patterns)
        before = engine.search("quake", k=20)
        # A very heavy on-event document lands inside the mined window.
        new_doc = Document(
            9999, "s0", 6, ("quake",) * 12, event_id=1
        )
        coll.add_document(new_doc)
        after = engine.search("quake", k=20)
        assert 9999 in {hit.document.doc_id for hit in after}
        assert 9999 not in {hit.document.doc_id for hit in before}

    def test_doc_map_refreshed_not_just_postings(self):
        coll, _ = build_event_collection()
        patterns = STComb().mine(coll, terms=["quake"])
        engine = BurstySearchEngine(coll, patterns)
        engine.search("quake", k=5)  # builds the doc map
        coll.add_document(Document(9999, "s1", 6, ("quake", "quake")))
        # Before the fix this raised KeyError (stale _doc_map) or
        # silently omitted the new document (stale postings).
        hits = engine.search("quake", k=50)
        assert any(hit.document.doc_id == 9999 for hit in hits)

    def test_precompute_after_mutation_rebuilds(self):
        coll, _ = build_event_collection()
        patterns = STComb().mine(coll, terms=["quake"])
        engine = BurstySearchEngine(coll, patterns, precompute=True)
        coll.add_document(Document(9999, "s0", 6, ("quake",) * 3, event_id=1))
        built = engine.precompute()
        assert built >= 1  # the stale index was dropped and rebuilt
        hits = engine.search("quake", k=50)
        assert any(hit.document.doc_id == 9999 for hit in hits)

    def test_temporal_engine_pattern_cache_invalidated(self):
        coll, _ = build_event_collection()
        engine = TemporalSearchEngine(coll)
        stale_patterns = engine.patterns_for("quake")
        doc_id = 10_000
        # A bigger burst later in the timeline changes the merged
        # sequence and thus the detected temporal patterns.
        for t in (9, 10):
            for _ in range(12):
                coll.add_document(Document(doc_id, "s2", t, ("quake", "quake")))
                doc_id += 1
        fresh_patterns = engine.patterns_for("quake")
        assert fresh_patterns != stale_patterns
        hits = engine.search("quake", k=10)
        assert any(hit.document.timestamp in (9, 10) for hit in hits)

    def test_unchanged_collection_keeps_caches(self):
        coll, _ = build_event_collection()
        engine = TemporalSearchEngine(coll)
        first = engine.patterns_for("quake")
        engine.search("quake", k=3)
        assert engine.patterns_for("quake") is first  # still cached


def _quake_engine():
    coll, _ = build_event_collection()
    return BurstySearchEngine(coll, STComb().mine(coll, terms=["quake"]))


def _boom_live_engine():
    from repro.core.config import STLocalConfig
    from repro.live import LiveCollection, LiveSearchEngine

    live = LiveCollection(12)
    for i, sid in enumerate(("s0", "s1", "s2")):
        live.add_stream(sid, Point(float(i), 0.0))
    doc_id = 0
    for t in range(10):
        docs = []
        for sid in ("s0", "s1") if 6 <= t <= 8 else ():
            docs.append(Document(doc_id, sid, t, ("boom", "boom")))
            doc_id += 1
        live.ingest_snapshot(t, docs)
    return LiveSearchEngine(live, config=STLocalConfig(warmup=2))


_K_LISTS = [
    PostingArray.from_postings([Posting(d, float(10 - d)) for d in range(6)]),
    PostingArray.from_postings([Posting(d, float(d)) for d in range(1, 7)]),
]


def _topk_with(strategy):
    return lambda k: topk(_K_LISTS, k, strategy)


#: One callable per top-k entry point: ``call(k)`` serves a query.
K_ENTRY_POINTS = {
    **{f"topk[{name}]": _topk_with(name) for name in STRATEGIES},
    "threshold_topk": lambda k: threshold_topk(_K_LISTS, k),
    "blockmax_topk": lambda k: blockmax_topk(_K_LISTS, k),
    "scan_topk": lambda k: scan_topk(_K_LISTS, k),
    "exhaustive_topk": lambda k: exhaustive_topk(_K_LISTS, k),
    "BurstySearchEngine.search": lambda k: _quake_engine().search(
        "quake", k=k
    ),
    "LiveSearchEngine.search": lambda k: _boom_live_engine().search(
        "boom", k=k
    ),
}


class TestTopKArgument:
    """``k`` must be a positive integer at every top-k entry point.

    Non-integral ``k`` used to leak builtin errors that differed by
    strategy (``scan`` raised ``TypeError`` on ``2.5`` where ``ta`` and
    ``blockmax`` answered 3 results; NaN raised ``IndexError``)."""

    @pytest.mark.parametrize("entry", sorted(K_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "k", [2.5, float("nan"), "3", None, 0, -1, 3.0],
        ids=["2.5", "nan", "str", "None", "0", "-1", "3.0"],
    )
    def test_bad_k_raises_search_error(self, entry, k):
        with pytest.raises(SearchError):
            K_ENTRY_POINTS[entry](k)

    @pytest.mark.parametrize("entry", sorted(K_ENTRY_POINTS))
    def test_integer_like_k_accepted(self, entry):
        import numpy as np

        def ranking(answer):
            results = answer[0] if isinstance(answer, tuple) else answer
            return [
                (r.doc_id if hasattr(r, "doc_id") else r.document.doc_id,
                 r.score)
                for r in results
            ]

        call = K_ENTRY_POINTS[entry]
        two = ranking(call(2))
        assert len(two) == 2
        assert ranking(call(np.int64(2))) == two
        assert ranking(call(True)) == two[:1]

    def test_live_cache_hit_does_not_bypass_k_check(self):
        engine = _boom_live_engine()
        assert engine.search("boom", k=3)
        with pytest.raises(SearchError):
            engine.search("boom", k=3.0)
