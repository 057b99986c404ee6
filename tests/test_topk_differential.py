"""Differential suite: every top-k strategy returns the identical ranking.

Pins ``threshold_topk`` (reference TA) == ``blockmax_topk`` ==
``scan_topk`` == ``topk(..., "auto")`` == ``exhaustive_topk`` over
random workloads spanning:

* the shipped ``PostingArray`` and the object ``PostingList`` oracle
  mixed within one query (the vectorized strategies read each oracle
  list through the array serving exactly its postings);
* truncated (pruned-prefix) lists, where random access answers for
  documents sorted access no longer reaches, including depth-0 pruning
  and the exhausted-list threshold-bound regression;
* heavy score ties (small integer scores) exercising the deterministic
  ``crc32`` tiebreak, negative scores, and k beyond the candidate set;
* integer ids (the kernel's fully vectorized path) and string/mixed
  ids (the dict-gather fallback);
* hand-built tiebreaks that force equal ``(score, tiebreak)`` keys, on
  in-memory lists and on lists reloaded from a packed store, pinning
  the scan's rank-order tie rule and its partial top-k select.

"Identical" is exact: same document ids, same floating-point score
bits, same order.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.postings import PostingArray
from repro.errors import SearchError
from repro.search.inverted_index import random_access_map
from repro.store.format import SegmentReader, SegmentWriter
from repro.store.segments import PostingSegment, encode_posting_lists
from repro.search import (
    Posting,
    blockmax_topk,
    exhaustive_topk,
    normalize_query_terms,
    scan_topk,
    threshold_topk,
    topk,
    topk_many,
)

from oracles.postings import PostingList, as_posting_array


def ranking(results):
    return [(result.doc_id, result.score) for result in results]


def assert_all_strategies_agree(lists, k, blocks=(1, 3, 64)):
    """Every strategy — and ``auto`` — must agree exactly."""
    reference = ranking(exhaustive_topk(lists, k))
    ta, _ = threshold_topk(lists, k)
    assert ranking(ta) == reference
    lists = [as_posting_array(plist) for plist in lists]
    ta, _ = threshold_topk(lists, k)
    assert ranking(ta) == reference
    for block in blocks:
        blockmax, _ = blockmax_topk(lists, k, block=block)
        assert ranking(blockmax) == reference, f"block={block}"
    scan, _ = scan_topk(lists, k)
    assert ranking(scan) == reference
    auto, stats = topk(lists, k, "auto")
    assert ranking(auto) == reference
    assert stats.planned and stats.strategy == "scan"
    return reference


def build_lists(spec, rng, id_pool=None):
    """Posting lists from ``spec`` (one doc→score dict per list).

    Randomly mixes ``PostingList``/``PostingArray`` containers and
    truncation depths, mirroring what the engines and the live index
    can serve.
    """
    lists = []
    for entries in spec:
        docs = list(entries)
        if id_pool is not None:
            docs = [id_pool[doc % len(id_pool)] for doc in docs]
            entries = dict(zip(docs, entries.values()))
        postings = [Posting(doc, score) for doc, score in entries.items()]
        if rng.random() < 0.5:
            plist = PostingArray(
                [p.doc_id for p in postings], [p.score for p in postings]
            )
        else:
            plist = PostingList(postings)
        if len(plist) and rng.random() < 0.4:
            plist = plist.truncated(rng.randint(0, len(plist)))
        lists.append(plist)
    return lists


_SPEC = st.lists(
    st.dictionaries(
        st.integers(0, 25),
        # Small integer scores force heavy ties; negatives included.
        st.integers(-4, 7).map(float),
        max_size=14,
    ),
    min_size=1,
    max_size=4,
)


class TestDifferential:
    @settings(max_examples=120, deadline=None)
    @given(_SPEC, st.integers(1, 8), st.randoms(use_true_random=False))
    def test_integer_ids(self, spec, k, rng):
        assert_all_strategies_agree(build_lists(spec, rng), k)

    @settings(max_examples=80, deadline=None)
    @given(_SPEC, st.integers(1, 8), st.randoms(use_true_random=False))
    def test_string_and_mixed_ids(self, spec, k, rng):
        """Non-integer ids exercise the dict-gather fallback path."""
        pool = ["a", "b", "cc", "d0", "e", "f9", 31, 45, "g", "h7"]
        assert_all_strategies_agree(
            build_lists(spec, rng, id_pool=pool), k
        )

    @settings(max_examples=60, deadline=None)
    @given(
        _SPEC,
        st.integers(1, 6),
        st.floats(0.0, 10.0, allow_nan=False),
        st.randoms(use_true_random=False),
    )
    def test_float_scores(self, spec, k, jitter, rng):
        spec = [
            {doc: score + jitter * (doc % 3) for doc, score in entries.items()}
            for entries in spec
        ]
        assert_all_strategies_agree(build_lists(spec, rng), k)


class TestRegressions:
    def test_exhausted_pruned_list_keeps_bounding(self):
        """The PR-1 stopping-rule regression, now pinned across every
        strategy: a pruned list's final score must stay in the bound."""
        full = PostingList([Posting("x", 10.0), Posting("y", 9.0)])
        pruned = full.truncated(1)
        other = PostingList(
            [
                Posting("d1", 3.0),
                Posting("d2", 2.9),
                Posting("y", 2.5),
                Posting("x", 0.1),
            ]
        )
        reference = assert_all_strategies_agree([pruned, other], 1)
        assert reference == [("y", 11.5)]

    def test_depth_zero_truncation_random_access_only(self):
        """A depth-0 pruned list exposes nothing to sorted access but
        still scores candidates discovered in the other lists."""
        hidden = PostingArray([1, 2], [2.0, 1.0]).truncated(0)
        visible = PostingArray([1, 2, 3], [5.0, 4.0, 3.0])
        reference = assert_all_strategies_agree([hidden, visible], 3)
        assert [doc for doc, _ in reference] == [1, 2]

    def test_kth_score_tie_resolved_by_tiebreak(self):
        """An unseen document tying the k-th aggregate can still win
        the crc32 tiebreak — every strategy must agree."""
        from repro.search.inverted_index import rank_tiebreak

        pool = sorted((f"doc{i}" for i in range(200)), key=rank_tiebreak)
        b1, b2, a2, a3, y, w = (*pool[:5], pool[-1])
        list_a = PostingList(
            [Posting(w, 5.0), Posting(a2, 3.0), Posting(a3, 3.0), Posting(y, 3.0)]
        )
        list_b = PostingList(
            [Posting(b1, 3.0), Posting(b2, 3.0), Posting(y, 3.0), Posting(w, 1.0)]
        )
        reference = assert_all_strategies_agree([list_a, list_b], 1)
        assert [doc for doc, _ in reference] == [y]

    def test_empty_list_excludes_everything(self):
        lists = [
            PostingArray([], []),
            PostingArray([1, 2], [2.0, 1.0]),
        ]
        assert assert_all_strategies_agree(lists, 3) == []

    def test_duplicate_ids_within_a_list(self):
        """Dict semantics (last sorted occurrence wins) hold across
        containers and strategies."""
        lists = [
            PostingArray([3, 3, 1], [5.0, 2.0, 4.0]),
            PostingList([Posting(3, 1.0), Posting(1, 1.0)]),
        ]
        assert_all_strategies_agree(lists, 3)

    def test_single_list_k_beyond_length(self):
        lists = [PostingArray([5, 6, 7], [3.0, 2.0, 1.0])]
        reference = assert_all_strategies_agree(lists, 10)
        assert len(reference) == 3

    def test_conjunctive_intersection_smaller_than_k(self):
        """TA's full-exhaustion case: fewer survivors than k."""
        lists = [
            PostingArray(list(range(0, 40)), [float(40 - i) for i in range(40)]),
            PostingArray(
                list(range(38, 78)), [float(78 - i) for i in range(38, 78)]
            ),
        ]
        reference = assert_all_strategies_agree(lists, 10)
        assert len(reference) == 2  # docs 38, 39 only


class TestDispatchAndPlanner:
    def test_unknown_strategy_rejected(self):
        lists = [PostingArray([1], [1.0])]
        with pytest.raises(SearchError):
            topk(lists, 1, "quantum")

    def test_invalid_k_and_empty_lists(self):
        lists = [PostingArray([1], [1.0])]
        with pytest.raises(SearchError):
            topk(lists, 0)
        with pytest.raises(SearchError):
            topk([], 1)
        with pytest.raises(SearchError):
            blockmax_topk(lists, 1, block=0)

    def test_explicit_strategies_run_what_was_asked(self):
        lists = [PostingArray(list(range(50)), [float(i) for i in range(50)])]
        for name in ("ta", "blockmax", "scan"):
            _, stats = topk(lists, 3, name)
            assert stats.strategy == name
            assert not stats.planned

    @staticmethod
    def assert_auto_runs_scan(lists, k):
        """``auto`` is ``scan``, reported as planned."""
        results, stats = topk(lists, k)
        assert stats.strategy == "scan"
        assert stats.planned
        assert ranking(results) == ranking(scan_topk(lists, k)[0])

    def test_planner_prefers_scan_for_small_inputs(self):
        lists = [PostingArray([1, 2, 3], [3.0, 2.0, 1.0])] * 2
        self.assert_auto_runs_scan(lists, 2)

    def test_planner_prefers_scan_for_large_k(self):
        n = 4000
        lists = [PostingArray(list(range(n)), [float(i) for i in range(n)])]
        self.assert_auto_runs_scan(lists, n // 2)

    def test_auto_runs_scan_for_selective_deep_queries(self):
        """Deep lists and a selective ``k`` once routed ``auto`` to
        ``blockmax``; measured, ``scan`` wins there too."""
        n = 4000
        lists = [
            PostingArray(list(range(n)), [float(i) for i in range(n)])
            for _ in range(2)
        ]
        self.assert_auto_runs_scan(lists, 5)

    def test_auto_runs_scan_for_truncated_lists(self):
        """Deeply pruned lists look tiny by visible ``len()`` while the
        scan gathers against their full random-access relation;
        ``auto`` runs ``scan`` either way."""
        visible, full = 1000, 30000
        lists = [
            PostingArray(
                list(range(full)), [float(full - i) for i in range(full)]
            ).truncated(visible)
            for _ in range(2)
        ]
        assert len(lists[0]) == visible
        self.assert_auto_runs_scan(lists, 5)

    def test_topk_many_matches_per_query_topk(self):
        shared = PostingArray(
            list(range(300)), [float((i * 17) % 101) for i in range(300)]
        )
        other = PostingArray(
            list(range(0, 300, 2)), [float((i * 29) % 97) for i in range(150)]
        )
        queries = [[shared, other], [shared], [other, shared]]
        batched = topk_many(queries, 5)
        for lists, (results, _) in zip(queries, batched):
            solo, _ = topk(lists, 5)
            assert ranking(results) == ranking(solo)

    def test_normalize_query_terms(self):
        assert normalize_query_terms(["b", "a", "b", "a"]) == ("a", "b")
        assert normalize_query_terms([]) == ()


class TestExhaustiveSemantics:
    """The single-pass ``exhaustive_topk`` rewrite keeps the original
    exclude-if-missing-anywhere semantics."""

    def test_hidden_document_still_scored_via_random_access(self):
        pruned = PostingList(
            [Posting("a", 9.0), Posting("b", 8.0)]
        ).truncated(1)  # "b" hidden from sorted access, map intact
        other = PostingList([Posting("b", 5.0), Posting("a", 1.0)])
        results = exhaustive_topk([pruned, other], 2)
        assert ranking(results) == [("b", 13.0), ("a", 10.0)]

    def test_document_missing_from_one_list_excluded(self):
        lists = [
            PostingList([Posting("a", 9.0), Posting("b", 1.0)]),
            PostingList([Posting("b", 1.0), Posting("c", 9.0)]),
        ]
        results = exhaustive_topk(lists, 5)
        assert ranking(results) == [("b", 2.0)]

    def test_hidden_everywhere_is_not_a_candidate(self):
        """A document visible to no list's sorted access never surfaces,
        even though every random-access map knows it."""
        lists = [
            PostingList([Posting("a", 5.0), Posting("b", 4.0)]).truncated(1),
            PostingList([Posting("b", 9.0), Posting("a", 1.0)]).truncated(1),
        ]
        # "a" is visible in list 0; "b" is visible in list 1; both are
        # candidates here.  Truncate deeper to hide "b" everywhere:
        deeper = [
            PostingList([Posting("a", 5.0), Posting("b", 4.0)]).truncated(1),
            PostingList([Posting("a", 1.0), Posting("b", 0.5)]).truncated(1),
        ]
        results = exhaustive_topk(deeper, 5)
        assert ranking(results) == [("a", 6.0)]


def packed_copies(lists, directory):
    """The same lists, saved to and reloaded from a packed store."""
    terms = {f"t{index}": plist for index, plist in enumerate(lists)}
    writer = SegmentWriter(str(directory))
    encode_posting_lists(writer, "postings", terms, codec="packed")
    writer.commit("index")
    segment = PostingSegment(SegmentReader(str(directory)), "postings")
    return [segment.posting_array(term) for term in terms]


def driver_rank_reference(lists, k):
    """The scan's documented order on unpruned lists, in plain Python.

    Survivors are the first shortest list's postings present in every
    list, summed in list order from ``0.0``, ranked by ``(-total,
    tiebreak, rank in that list)``.
    """
    lead = min(lists, key=len)
    ids, _, ties = lead.columns()
    maps = [random_access_map(plist) for plist in lists]
    rows = []
    for rank, doc in enumerate(ids):
        if all(doc in by_doc for by_doc in maps):
            total = 0.0
            for by_doc in maps:
                total += by_doc[doc]
            rows.append((-total, int(ties[rank]), rank, doc, total))
    rows.sort()
    return [(doc, total) for _, _, _, doc, total in rows[:k]]


_TIED_SPEC = st.lists(
    st.dictionaries(
        st.integers(0, 30), st.integers(-1, 3).map(float), max_size=20
    ),
    min_size=1,
    max_size=4,
)


class TestScanKernel:
    """The scan's sorted-driver intersection and partial select, checked
    against ``threshold_topk`` and a plain-Python model of its order."""

    @settings(max_examples=80, deadline=None)
    @given(
        _TIED_SPEC,
        st.integers(-2, 2),
        st.sampled_from(["crc32", "mod3", "zero"]),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_scan_matches_reference(
        self, tmp_path_factory, spec, k_offset, ties, truncate, rng
    ):
        tie_of = {
            "crc32": None,
            "mod3": lambda doc: doc % 3,
            "zero": lambda doc: 0,
        }[ties]
        lists = []
        for entries in spec:
            docs = list(entries)
            lists.append(
                PostingArray(
                    docs,
                    [entries[doc] for doc in docs],
                    tiebreaks=None if tie_of is None else [tie_of(d) for d in docs],
                )
            )
        if truncate:
            lists = [
                plist.truncated(rng.randint(0, len(plist)))
                if len(plist) and rng.random() < 0.5
                else plist
                for plist in lists
            ]
        # k below, at and above the number of survivors (0 when the
        # intersection is empty).
        survivors = len(exhaustive_topk(lists, 10_000))
        k = max(1, survivors + k_offset)
        packed = packed_copies(lists, tmp_path_factory.mktemp("scan"))

        expected, _ = threshold_topk(lists, k)
        in_memory, _ = scan_topk(lists, k)
        from_store, _ = scan_topk(packed, k)
        assert ranking(from_store) == ranking(in_memory)
        if tie_of is None:
            # Real tiebreaks: byte-identical to the reference TA.
            assert ranking(in_memory) == ranking(expected)
            return
        # Hand-built ties: TA breaks them by crc32 of the id, so only
        # the score sequence and the documents above the k-th score are
        # shared; the scan's full order is pinned by the model.
        assert [r.score for r in in_memory] == [r.score for r in expected]
        if expected:
            cut = expected[-1].score
            assert {r.doc_id for r in in_memory if r.score > cut} == {
                r.doc_id for r in expected if r.score > cut
            }
        if not truncate:
            assert ranking(in_memory) == driver_rank_reference(lists, k)

    def test_equal_keys_keep_driver_rank_order(self):
        """Equal totals and equal tiebreaks: the shortest list's rank
        order decides, on both sides of the k-th-total cut."""
        lead = PostingArray(
            [9, 4, 7, 1, 3], [2.0, 2.0, 2.0, 1.0, 1.0], tiebreaks=[0] * 5,
            presorted=True,
        )
        other = PostingArray(
            list(range(12)), [1.0] * 12, tiebreaks=[0] * 12
        )
        lists = [other, lead]
        for k in range(1, 7):
            results, _ = scan_topk(lists, k)
            assert [r.doc_id for r in results] == [9, 4, 7, 1, 3][:k]
            assert ranking(results) == driver_rank_reference(lists, k)

    def test_empty_intersection_from_packed_store(self, tmp_path):
        lists = [
            PostingArray([1, 2, 3], [3.0, 2.0, 1.0]),
            PostingArray([4, 5], [2.0, 1.0]),
        ]
        for plists in (lists, packed_copies(lists, tmp_path)):
            for k in (1, 2, 5):
                assert scan_topk(plists, k)[0] == []

    def test_nan_cut_falls_back_to_full_sort(self):
        """Fewer than k comparable totals: the NaN rows rank last."""
        nan = float("nan")
        lists = [
            PostingArray([1, 2, 3, 4], [nan, 3.0, nan, 1.0]),
            PostingArray([1, 2, 3, 4], [1.0, 1.0, 1.0, 1.0]),
        ]
        results, _ = scan_topk(lists, 3)
        assert [r.doc_id for r in results[:2]] == [2, 4]
        assert [r.score for r in results[:2]] == [4.0, 2.0]
        assert len(results) == 3 and math.isnan(results[2].score)
