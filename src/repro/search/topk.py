"""Vectorized top-k execution over posting lists (Section 5 serving).

The paper serves Eq. 10 aggregation with Fagin's Threshold Algorithm;
:func:`repro.search.threshold_algorithm.threshold_topk` is the faithful
depth-at-a-time reference.  Its costs are per-posting Python work: one
``Posting`` materialisation per sorted access and one ``random_access``
dict probe per list per newly-seen document.  When the posting lists
already live in columnar :class:`~repro.columnar.postings.PostingArray`
segments, that work is the serving-path bottleneck.

This module is the columnar counterpart: three interchangeable
strategies that return **byte-identical rankings** (same documents,
same floating-point scores, same deterministic tiebreak order).
``auto`` runs ``scan``.

* ``scan`` — a full vectorized scan: the shortest list's sorted doc-id
  index drives the intersection, scores are masked and summed in one
  shot, and a partial select cuts survivors to the k-th total.
* ``blockmax`` — block-at-a-time TA: sorted accesses are consumed in
  array blocks, the stopping threshold is bounded by each block's final
  (minimum) score, and newly-seen candidates resolve their full
  aggregates in one vectorized gather per list against a precomputed
  doc-id→row index instead of per-document dict probes.
* ``ta`` — the reference round-robin Threshold Algorithm, unchanged.

Exactness notes:

* per-document aggregates are accumulated in list order starting from
  ``0.0``, reproducing ``_full_score``'s floating-point sums bit for
  bit (IEEE-754 addition is commutative but not associative — the
  *order* is what must match);
* candidate documents are those visible to *sorted* access somewhere,
  resolved through each list's *random* access relation — the exact
  semantics of TA over pruned (:meth:`~repro.columnar.postings.
  PostingArray.truncated`) lists, where random access still answers for
  documents sorted access no longer reaches;
* the blockmax stopping rule is TA's strict rule at block granularity:
  an exhausted list keeps bounding unseen documents by its final
  sorted score (``+inf`` if it never yielded), and the run only stops
  once the k-th aggregate *strictly* beats the threshold.

Integer document ids (the engines' common case) take a fully
vectorized path: the doc-id→row index is a sorted ``int64`` key array
built with ``np.asarray``/``argsort`` straight from the posting
columns — no Python-level dict construction — and candidate batches
resolve with ``searchsorted`` gathers.  ``bool`` ids coerce to their
integer values, which matches dict semantics exactly (``hash(True) ==
hash(1)``, so the reference path already aliases them).  Other id
types (strings, tuples, oversized ints) fall back to a dict-probe
gather per candidate batch; the aggregation, masking and ranking stay
vectorized either way.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.columnar.postings import PostingArray
from repro.errors import SearchError
from repro.search.inverted_index import random_access_map
from repro.search.threshold_algorithm import (
    TopKResult,
    threshold_topk,
    validate_topk_args,
)

__all__ = [
    "STRATEGIES",
    "TopKStats",
    "blockmax_topk",
    "normalize_query_terms",
    "scan_topk",
    "topk",
    "topk_many",
]

#: Strategy names accepted by :func:`topk` and the engines.
STRATEGIES = ("auto", "ta", "blockmax", "scan")

#: Sorted accesses consumed per list per blockmax round.  Large enough
#: that per-round kernel-dispatch overhead amortises, small enough that
#: overshooting TA's exact stopping depth stays cheap.
DEFAULT_BLOCK = 1024

_MISSING = object()


def normalize_query_terms(terms: Iterable[str]) -> Tuple[str, ...]:
    """Canonical query-term tuple: deduplicated and sorted.

    Duplicated query terms used to contribute their posting score once
    per occurrence, silently double-counting them in the Eq. 10
    aggregate; deduplication restores one-score-per-term.  Sorting
    makes the tuple order-insensitive, so ``"air france"`` and
    ``"france air"`` share a result-cache key *and* an aggregate
    evaluation order (floating-point sums depend on it).
    """
    return tuple(sorted(set(terms)))


@dataclasses.dataclass(frozen=True)
class TopKStats:
    """Execution metadata for one :func:`topk` call.

    Attributes:
        strategy: The strategy that actually ran (``auto`` resolved).
        planned: True for ``auto`` (the strategy was resolved, not
            named by the caller).
        sorted_accesses: Postings consumed through sorted access.
        degraded_terms: Query terms whose posting columns were
            quarantined by degraded-mode serving (empty outside
            ``on_corruption="degrade"``); their contribution to the
            ranking is an empty posting list, so scores for documents
            that matched only those terms are missing from the result.
    """

    strategy: str
    planned: bool
    sorted_accesses: int
    degraded_terms: Tuple[str, ...] = ()


def _int_keys(ids) -> Optional[np.ndarray]:
    """Ids as exact ``int64`` keys, or ``None`` when not losslessly so.

    ``np.asarray`` over a list of Python ints is a single C-level pass;
    a signed-integer or bool result proves every id was an
    int64-representable int (or a bool, which dicts already alias to
    its integer value).  Unsigned means an id above ``2**63 - 1`` —
    castable only with wraparound, so it is rejected; floats, strings,
    mixed and object dtypes are rejected outright.
    """
    try:
        arr = np.asarray(ids)
    except (ValueError, OverflowError):
        return None
    if arr.ndim != 1 or len(arr) != len(ids):
        return None
    if arr.dtype.kind == "i" or arr.dtype.kind == "b":
        return arr.astype(np.int64, copy=False)
    return None


class _LazyScoreColumn:
    """Rank-order score reads against packed blocks, decode-on-touch.

    Serves the two access shapes block-max TA makes against a score
    column — a single rank (``col.scores[hi - 1]``, the block-frontier
    bound) and a contiguous prefix slice — without ever materialising
    the full column.  Frontier reads on packed-block boundaries are
    answered straight from the stored block headers, costing no decode
    at all.
    """

    __slots__ = ("_source",)

    def __init__(self, source) -> None:
        self._source = source

    def __len__(self) -> int:
        return int(self._source.length)

    def __getitem__(self, item):
        if isinstance(item, slice):
            lo = 0 if item.start is None else int(item.start)
            hi = (
                int(self._source.length)
                if item.stop is None
                else int(item.stop)
            )
            return self._source.scores_slice(lo, hi)
        return self._source.score_at(int(item))


class _LazyTieColumn:
    """Rank-order tiebreak reads against packed blocks (slices only)."""

    __slots__ = ("_source",)

    def __init__(self, source) -> None:
        self._source = source

    def __len__(self) -> int:
        return int(self._source.length)

    def __getitem__(self, item):
        if isinstance(item, slice):
            lo = 0 if item.start is None else int(item.start)
            hi = (
                int(self._source.length)
                if item.stop is None
                else int(item.stop)
            )
            return self._source.ties_slice(lo, hi)
        return int(self._source.ties_slice(int(item), int(item) + 1)[0])


class _Columns:
    """Cached columnar view of one posting list.

    Two faces of the same list:

    * the *sorted-visible* columns (``ids`` / ``scores`` / ``ties``) —
      what sorted access iterates, in rank order;
    * the *random-access index* — every (document, score) pair
      :meth:`~repro.columnar.postings.PostingArray.random_access`
      would answer, keyed for vectorized gathers.

    For a non-pruned :class:`~repro.columnar.postings.PostingArray`
    the random-access relation *is* the sorted columns, so the index
    is one ``argsort`` over the int64 id keys (kept as ``_map_order``,
    key slot → rank) — no dict is ever built.  Pruned lists (random
    access outlives sorted visibility) and non-integer ids fall back to
    the list's random-access dict.

    A :class:`~repro.columnar.postings.PackedPostingArray` keeps its
    score/tiebreak columns *packed*: ``scores``/``ties`` become lazy
    block-decoding views and the index has no gathered score column,
    so gathers decode only the blocks that hold actual hits.
    Strategies that touch every posting anyway (:func:`scan_topk`) call
    :meth:`densify` first.
    """

    __slots__ = (
        "ids",
        "scores",
        "ties",
        "exact",
        "map_is_columns",
        "_plist",
        "_packed",
        "_by_doc",
        "_keys",
        "_map_keys",
        "_map_scores",
        "_map_order",
    )

    def __init__(self, posting_list: PostingArray) -> None:
        source = getattr(posting_list, "packed", None)
        self._packed = source
        if source is not None:
            # Packed list: ids decode once (the index needs every key);
            # scores and ties stay block-lazy behind rank-order views.
            self.ids: Sequence[Hashable] = source.ids()
            self.scores = _LazyScoreColumn(source)
            self.ties = _LazyTieColumn(source)
        else:
            ids, scores, ties = posting_list.columns()
            self.ids = ids
            self.scores = np.asarray(scores, dtype=float)
            self.ties = np.asarray(ties, dtype="<i8")
        self._plist = posting_list
        self._by_doc: Optional[Dict[Hashable, float]] = None
        keys = _int_keys(self.ids)
        self._keys = keys
        self.exact = keys is not None
        self.map_is_columns = False
        self._map_keys: Optional[np.ndarray] = None
        self._map_scores: Optional[np.ndarray] = None
        self._map_order: Optional[np.ndarray] = None
        if keys is not None and self._columns_are_map():
            order = np.argsort(keys, kind="stable")
            map_keys = keys[order]
            if map_keys.size and bool(np.any(map_keys[1:] == map_keys[:-1])):
                # Duplicate ids inside one list: dict semantics keep the
                # *last* sorted occurrence — delegate to the dict.
                self.exact = False
            else:
                self.map_is_columns = True
                self._map_keys = map_keys
                self._map_order = order
                # Rank-order keys: the scan never reads them (rebuilt
                # on demand for blockmax and the union scan).
                self._keys = None
                if source is None:
                    # Packed lists skip the gathered copy: their gathers
                    # resolve hit slots through block-granular decode.
                    self._map_scores = self.scores[order]
        elif self.exact:
            # Pruned list: random access answers beyond the visible
            # prefix, so the index comes from the dict relation.
            by_doc = self.by_doc
            map_keys = _int_keys(list(by_doc))
            if map_keys is None:
                self.exact = False
            else:
                map_scores = np.fromiter(
                    by_doc.values(), dtype=float, count=len(by_doc)
                )
                order = np.argsort(map_keys, kind="stable")
                self._map_keys = map_keys[order]
                self._map_scores = map_scores[order]

    def _columns_are_map(self) -> bool:
        """True when the sorted columns cover the random-access relation.

        A list whose lazy dict was never *seeded* (pruning and the store
        load path seed it wholesale) answers random access exactly from
        its columns; a seeded dict covers the columns, so equal sizes
        prove the visible prefix is the whole relation.
        """
        lazy = self._plist._by_doc_lazy
        return lazy is None or len(lazy) == len(self.ids)

    @property
    def keys(self) -> Optional[np.ndarray]:
        """The ids as ``int64`` keys in rank order (``None`` unless ints)."""
        if self._keys is None and self._map_order is not None:
            keys = np.empty_like(self._map_keys)
            keys[self._map_order] = self._map_keys
            self._keys = keys
        return self._keys

    @property
    def by_doc(self) -> Dict[Hashable, float]:
        """The list's random-access dict (built/fetched on first use)."""
        if self._by_doc is None:
            self._by_doc = random_access_map(self._plist)
        return self._by_doc

    def __len__(self) -> int:
        return len(self.ids)

    def densify(self) -> None:
        """Materialise packed columns in full (exhaustive strategies).

        A no-op on already-dense views.  The scan touches every posting
        by construction, so lazy block decode would only add overhead —
        one bulk decode up front restores plain ndarray columns (and
        the gathered map-score column the fast scan path indexes).
        """
        source = self._packed
        if source is None:
            return
        self.scores = np.asarray(source.scores(), dtype=float)
        self.ties = np.asarray(source.ties(), dtype="<i8")
        if self._map_order is not None and self._map_scores is None:
            self._map_scores = self.scores[self._map_order]

    def gather(
        self, cand_ids: Sequence[Hashable], cand_keys: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Random-access scores for a candidate batch.

        Returns ``(scores, found)``; ``scores`` is meaningful only
        where ``found`` is True.
        """
        n = len(cand_ids) if cand_keys is None else int(cand_keys.size)
        if self.exact and cand_keys is not None:
            if self._map_keys.size == 0:
                return np.zeros(n), np.zeros(n, dtype=bool)
            pos = np.searchsorted(self._map_keys, cand_keys)
            pos = np.minimum(pos, self._map_keys.size - 1)
            found = self._map_keys[pos] == cand_keys
            if self._map_scores is None and self._map_order is not None:
                # Packed list: decode only the blocks holding hits.
                out = np.zeros(n)
                if bool(found.any()):
                    slots = self._map_order[pos[found]]
                    out[found] = self._packed.scores_take(slots)
                return out, found
            return self._map_scores[pos], found
        scores = np.zeros(n)
        found = np.zeros(n, dtype=bool)
        get = self.by_doc.get
        for index, doc_id in enumerate(cand_ids):
            value = get(doc_id, _MISSING)
            if value is not _MISSING:
                scores[index] = value
                found[index] = True
        return scores, found


def _columns(posting_list: PostingArray) -> _Columns:
    """The list's cached columnar view (built on first use).

    The cache rides on the posting-list object itself: posting lists
    are immutable once registered, and the engines replace — never
    mutate — them on invalidation, so object identity is a sound cache
    key.  This is also what ``topk_many`` amortises: every query that
    touches the same term reuses the same materialised columns.
    """
    cached = getattr(posting_list, "_topk_columns", None)
    if cached is None:
        cached = _Columns(posting_list)
        posting_list._topk_columns = cached
    return cached


def _aggregate(
    cols: Sequence[_Columns],
    cand_ids: Sequence[Hashable],
    cand_keys: Optional[np.ndarray],
    driver: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Summed scores + everywhere-present mask for a candidate batch.

    Per-list contributions are added in list order starting from
    ``0.0`` — the bit-exact order of the reference ``_full_score``.
    When ``driver`` names the list whose sorted keys *are* the
    candidates, its map-score column is added directly.
    """
    n = len(cand_ids) if cand_keys is None else int(cand_keys.size)
    totals = np.zeros(n)
    keep = np.ones(n, dtype=bool)
    for index, col in enumerate(cols):
        if driver is not None and index == driver:
            totals = totals + col._map_scores
            continue
        scores, found = col.gather(cand_ids, cand_keys)
        keep &= found
        totals = totals + np.where(found, scores, 0.0)
    return totals, keep


def _ranked(
    ids: Sequence[Hashable],
    totals: np.ndarray,
    ties: np.ndarray,
    keep: np.ndarray,
    k: int,
    order: Optional[np.ndarray] = None,
) -> List[TopKResult]:
    """Top-k of the surviving candidates by ``(-score, tiebreak, rank)``.

    Candidate ``i`` scores ``totals[i]``; its id and tiebreak sit at
    rank ``order[i]`` of ``ids``/``ties`` (rank ``i`` without ``order``).
    A partial select first drops survivors below the k-th total, keeping
    ties at the cut; a NaN cut (fewer than ``k`` comparable totals)
    sorts them all.
    """
    kept = np.nonzero(keep)[0]
    if kept.size > k:
        cut = -np.partition(-totals[kept], k - 1)[k - 1]
        if not np.isnan(cut):
            kept = kept[totals[kept] >= cut]
    if kept.size == 0:
        return []
    rank = kept if order is None else order[kept]
    top = np.lexsort((rank, ties[rank], -totals[kept]))[:k]
    doc_ids = [ids[position] for position in rank[top].tolist()]
    return list(map(TopKResult, doc_ids, totals[kept[top]].tolist()))


def _single_prefix_topk(
    posting_list: PostingArray, k: int
) -> Optional[Tuple[List[TopKResult], int]]:
    """Single-list scan shortcut: the ranking is a column prefix.

    A lone query term aggregates to its own scores, and the columns
    are already sorted by the ranking key ``(-score, tiebreak)``, so
    the top-k is the first ``k`` postings verbatim — provided the
    visible columns *are* the whole relation (no pruning shadow) and
    carry no duplicate ids (``ids_unique``, asserted by the store and
    live-index construction paths; adversarial hand-built lists fall
    back to the full scan).  Only the prefix is materialised, so a
    packed list decodes just its covering blocks.  Results and the
    reported access count are byte-identical to the full scan's.
    """
    if not posting_list.ids_unique:
        return None
    length = len(posting_list)
    lazy = posting_list._by_doc_lazy
    if lazy is not None and len(lazy) != length:
        return None  # pruned: random access knows more than the columns
    if length == 0:
        return [], 0
    ids, scores, ties = posting_list.prefix_columns(min(k, length))
    # Matches _aggregate's sum-from-zero (0.0 + s normalises -0.0).
    totals = np.zeros(len(ids)) + np.asarray(scores, dtype=float)
    keep = np.ones(len(ids), dtype=bool)
    ranking = _ranked(ids, totals, np.asarray(ties, dtype="<i8"), keep, k)
    return ranking, length


# ----------------------------------------------------------------------
# Strategy: full vectorized scan
# ----------------------------------------------------------------------
def scan_topk(
    lists: Sequence[PostingArray], k: int
) -> Tuple[List[TopKResult], int]:
    """Exhaustive top-k in one vectorized pass.

    When no list is pruned, every surviving document must appear in the
    *shortest* list, whose doc-id-sorted index therefore drives the
    intersection directly — no candidate union is ever materialised,
    and the other lists are probed with sorted keys.  Pruned or
    non-integer-id inputs fall back to deduplicating the union of
    visible ids first.  A single unpruned duplicate-free list resolves
    as a column prefix (the columns are already in ranking order)
    without touching the rest of the list at all.

    Returns ``(results, sorted_accesses)`` where the access count is
    the total visible postings scanned.
    """
    k = validate_topk_args(lists, k)
    if len(lists) == 1:
        fast = _single_prefix_topk(lists[0], k)
        if fast is not None:
            return fast
    cols = [_columns(posting_list) for posting_list in lists]
    for col in cols:
        # The scan reads every posting of every list; packed columns
        # decode in one bulk pass instead of block-by-block.
        col.densify()
    accesses = sum(len(col) for col in cols)
    if accesses == 0:
        return [], 0
    if all(col.map_is_columns for col in cols):
        # Fast path: visible columns == random-access relation for all
        # lists, so survivors ⊆ every list ⊆ the smallest list, whose
        # ranks break full-key ties as a rank-order scan would.
        driver = min(range(len(cols)), key=lambda index: len(cols[index]))
        lead = cols[driver]
        totals, keep = _aggregate(cols, (), lead._map_keys, driver=driver)
        ranking = _ranked(
            lead.ids, totals, lead.ties, keep, k, order=lead._map_order
        )
        return ranking, accesses
    if all(col.exact for col in cols):
        cat_keys = np.concatenate([col.keys for col in cols])
        cat_ties = np.concatenate([col.ties for col in cols])
        cand_keys, first = np.unique(cat_keys, return_index=True)
        cand_ties = cat_ties[first]
        offsets = np.cumsum([0] + [len(col) for col in cols])

        def _doc_at(position: int) -> Hashable:
            list_index = int(np.searchsorted(offsets, position, "right")) - 1
            return cols[list_index].ids[position - int(offsets[list_index])]

        cand_ids: Sequence[Hashable] = _LazyIds(_doc_at, first.tolist())
    else:
        representative: Dict[Hashable, int] = {}
        position = 0
        for col in cols:
            for doc_id in col.ids:
                if doc_id not in representative:
                    representative[doc_id] = position
                position += 1
        cand_ids = list(representative)
        cat_ties = np.concatenate([col.ties for col in cols])
        cand_ties = cat_ties[list(representative.values())]
        cand_keys = None

    totals, keep = _aggregate(cols, cand_ids, cand_keys)
    return _ranked(cand_ids, totals, cand_ties, keep, k), accesses


class _LazyIds:
    """Candidate ids resolved on demand from concatenated positions.

    The exact-int scan never needs most candidates' original id
    objects — only the final ``k`` winners' — so this defers the
    position→object resolution instead of materialising the whole
    union up front.
    """

    __slots__ = ("_resolve", "_positions")

    def __init__(self, resolve, positions: List[int]) -> None:
        self._resolve = resolve
        self._positions = positions

    def __len__(self) -> int:
        return len(self._positions)

    def __getitem__(self, index: int) -> Hashable:
        return self._resolve(self._positions[index])


# ----------------------------------------------------------------------
# Strategy: block-max Threshold Algorithm
# ----------------------------------------------------------------------
def blockmax_topk(
    lists: Sequence[PostingArray],
    k: int,
    block: int = DEFAULT_BLOCK,
) -> Tuple[List[TopKResult], int]:
    """TA with block-granular sorted access and vectorized aggregates.

    Each round consumes up to ``block`` postings per live list straight
    from the score columns (no ``Posting`` objects), resolves the
    round's newly-seen documents' full aggregates with one
    :meth:`_Columns.gather` per list, and re-tests TA's strict stopping
    rule with each list bounded by its block-final score.  Exact for
    the same reason TA is: every unseen document is bounded by the
    block frontier, and exhausted lists keep bounding by their final
    sorted score.

    Returns ``(results, sorted_accesses)``.
    """
    k = validate_topk_args(lists, k)
    if block < 1:
        raise SearchError("block size must be positive")
    cols = [_columns(posting_list) for posting_list in lists]
    lengths = [len(col) for col in cols]
    # A list that never yields a posting gives no information → +inf,
    # exactly as the reference TA initialises its bounds.
    bounds = [math.inf] * len(cols)
    exact = all(col.exact for col in cols)
    # Documents whose aggregates are already resolved: a sorted int64
    # key array in the exact path (membership via searchsorted, merged
    # by radix sort each round), a Python set otherwise.
    seen_keys = np.empty(0, dtype=np.int64)
    seen_set: set = set()
    heap: List[Tuple[float, int, Hashable]] = []
    accesses = 0
    depth = 0
    def _push(entry: Tuple[float, int, Hashable]) -> None:
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)

    while True:
        end = depth + block
        new_ids: List[Hashable] = []
        new_ties: List[int] = []
        key_chunks: List[np.ndarray] = []
        tie_chunks: List[np.ndarray] = []
        cat_ids: List[Hashable] = []
        any_live = False
        for index, (col, length) in enumerate(zip(cols, lengths)):
            if depth >= length:
                continue
            any_live = True
            hi = min(end, length)
            accesses += hi - depth
            bounds[index] = float(col.scores[hi - 1])
            if exact:
                key_chunks.append(col.keys[depth:hi])
                tie_chunks.append(col.ties[depth:hi])
                cat_ids.extend(col.ids[depth:hi])
            else:
                ties_block = col.ties[depth:hi].tolist()
                for offset, doc_id in enumerate(col.ids[depth:hi]):
                    if doc_id not in seen_set:
                        seen_set.add(doc_id)
                        new_ids.append(doc_id)
                        new_ties.append(ties_block[offset])
        if not any_live:
            break
        if exact:
            # Round-level dedup, all in C: unique within the round,
            # searchsorted against the already-seen keys, radix-merge
            # the fresh ones in.  Original id objects are resolved only
            # for the (typically few) candidates that survive the
            # everywhere-present mask.
            round_keys, first = np.unique(
                np.concatenate(key_chunks), return_index=True
            )
            if seen_keys.size:
                pos = np.minimum(
                    np.searchsorted(seen_keys, round_keys),
                    seen_keys.size - 1,
                )
                fresh = seen_keys[pos] != round_keys
                round_keys = round_keys[fresh]
                first = first[fresh]
            if round_keys.size:
                seen_keys = np.sort(
                    np.concatenate((seen_keys, round_keys)), kind="stable"
                )
                totals, keep = _aggregate(cols, (), round_keys)
                survivors = np.nonzero(keep)[0]
                if survivors.size:
                    round_ties = np.concatenate(tie_chunks)[first]
                    for position in survivors.tolist():
                        _push(
                            (
                                float(totals[position]),
                                -int(round_ties[position]),
                                cat_ids[int(first[position])],
                            )
                        )
        elif new_ids:
            totals, keep = _aggregate(cols, new_ids, None)
            for position in np.nonzero(keep)[0].tolist():
                _push(
                    (
                        float(totals[position]),
                        -new_ties[position],
                        new_ids[position],
                    )
                )
        threshold = sum(bounds)
        if len(heap) == k and heap[0][0] > threshold:
            break
        depth = end
    ranked = sorted(heap, key=lambda entry: (-entry[0], -entry[1]))
    return (
        [TopKResult(doc_id=doc_id, score=score) for score, _, doc_id in ranked],
        accesses,
    )


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def topk(
    lists: Sequence[PostingArray], k: int, strategy: str = "auto"
) -> Tuple[List[TopKResult], TopKStats]:
    """Top-k under Eq. 10 aggregation with a pluggable strategy.

    Args:
        lists: One posting list per (deduplicated) query term.
        k: Number of results.
        strategy: ``auto`` (which runs ``scan``), ``ta``, ``blockmax``
            or ``scan``.  All strategies return byte-identical
            rankings; only the execution cost differs.

    Returns:
        ``(results, stats)``.

    Raises:
        SearchError: on an unknown strategy, a ``k`` that is not a
            positive integer, or no lists.
    """
    if strategy not in STRATEGIES:
        raise SearchError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    planned = strategy == "auto"
    resolved = "scan" if planned else strategy
    if resolved == "ta":
        results, accesses = threshold_topk(lists, k)
    elif resolved == "blockmax":
        results, accesses = blockmax_topk(lists, k)
    else:
        results, accesses = scan_topk(lists, k)
    return results, TopKStats(
        strategy=resolved, planned=planned, sorted_accesses=accesses
    )


def topk_many(
    queries: Sequence[Sequence[PostingArray]],
    k: int,
    strategy: str = "auto",
) -> List[Tuple[List[TopKResult], TopKStats]]:
    """Batched :func:`topk` over a query workload.

    Every distinct posting list of a multi-term query has its columnar
    view (score/tiebreak arrays plus the doc-id→row index) materialised
    exactly once and shared by every query that references it; a
    single-term ``scan`` reads only its column prefix.

    Returns:
        One ``(results, stats)`` pair per query, in input order.
    """
    warmed = set()
    for lists in queries:
        if len(lists) < 2:
            continue
        for posting_list in lists:
            if id(posting_list) not in warmed:
                warmed.add(id(posting_list))
                _columns(posting_list)
    return [topk(lists, k, strategy=strategy) for lists in queries]
