"""Fagin's Threshold Algorithm (TA) for top-k aggregation [6].

Given one score-sorted posting list per query term and random access
into each, TA interleaves sorted accesses across the lists, computes
each newly-seen document's full aggregate score by random access, and
stops as soon as the k-th best aggregate reaches the *threshold* — the
aggregate of the scores at the current sorted-access frontier, which
upper-bounds every unseen document.

The aggregation here is the sum of Eq. 10; a document missing from any
query term's list has per-term score ``−∞`` there (Eq. 11) and is
excluded, which preserves TA's correctness (missing documents can never
beat the threshold).

Two aspects of the stopping rule deserve care:

* an *exhausted* list still bounds the unseen documents — by its final
  (smallest) sorted score, not by zero.  Dropping exhausted lists from
  the threshold understates the bound whenever the final score is
  positive, which terminates too early and returns a wrong top-k for
  posting lists whose sorted access is a pruned prefix of their random
  access (see :meth:`~repro.columnar.postings.PostingArray.truncated`);
* the stop test must be *strict* (``k-th score > threshold``): with
  ``>=``, an unseen document can tie the k-th aggregate and win under
  the deterministic document-id tiebreak this module promises.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import operator
from typing import Hashable, List, Optional, Sequence, Set, Tuple

from repro.columnar.postings import PostingArray
from repro.errors import SearchError
from repro.search.inverted_index import random_access_map, rank_tiebreak

__all__ = ["TopKResult", "threshold_topk", "exhaustive_topk"]


@dataclasses.dataclass(frozen=True)
class TopKResult:
    """One ranked answer.

    Attributes:
        doc_id: The document.
        score: Its aggregate (summed) score.
    """

    doc_id: Hashable
    score: float


def positive_k(k) -> int:
    """``k`` as a positive ``int``, or :class:`SearchError`.

    Coerces through ``operator.index``, so numpy integers and ``bool``
    pass while floats (``2.5``, NaN), strings and ``None`` are refused
    up front instead of leaking builtin errors from a kernel.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise SearchError(f"k must be an integer, got {k!r}") from None
    if k < 1:
        raise SearchError("k must be positive")
    return k


def validate_topk_args(lists: Sequence[PostingArray], k) -> int:
    """:func:`positive_k`, plus :class:`SearchError` for no lists."""
    k = positive_k(k)
    if not lists:
        raise SearchError("at least one posting list is required")
    return k


def threshold_topk(
    lists: Sequence[PostingArray],
    k: int,
) -> Tuple[List[TopKResult], int]:
    """Run TA over per-term posting lists.

    Args:
        lists: One posting list per query term (sorted access order =
            score descending; random access by document id).
        k: Number of results wanted.

    Returns:
        ``(results, sorted_accesses)`` — the top-k documents by summed
        score (ties broken by document id for determinism) and the
        number of sorted accesses performed, for the efficiency
        analyses.

    Raises:
        SearchError: when ``k`` is not a positive integer or no lists
            are given.
    """
    k = validate_topk_args(lists, k)

    seen: Set[Hashable] = set()
    # Min-heap of (score, -tiebreak, doc_id) keeps the current best k;
    # the negated tiebreak makes the heap minimum the *worst* entry
    # under the final (-score, tiebreak) ordering.
    heap: List[Tuple[float, int, Hashable]] = []
    accesses = 0
    depth = 0
    exhausted = [False] * len(lists)
    # Per-list bound on any unseen document's score there: the score at
    # the sorted-access frontier while the list is live, its *final*
    # sorted score once exhausted.  A list that exhausted without ever
    # yielding a posting gives no information, hence +inf.
    bounds = [math.inf] * len(lists)

    while not all(exhausted):
        for index, posting_list in enumerate(lists):
            if exhausted[index]:
                continue
            posting = posting_list.sorted_access(depth)
            if posting is None:
                exhausted[index] = True
                continue
            accesses += 1
            bounds[index] = posting.score
            doc_id = posting.doc_id
            if doc_id in seen:
                continue
            seen.add(doc_id)
            total = _full_score(lists, doc_id)
            if total is None:
                continue  # missing from some list → −∞ aggregate
            entry = (total, -rank_tiebreak(doc_id), doc_id)
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)

        # Threshold: the best aggregate any unseen document could have.
        # Strictly beating it is required — an unseen document may tie
        # the k-th score and still win the deterministic tiebreak.
        threshold = sum(bounds)
        if len(heap) == k and heap[0][0] > threshold:
            break
        depth += 1

    ranked = sorted(heap, key=lambda entry: (-entry[0], -entry[1]))
    return (
        [TopKResult(doc_id=doc_id, score=score) for score, _, doc_id in ranked],
        accesses,
    )


def _full_score(
    lists: Sequence[PostingArray], doc_id: Hashable
) -> Optional[float]:
    """Aggregate score across all lists; ``None`` when absent anywhere."""
    total = 0.0
    for posting_list in lists:
        score = posting_list.random_access(doc_id)
        if score is None:
            return None
        total += score
    return total


def exhaustive_topk(
    lists: Sequence[PostingArray],
    k: int,
) -> List[TopKResult]:
    """Reference top-k: scan every document of every list.

    Used by the property tests to verify TA returns exactly the same
    ranking.

    Candidates are the documents visible to *sorted* access in at least
    one list; a candidate's aggregate comes from each list's *random*
    access relation and the candidate is excluded when missing from any
    list — exactly the semantics of running :func:`_full_score` per
    candidate, but in a single accumulation pass per list instead of
    one ``random_access`` probe per (candidate, list) pair.  Per
    document the per-list scores are added in list order starting from
    ``0.0``, so the floating-point sums are bit-identical to
    :func:`_full_score`.
    """
    k = validate_topk_args(lists, k)
    candidates: Set[Hashable] = set()
    for posting_list in lists:
        for posting in posting_list:
            candidates.add(posting.doc_id)
    totals: dict = {}
    appearances: dict = {}
    for posting_list in lists:
        for doc_id, score in random_access_map(posting_list).items():
            totals[doc_id] = totals.get(doc_id, 0.0) + score
            appearances[doc_id] = appearances.get(doc_id, 0) + 1
    everywhere = len(lists)
    scored = [
        TopKResult(doc_id=doc_id, score=totals[doc_id])
        for doc_id in candidates
        if appearances.get(doc_id, 0) == everywhere
    ]
    scored.sort(key=lambda result: (-result.score, rank_tiebreak(result.doc_id)))
    return scored[:k]
