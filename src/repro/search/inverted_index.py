"""Inverted index: term → postings ranked by per-term score.

Section 5: "An inverted index is first built, mapping each term to the
documents that include it, ranked by their respective scores.  The
popular Threshold Algorithm (TA) for top-k evaluation can then be
applied."  The per-term score here is the *product*
``relevance(d,t) × burstiness(d,t)``; documents whose burstiness is
``−∞`` (no overlapping pattern) are simply absent from the posting
list, which realises the exclusion semantics of Eq. 11.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

from repro.columnar.postings import Posting, PostingArray, rank_tiebreak
from repro.errors import SearchError

__all__ = [
    "Posting",
    "InvertedIndex",
    "random_access_map",
    "rank_tiebreak",
]


def random_access_map(posting_list: PostingArray) -> Dict[Hashable, float]:
    """The full random-access relation of a posting list, as a dict.

    Equivalent to calling :meth:`PostingArray.random_access` for every
    document the list knows about — including documents a pruned
    (:meth:`PostingArray.truncated`) list no longer exposes to sorted
    access, and with later (lower-ranked) duplicates overwriting
    earlier ones.  The single-pass ``exhaustive_topk`` and the
    vectorized kernels in :mod:`repro.search.topk` both gather scores
    from this map instead of probing ``random_access`` once per
    document.
    """
    return posting_list._by_doc


class InvertedIndex:
    """Term → :class:`~repro.columnar.postings.PostingArray` map with
    lazy insertion.

    The search engines build posting lists per query term on demand and
    register them here, so repeated queries reuse the work.
    """

    def __init__(self) -> None:
        self._lists: Dict[str, PostingArray] = {}

    def __contains__(self, term: str) -> bool:
        return term in self._lists

    def add(
        self, term: str, postings: Sequence[Posting], replace: bool = False
    ) -> PostingArray:
        """Register a term's posting list.

        Args:
            term: The term being indexed.
            postings: Its postings (any order; sorted internally).
            replace: Allow overwriting an existing list.  Without it, a
                duplicate registration raises — silently replacing a
                list discards postings another code path may still be
                serving from.

        Raises:
            SearchError: when the term is already indexed and
                ``replace`` is false.
        """
        return self.add_built(
            term, PostingArray.from_postings(postings), replace=replace
        )

    def add_built(
        self, term: str, posting_list: PostingArray, replace: bool = False
    ) -> PostingArray:
        """Register an already-constructed posting list.

        The columnar scorer and the segment store build lists straight
        from score columns; this registers them without a round-trip
        through ``Posting`` objects.  Same duplicate-registration
        contract as :meth:`add`.
        """
        if not replace and term in self._lists:
            raise SearchError(
                f"term {term!r} is already indexed; pass replace=True "
                "(or discard() it first) to rebuild its posting list"
            )
        self._lists[term] = posting_list
        return posting_list

    def discard(self, term: str) -> bool:
        """Drop one term's posting list; True when it existed."""
        return self._lists.pop(term, None) is not None

    def clear(self) -> None:
        """Drop every posting list (collection-level invalidation)."""
        self._lists.clear()

    def get(self, term: str) -> Optional[PostingArray]:
        """The posting list of a term, or ``None`` if not indexed."""
        return self._lists.get(term)

    def terms(self) -> List[str]:
        """All indexed terms."""
        return list(self._lists)

    def __len__(self) -> int:
        return len(self._lists)
