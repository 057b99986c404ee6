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

import dataclasses
import zlib
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import SearchError

__all__ = [
    "Posting",
    "PostingList",
    "InvertedIndex",
    "random_access_map",
    "rank_tiebreak",
]


def rank_tiebreak(doc_id: Hashable) -> int:
    """Deterministic but unbiased ordering key for equal scores.

    Insertion order or lexicographic ids would systematically favour
    some documents (e.g. the earliest generated); hashing removes that
    bias while keeping rankings reproducible across runs.
    """
    return zlib.crc32(repr(doc_id).encode())


@dataclasses.dataclass(frozen=True)
class Posting:
    """One document's entry in a term's posting list.

    Attributes:
        doc_id: The document.
        score: The per-term score (relevance × burstiness).
    """

    doc_id: Hashable
    score: float


class PostingList:
    """A term's postings, sorted by score descending.

    Supports both access modes TA needs: *sorted access* (iteration in
    score order) and *random access* (score lookup by document).
    """

    def __init__(self, postings: Sequence[Posting]) -> None:
        self._sorted: List[Posting] = sorted(
            postings, key=lambda p: (-p.score, rank_tiebreak(p.doc_id))
        )
        self._by_doc: Dict[Hashable, float] = {
            posting.doc_id: posting.score for posting in self._sorted
        }

    def __len__(self) -> int:
        return len(self._sorted)

    def __iter__(self):
        return iter(self._sorted)

    def sorted_access(self, rank: int) -> Optional[Posting]:
        """The posting at a given rank, or ``None`` past the end."""
        if rank < len(self._sorted):
            return self._sorted[rank]
        return None

    def random_access(self, doc_id: Hashable) -> Optional[float]:
        """Score of a document in this list, or ``None`` if absent."""
        return self._by_doc.get(doc_id)

    def top(self, k: int) -> List[Posting]:
        """The ``k`` best postings."""
        return self._sorted[:k]

    def truncated(self, depth: int) -> "PostingList":
        """Impact-ordered pruning: keep the top ``depth`` postings.

        Sorted access (and iteration) only reaches the retained prefix,
        while random access still resolves every original document —
        the classic pruned-index trade-off.  The Threshold Algorithm
        remains exact over truncated lists *because* an exhausted list
        keeps bounding unseen documents by its final retained score.
        """
        clone = PostingList(self._sorted[:depth])
        clone._by_doc = dict(self._by_doc)
        return clone


def random_access_map(posting_list) -> Dict[Hashable, float]:
    """The full random-access relation of a posting list, as a dict.

    Equivalent to calling :meth:`PostingList.random_access` for every
    document the list knows about — including documents a pruned
    (:meth:`PostingList.truncated`) list no longer exposes to sorted
    access.  The single-pass ``exhaustive_topk`` and the vectorized
    kernels in :mod:`repro.search.topk` both gather scores from this
    map instead of probing ``random_access`` once per document.

    Every posting-list implementation in the repo (``PostingList`` and
    ``PostingArray``, including a ``PostingArray.merged_with`` result,
    which reads exactly like a cold ``PostingList`` over both inputs)
    exposes its map as ``_by_doc``; unknown implementations fall back
    to materialising the sorted-access sequence, with later
    (lower-ranked) duplicates overwriting earlier ones exactly as the
    ``PostingList`` constructor does.
    """
    by_doc = getattr(posting_list, "_by_doc", None)
    if isinstance(by_doc, dict):
        return by_doc
    return {posting.doc_id: posting.score for posting in posting_list}


class InvertedIndex:
    """Term → :class:`PostingList` map with lazy insertion.

    The search engines build posting lists per query term on demand and
    register them here, so repeated queries reuse the work.
    """

    def __init__(self) -> None:
        self._lists: Dict[str, PostingList] = {}

    def __contains__(self, term: str) -> bool:
        return term in self._lists

    def add(
        self, term: str, postings: Sequence[Posting], replace: bool = False
    ) -> PostingList:
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
        return self.add_built(term, PostingList(postings), replace=replace)

    def add_built(
        self, term: str, posting_list: "PostingList", replace: bool = False
    ) -> "PostingList":
        """Register an already-constructed posting list.

        The columnar search path builds
        :class:`~repro.columnar.postings.PostingArray` lists from score
        columns; this registers them without the constructor round-trip
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

    def get(self, term: str) -> Optional[PostingList]:
        """The posting list of a term, or ``None`` if not indexed."""
        return self._lists.get(term)

    def terms(self) -> List[str]:
        """All indexed terms."""
        return list(self._lists)

    def __len__(self) -> int:
        return len(self._lists)
