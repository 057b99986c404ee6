"""Sorted posting arrays: the search layer's one posting-list type.

Section 5 serves queries from an inverted index mapping each term to
its documents ranked by score.  :class:`PostingArray` holds one term's
postings as struct-of-arrays: scores, tiebreaks and document ids live
in parallel arrays, and ordering is one ``np.lexsort`` over the
``(-score, crc32(doc))`` key.  ``lexsort`` is a stable mergesort, so
equal keys keep their input order, exactly as Python's stable
``sorted`` over :class:`Posting` objects with that key would.
``Posting`` objects are materialised lazily — the Threshold Algorithm
usually touches only a short sorted-access prefix.

:class:`PackedPostingArray` serves the same protocol over
block-compressed store columns.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Dict, Hashable, Iterator, List, Optional, Sequence

import numpy as np

__all__ = ["PackedPostingArray", "Posting", "PostingArray", "rank_tiebreak"]


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


class PostingArray:
    """A term's postings as struct-of-arrays, sorted by score descending.

    Supports both access modes TA needs: *sorted access* (iteration in
    score order) and *random access* (score lookup by document); the
    vectorized top-k kernel reads the sorted columns directly.

    Args:
        doc_ids: Document identifiers, in scoring order.
        scores: Per-document scores, parallel to ``doc_ids``.
        tiebreaks: Optional precomputed ``rank_tiebreak`` values; computed
            on demand when omitted.
        presorted: Skip the sort when the inputs are already in posting
            order (e.g. columns read back from a segment store).
    """

    def __init__(
        self,
        doc_ids: Sequence[Hashable],
        scores: Sequence[float],
        tiebreaks: Optional[Sequence[int]] = None,
        presorted: bool = False,
    ) -> None:
        ids = list(doc_ids)
        score_arr = np.asarray(scores, dtype="<f8")
        if tiebreaks is None:
            tie_arr = np.fromiter(
                (rank_tiebreak(doc_id) for doc_id in ids),
                dtype="<i8",
                count=len(ids),
            )
        else:
            tie_arr = np.asarray(tiebreaks, dtype="<i8")
        if not presorted and len(ids) > 1:
            # Stable sort by (-score, tiebreak): lexsort keys are listed
            # least-significant first.
            order = np.lexsort((tie_arr, -score_arr))
            ids = [ids[i] for i in order]
            score_arr = score_arr[order]
            tie_arr = tie_arr[order]
        self._ids: List[Hashable] = ids
        self._scores = score_arr
        self._ties = tie_arr
        self._score_list: Optional[List[float]] = None
        self._postings: Dict[int, Posting] = {}
        self._by_doc_lazy: Optional[Dict[Hashable, float]] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_postings(cls, postings: Sequence[Posting]) -> "PostingArray":
        """Build from ``Posting`` objects (any order)."""
        return cls(
            [p.doc_id for p in postings], [p.score for p in postings]
        )

    @classmethod
    def from_columns(
        cls,
        doc_ids: Sequence[Hashable],
        scores,
        tiebreaks,
        random_access: Optional[Dict[Hashable, float]] = None,
    ) -> "PostingArray":
        """Wrap already-sorted columns without copying or re-sorting.

        The segment-store load path (:mod:`repro.store`) hands in
        memory-mapped score/tiebreak slices; they are served as-is.
        ``random_access`` optionally seeds the full random-access map —
        a reloaded *pruned* list knows more documents than its sorted
        columns expose (see :meth:`truncated`).
        """
        array = cls(doc_ids, scores, tiebreaks=tiebreaks, presorted=True)
        if random_access is not None:
            array._by_doc_lazy = dict(random_access)
        return array

    # ------------------------------------------------------------------
    @property
    def _by_doc(self) -> Dict[Hashable, float]:
        """Random-access map, built on first use."""
        if self._by_doc_lazy is None:
            self._by_doc_lazy = dict(zip(self._ids, self._float_scores()))
        return self._by_doc_lazy

    def _float_scores(self) -> List[float]:
        if self._score_list is None:
            self._score_list = self._scores.tolist()
        return self._score_list

    def _posting_at(self, rank: int) -> Posting:
        posting = self._postings.get(rank)
        if posting is None:
            posting = Posting(
                doc_id=self._ids[rank], score=self._float_scores()[rank]
            )
            self._postings[rank] = posting
        return posting

    # ------------------------------------------------------------------
    # Sorted and random access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Posting]:
        return (self._posting_at(rank) for rank in range(len(self._ids)))

    def sorted_access(self, rank: int) -> Optional[Posting]:
        """The posting at a given rank, or ``None`` past the end."""
        if 0 <= rank < len(self._ids):
            return self._posting_at(rank)
        return None

    def random_access(self, doc_id: Hashable) -> Optional[float]:
        """Score of a document in this list, or ``None`` if absent."""
        return self._by_doc.get(doc_id)

    def top(self, k: int) -> List[Posting]:
        """The ``k`` best postings."""
        return [self._posting_at(rank) for rank in range(min(k, len(self._ids)))]

    def truncated(self, depth: int) -> "PostingArray":
        """Impact-ordered pruning: keep the top ``depth`` postings.

        Sorted access (and iteration) only reaches the retained prefix,
        while random access still resolves every original document —
        the classic pruned-index trade-off.  The Threshold Algorithm
        remains exact over truncated lists *because* an exhausted list
        keeps bounding unseen documents by its final retained score.
        """
        clone = PostingArray(
            self._ids[:depth],
            self._scores[:depth],
            tiebreaks=self._ties[:depth],
            presorted=True,
        )
        clone._by_doc_lazy = dict(self._by_doc)
        return clone

    # ------------------------------------------------------------------
    # Columnar extensions
    # ------------------------------------------------------------------
    #: True when every doc id appears at most once in this list.  Only
    #: construction paths that *guarantee* it set the flag (the segment
    #: store's load path, whose save input is a one-entry-per-document
    #: relation); the single-list scan shortcut in
    #: :mod:`repro.search.topk` requires it and falls back to the full
    #: scan otherwise.
    ids_unique: bool = False

    def prefix_columns(self, k: int):
        """The first ``k`` postings' ``(doc_ids, scores, tiebreaks)``.

        The columns are sorted by the ranking key, so this prefix *is*
        the list's top-``k`` — packed subclasses serve it from the
        covering blocks alone.
        """
        return self._ids[:k], self._scores[:k], self._ties[:k]

    def columns(self):
        """The raw sorted columns ``(doc_ids, scores, tiebreaks)``.

        The vectorized top-k kernel (:mod:`repro.search.topk`) reads
        these directly — no ``Posting`` materialisation, no recomputed
        ``crc32`` tiebreaks.  Callers must treat the arrays as
        immutable.
        """
        return self._ids, self._scores, self._ties


class PackedPostingArray(PostingArray):
    """A :class:`PostingArray` over block-compressed stored columns.

    Wraps a packed segment term source (``_PackedTermSource`` in
    :mod:`repro.store.segments`) and defers every column decode to
    first touch: ``len`` and block-boundary score reads cost no decode
    at all, the top-k kernel pulls score/tiebreak blocks individually
    through the ``packed`` attribute, and the dense-column protocol
    below (iteration, re-save) materialises full columns only
    when actually used.  Decoded values are byte-identical to the raw
    layout, so every consumer sees the same postings either way.
    """

    class _DecodedColumn:
        """Non-data descriptor: decode on first touch, then vanish.

        The first attribute access decodes the column and writes the
        result into the instance ``__dict__``; because the descriptor
        defines no ``__set__``, the instance attribute shadows it from
        then on — dense consumers (the TA reference path iterates
        per-posting) pay zero per-access overhead after the decode.
        """

        def __init__(self, decode: str) -> None:
            self._decode = decode

        def __set_name__(self, owner, name: str) -> None:
            self._name = name

        def __get__(self, instance, owner=None):
            if instance is None:
                return self
            value = getattr(instance.packed, self._decode)()
            instance.__dict__[self._name] = value
            return value

    def __init__(
        self,
        source,
        random_access: Optional[Dict[Hashable, float]] = None,
    ) -> None:
        # No PostingArray.__init__: columns live in the packed source
        # until first dense touch.
        self.packed = source
        self._score_list = None
        self._postings = {}
        self._by_doc_lazy = (
            None if random_access is None else dict(random_access)
        )

    # Dense columns, decoded on demand.  The descriptors keep the
    # parent's protocol methods working unchanged against packed
    # storage.
    _ids = _DecodedColumn("ids")  # type: ignore[assignment]
    _scores = _DecodedColumn("scores")  # type: ignore[assignment]
    _ties = _DecodedColumn("ties")  # type: ignore[assignment]

    def __len__(self) -> int:
        return int(self.packed.length)

    def prefix_columns(self, k: int):
        if all(
            name in self.__dict__ for name in ("_ids", "_scores", "_ties")
        ):  # already densely decoded — plain slices, no descriptor pull
            return super().prefix_columns(k)
        source = self.packed
        return (
            source.ids_prefix(k),
            source.scores_slice(0, k),
            source.ties_slice(0, k),
        )
