"""The column table of a batch collection: one snapshot, several views.

:class:`~repro.streams.collection.SpatiotemporalCollection` is the
ingestion-friendly representation — documents live in per-stream,
per-timestamp dict-of-lists.  Everything downstream of ingestion reads
:class:`ColumnarCollection` instead, the collection's column snapshot,
built once per collection version
(:meth:`~repro.streams.collection.SpatiotemporalCollection.columnar`)
from one pass over the documents:

* per-document columns — ``doc_ids``, int-coded ``stream_codes``,
  ``timestamps``, precomputed ranking tiebreaks — in exactly the
  ``collection.documents()`` iteration order, i.e. (stream, time)
  order, so stable sorts over the columns reproduce legacy orderings
  bit-for-bit;
* a document-major term CSR (:class:`DocumentColumns`), which a store's
  ``documents/`` segment writes as it is;
* its term-major transpose: for every int-coded term, the document
  rows containing it (ascending) and the in-document frequencies,
  which the posting builder reads and
  :class:`~repro.streams.frequency.FrequencyTensor` views for mining.

:class:`DocumentColumns` is the document-major form of the table — one
row per document, terms as a per-document CSR — which is the layout of
a store's ``documents/`` segment and of the live collection's
arrival-order table.

The snapshot is frozen: collection mutations after construction are
not reflected (the collection builds a new one for its next version).
"""

from __future__ import annotations

import itertools
from typing import (
    Dict,
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Sequence,
)

import numpy as np

from repro.columnar.postings import rank_tiebreak
from repro.columnar.scoring import TermColumns
from repro.streams.collection import SpatiotemporalCollection

__all__ = ["ColumnarCollection", "DocumentColumns"]


class DocumentColumns(NamedTuple):
    """A document table as parallel columns, one row per document.

    Row ``r``'s terms are ``term_codes[term_indptr[r]:term_indptr[r + 1]]``
    (with ``term_counts`` alongside), in the order the document first
    used them; a code is the term's position in ``vocabulary``, which
    lists terms in first-seen row order.
    """

    doc_ids: Sequence[Hashable]
    stream_codes: np.ndarray
    timestamps: np.ndarray
    term_indptr: np.ndarray
    term_codes: np.ndarray
    term_counts: np.ndarray
    vocabulary: Sequence[str]
    #: ``str(row)`` → event id, for the rows that carry one, by row.
    event_ids: Mapping[str, Hashable]


def _csr_offsets(groups: np.ndarray, count: int) -> np.ndarray:
    """Offsets of a CSR whose entries are grouped by ascending ``groups``."""
    sizes = np.bincount(groups, minlength=count)
    return np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)


class ColumnarCollection:
    """Columnar snapshot of a spatiotemporal collection.

    Args:
        collection: The source collection; contents are copied.
    """

    def __init__(self, collection: SpatiotemporalCollection) -> None:
        self.timeline = collection.timeline
        self.stream_ids: List[Hashable] = collection.stream_ids
        #: stream id → its code (its position in :attr:`stream_ids`).
        self.stream_code: Dict[Hashable, int] = {
            sid: code for code, sid in enumerate(self.stream_ids)
        }

        documents = list(collection.documents())
        n_docs = len(documents)
        self.doc_ids: List[Hashable] = [d.doc_id for d in documents]
        codes = self.stream_code
        self.stream_codes = np.fromiter(
            (codes[d.stream_id] for d in documents), dtype="<i8", count=n_docs
        )
        self.timestamps = np.fromiter(
            (d.timestamp for d in documents), dtype="<i8", count=n_docs
        )
        self.tiebreaks = np.fromiter(
            map(rank_tiebreak, self.doc_ids), dtype=np.int64, count=n_docs
        )
        self._event_ids: Dict[str, Hashable] = {
            str(row): d.event_id
            for row, d in enumerate(documents)
            if d.event_id is not None
        }

        # Every token once, document after document.  A term's code is
        # its first-seen position; an entry is a distinct (term, row)
        # key with its multiplicity.  A document lists its entries in
        # first-occurrence order, as ``Counter(document.terms)`` does.
        tokens = list(
            itertools.chain.from_iterable(d.terms for d in documents)
        )
        self._vocabulary: Dict[str, int] = {
            term: code for code, term in enumerate(dict.fromkeys(tokens))
        }
        n_terms = len(self._vocabulary)
        token_rows = np.repeat(
            np.arange(n_docs, dtype=np.int64),
            np.fromiter((len(d.terms) for d in documents), np.int64, n_docs),
        )
        token_codes = np.fromiter(
            map(self._vocabulary.__getitem__, tokens),
            dtype=np.int64,
            count=len(tokens),
        )
        keys, first, counts = np.unique(
            token_codes * max(n_docs, 1) + token_rows,
            return_index=True,
            return_counts=True,
        )
        entry_codes, entry_rows = np.divmod(keys, max(n_docs, 1))
        # Keys ascend by (term, row): the term-major CSR as it comes.
        self._entry_docs = entry_rows
        self._entry_counts = counts.astype("<i8")
        self._indptr = _csr_offsets(entry_codes, n_terms)
        # Document-major: entries in the order their first token came.
        by_row = np.argsort(first)
        self._entry_codes = entry_codes[by_row].astype("<i8")
        self._entry_row_counts = self._entry_counts[by_row]
        self._row_indptr = _csr_offsets(entry_rows[by_row], n_docs)

    # ------------------------------------------------------------------
    # Document-major access
    # ------------------------------------------------------------------
    def document_columns(self) -> DocumentColumns:
        """The document-major table, as a store's ``documents/`` holds it."""
        return DocumentColumns(
            doc_ids=self.doc_ids,
            stream_codes=self.stream_codes,
            timestamps=self.timestamps,
            term_indptr=self._row_indptr,
            term_codes=self._entry_codes,
            term_counts=self._entry_row_counts,
            vocabulary=list(self._vocabulary),
            event_ids=self._event_ids,
        )

    # ------------------------------------------------------------------
    # Term-major access
    # ------------------------------------------------------------------
    @property
    def vocabulary(self) -> Mapping[str, int]:
        """Term → code, in first-seen (code) order."""
        return self._vocabulary

    def doc_rows(self, term: str) -> np.ndarray:
        """Rows of the documents containing ``term`` (ascending)."""
        tid = self._vocabulary.get(term)
        if tid is None:
            return np.empty(0, dtype=np.int64)
        return self._entry_docs[self._indptr[tid] : self._indptr[tid + 1]]

    def frequencies(self, term: str) -> np.ndarray:
        """In-document frequencies parallel to :meth:`doc_rows`."""
        tid = self._vocabulary.get(term)
        if tid is None:
            return np.empty(0, dtype=np.int64)
        return self._entry_counts[self._indptr[tid] : self._indptr[tid + 1]]

    def term_totals(self) -> np.ndarray:
        """Every term's total frequency, indexed by term code."""
        return np.bincount(
            self._entry_codes,
            weights=self._entry_row_counts,
            minlength=len(self._vocabulary),
        )

    def term_columns(self, term: str) -> TermColumns:
        """The documents containing ``term``, in collection order."""
        rows = self.doc_rows(term)
        return TermColumns(
            timestamps=self.timestamps[rows],
            stream_codes=self.stream_codes[rows],
            frequencies=self.frequencies(term),
            tiebreaks=self.tiebreaks[rows],
            doc_ids=self.doc_ids,
            rows=rows,
            stream_code=self.stream_code,
        )
