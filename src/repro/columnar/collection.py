"""Struct-of-arrays document store with a term-major index.

:class:`~repro.streams.collection.SpatiotemporalCollection` is the
ingestion-friendly representation — documents live in per-stream,
per-timestamp dict-of-lists.  Analytical passes (posting construction,
batch mining) want the transpose: *for one term, give me every document
row / stream / timestamp at once*.  :class:`ColumnarCollection` is that
transpose, built in one pass:

* per-document columns — ``doc_ids``, int-coded ``stream_codes``,
  ``timestamps``, precomputed ranking tiebreaks — in exactly the
  ``collection.documents()`` iteration order (so stable sorts over the
  columns reproduce legacy orderings bit-for-bit);
* a CSR-style term-major index: for every int-coded term, the document
  rows containing it (ascending) and the in-document frequencies;
* stream coordinate columns for vectorized geometry.

:class:`DocumentColumns` is the document-major form of the same table
— one row per document, terms as a per-document CSR — which is the
layout of a store's ``documents/`` segment and of the live collection's
arrival-order table.

The store is a frozen snapshot, like
:class:`~repro.streams.frequency.FrequencyTensor`: collection mutations
after construction are not reflected.  It also duck-types the tensor
protocol (``timeline`` / ``terms`` / ``term_snapshots`` / ``sequence`` /
``streams_with`` / ``total``), so :class:`repro.pipeline.BatchMiner`
can mine straight off it.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
)

import numpy as np

from repro.columnar.postings import rank_tiebreak
from repro.columnar.scoring import TermColumns
from repro.streams.collection import SpatiotemporalCollection
from repro.streams.document import Document

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


class ColumnarCollection:
    """Columnar snapshot of a spatiotemporal collection.

    Args:
        collection: The source collection; contents are copied.
    """

    def __init__(self, collection: SpatiotemporalCollection) -> None:
        self.timeline = collection.timeline
        self.stream_ids: List[Hashable] = collection.stream_ids
        self._stream_code: Dict[Hashable, int] = {
            sid: code for code, sid in enumerate(self.stream_ids)
        }
        locations = collection.locations()
        self.stream_x = np.array(
            [locations[sid].x for sid in self.stream_ids], dtype=float
        )
        self.stream_y = np.array(
            [locations[sid].y for sid in self.stream_ids], dtype=float
        )
        self._locations = locations

        doc_ids: List[Hashable] = []
        documents: List[Document] = []
        stream_codes: List[int] = []
        timestamps: List[int] = []
        vocabulary: Dict[str, int] = {}
        entry_terms: List[int] = []
        entry_docs: List[int] = []
        entry_counts: List[int] = []
        for row, document in enumerate(collection.documents()):
            doc_ids.append(document.doc_id)
            documents.append(document)
            stream_codes.append(self._stream_code[document.stream_id])
            timestamps.append(document.timestamp)
            for term, count in document.term_counts().items():
                tid = vocabulary.setdefault(term, len(vocabulary))
                entry_terms.append(tid)
                entry_docs.append(row)
                entry_counts.append(count)

        self.doc_ids = doc_ids
        self.documents = documents
        self.stream_codes = np.asarray(stream_codes, dtype=np.int32)
        self.timestamps = np.asarray(timestamps, dtype=np.int32)
        self.tiebreaks = np.fromiter(
            (rank_tiebreak(doc_id) for doc_id in doc_ids),
            dtype=np.int64,
            count=len(doc_ids),
        )
        self._vocabulary = vocabulary

        terms_arr = np.asarray(entry_terms, dtype=np.int64)
        # Stable sort groups entries by term while keeping document rows
        # ascending inside each group (entries were appended doc-major).
        order = np.argsort(terms_arr, kind="stable")
        self._entry_docs = np.asarray(entry_docs, dtype=np.int64)[order]
        self._entry_counts = np.asarray(entry_counts, dtype=np.int64)[order]
        group_sizes = np.bincount(terms_arr, minlength=len(vocabulary))
        self._indptr = np.concatenate(
            ([0], np.cumsum(group_sizes))
        ).astype(np.int64)

    # ------------------------------------------------------------------
    # Document / stream access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.doc_ids)

    @property
    def document_count(self) -> int:
        return len(self.doc_ids)

    def locations(self):
        """Map of stream id → projected location (tensor-compat)."""
        return dict(self._locations)

    # ------------------------------------------------------------------
    # Term-major access
    # ------------------------------------------------------------------
    @property
    def terms(self) -> Set[str]:
        """All indexed terms (tensor-compat)."""
        return set(self._vocabulary)

    def term_id(self, term: str) -> Optional[int]:
        """The int code of a term, or ``None`` when never observed."""
        return self._vocabulary.get(term)

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
            stream_code=self._stream_code,
        )

    # ------------------------------------------------------------------
    # Frequency-tensor protocol
    # ------------------------------------------------------------------
    def total(self, term: str) -> float:
        """Total mass of a term across the collection."""
        return float(self.frequencies(term).sum())

    def streams_with(self, term: str) -> List[Hashable]:
        """Streams in which the term occurs, in first-occurrence order.

        Matches :meth:`repro.streams.FrequencyTensor.streams_with`,
        whose dict-of-dicts records streams in document order.
        """
        rows = self.doc_rows(term)
        seen: Dict[Hashable, None] = {}
        for code in self.stream_codes[rows].tolist():
            seen.setdefault(self.stream_ids[code], None)
        return list(seen)

    def sequence(self, term: str, stream_id: Hashable) -> List[float]:
        """The term's dense frequency sequence for one stream."""
        dense = [0.0] * self.timeline
        code = self._stream_code.get(stream_id)
        if code is None:
            return dense
        rows = self.doc_rows(term)
        counts = self.frequencies(term)
        mask = self.stream_codes[rows] == code
        for row_ts, count in zip(
            self.timestamps[rows[mask]].tolist(),
            counts[mask].tolist(),
        ):
            dense[row_ts] += count
        return dense

    def term_snapshots(self, term: str) -> Dict[int, Dict[Hashable, float]]:
        """All non-empty per-timestamp slices of a term at once.

        Same shape and values as
        :meth:`repro.streams.FrequencyTensor.term_snapshots`: integer
        per-document counts aggregate exactly regardless of order.
        """
        rows = self.doc_rows(term)
        counts = self.frequencies(term)
        snapshots: Dict[int, Dict[Hashable, float]] = {}
        codes = self.stream_codes[rows].tolist()
        times = self.timestamps[rows].tolist()
        for code, timestamp, count in zip(codes, times, counts.tolist()):
            slice_ = snapshots.setdefault(timestamp, {})
            sid = self.stream_ids[code]
            slice_[sid] = slice_.get(sid, 0.0) + count
        return snapshots

    # ------------------------------------------------------------------
    def member_mask(self, stream_ids) -> np.ndarray:
        """Boolean per-stream-code membership mask for a stream set."""
        mask = np.zeros(len(self.stream_ids), dtype=bool)
        for sid in stream_ids:
            code = self._stream_code.get(sid)
            if code is not None:
                mask[code] = True
        return mask
