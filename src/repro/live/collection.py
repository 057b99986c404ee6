"""Append-only live ingestion into one arrival-order column table.

:class:`LiveCollection` holds every ingested document once, as a row
of an arrival-order table (doc ids, timestamps, stream codes, ranking
tiebreaks, event ids and a per-document term CSR — the layout of a
checkpoint's ``documents/`` segment), plus one view per term, with the
ingestion discipline of a serving system:

* **append-only time** — documents arrive in non-decreasing timestamp
  order (per snapshot, not per document: many documents may share the
  watermark timestamp).  Once a later timestamp is observed, every
  earlier snapshot is *sealed* and can never change again — which is
  what lets downstream trackers commit sealed snapshots durably and
  preview only the open tail;
* **epoch counter** — every mutation bumps the epoch, giving caches a
  single integer to key consistency on;
* **incremental term views** — ingest appends each document's rows to
  the table and to its terms' views (the rows containing the term,
  with in-document frequencies) in one pass over
  :meth:`~repro.streams.Document.term_counts`, so serving a query never
  rescans the collection and scoring a term is one columnar pass
  (:func:`repro.columnar.scoring.columnar_postings`).  A term's sparse
  snapshots (``timestamp → stream → frequency``) are folded from its
  view when asked for, so only mined terms pay for them.

A checkpoint restore adopts a stored table in bulk
(:meth:`LiveCollection.from_columns`): one stable radix argsort of the
narrowed term codes groups the stored entries by term, and a term's
view is cut from that grouping only when something first asks for the
term; a restored row becomes a :class:`~repro.streams.Document` only
when something asks for it.
"""

from __future__ import annotations

from array import array
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    MutableSequence,
    Optional,
    Set,
)

import numpy as np

from repro.columnar.collection import DocumentColumns
from repro.columnar.postings import rank_tiebreak
from repro.columnar.scoring import TermColumns
from repro.errors import StreamError
from repro.spatial.geometry import Point
from repro.streams.document import Document

__all__ = ["LiveCollection"]


class _TermView:
    """One term's incremental view: its code, the rows (with
    in-document frequencies) of the documents containing it, and its
    sparse snapshots folded through ``folded`` of those rows."""

    __slots__ = ("code", "rows", "counts", "slices", "folded")

    def __init__(self, code: int) -> None:
        self.code = code
        # Lists, in arrival order: ingest appends to them once per
        # (document, term), and list.append is the cheapest append.
        self.rows: List[int] = []
        self.counts: List[int] = []
        # timestamp → stream → frequency, over rows[:folded].
        self.slices: Dict[int, Dict[Hashable, float]] = {}
        self.folded = 0


def _gather(column: array, rows: np.ndarray) -> np.ndarray:
    """``column[rows]`` as a new array.

    The zero-copy view is dropped before returning: an ``array`` that
    still exports its buffer refuses to grow, and ingest appends to it.
    """
    return np.frombuffer(column, dtype=np.int64)[rows]


def _int64_array(values) -> array:
    """An appendable ``array('q')`` holding a copy of an integer column."""
    return array("q", np.asarray(values, dtype=np.int64).tobytes())


class LiveCollection:
    """An ingestion façade enforcing live-serving invariants.

    Args:
        timeline: Number of timestamps (documents must satisfy
            ``0 <= timestamp < timeline``).

    Streams must be registered (:meth:`add_stream`) before the first
    document is ingested: the live miners share one immutable location
    map, and a stream appearing mid-flight would invalidate every
    tracker retroactively.
    """

    def __init__(self, timeline: int) -> None:
        if timeline < 1:
            raise StreamError("timeline must cover at least one timestamp")
        self._timeline = timeline
        self._epoch = 0
        self._watermark = -1  # highest ingested timestamp; -1 = empty
        self._locations: Dict[Hashable, Point] = {}
        self._stream_ids: List[Hashable] = []
        self._stream_code: Dict[Hashable, int] = {}
        # The table, one row per document in arrival order.
        self._doc_ids: List[Hashable] = []
        self._row_of: Dict[Hashable, int] = {}
        self._timestamps = array("q")
        self._stream_codes = array("q")
        self._tiebreaks = array("q")
        self._event_ids: Dict[str, Hashable] = {}
        # The term CSR: lists while ingesting (list.append is the
        # cheapest append), ``array('q')`` copies of an adopted table's
        # columns (one bulk copy, no Python int per entry).
        self._term_indptr: MutableSequence[int] = [0]
        self._term_codes: MutableSequence[int] = []
        self._term_counts: MutableSequence[int] = []
        # Every term, in code order.
        self._vocabulary: List[str] = []
        # The views cut so far.  An adopted term (``_stored_code``: term
        # → code) has its view cut on first use from the term-major
        # grouping of the stored entries: code c's rows and counts are
        # ``_grouped_rows``/``_grouped_counts[bounds[c]:bounds[c + 1]]``.
        self._term_views: Dict[str, _TermView] = {}
        self._stored_code: Dict[str, int] = {}
        self._grouped_rows = np.zeros(0, dtype=np.int64)
        self._grouped_counts = np.zeros(0, dtype=np.int64)
        self._grouped_bounds = np.zeros(1, dtype=np.int64)
        # Rows [0, _stored_rows) were adopted from a stored table and
        # become documents through ``_stored``; later rows are the
        # ingested documents themselves.
        self._stored: Optional[Callable[[int], Document]] = None
        self._stored_rows = 0
        self._documents: List[Document] = []
        self._listeners: List[Callable[[Document], None]] = []

    @classmethod
    def from_columns(
        cls,
        timeline: int,
        locations: Mapping[Hashable, Point],
        columns: DocumentColumns,
        document_at: Callable[[int], Document],
    ) -> "LiveCollection":
        """A collection holding a stored arrival-order table.

        The state equals ingesting the table's documents one by one,
        except that a row becomes a :class:`Document` only when asked
        for, through ``document_at(row)``.  The columns must already be
        consistent (in range, timestamps non-decreasing, ids unique):
        the store checks them before adopting a checkpoint.  No term
        view is built here: each is cut from one term-major grouping of
        the stored entries when its term is first asked for.
        """
        live = cls(timeline)
        for stream_id, point in locations.items():
            live.add_stream(stream_id, point)
        doc_ids = list(columns.doc_ids)
        rows = len(doc_ids)
        live._doc_ids = doc_ids
        live._row_of = dict(zip(doc_ids, range(rows)))
        live._stored = document_at
        live._stored_rows = rows
        live._timestamps = _int64_array(columns.timestamps)
        live._stream_codes = _int64_array(columns.stream_codes)
        live._tiebreaks = array("q", map(rank_tiebreak, doc_ids))
        live._event_ids = dict(columns.event_ids)
        indptr = np.asarray(columns.term_indptr, dtype=np.int64)
        codes = np.asarray(columns.term_codes)
        counts = np.asarray(columns.term_counts, dtype=np.int64)
        live._term_indptr = _int64_array(indptr)
        live._term_codes = _int64_array(codes)
        live._term_counts = _int64_array(counts)
        live._vocabulary = list(columns.vocabulary)
        terms = len(live._vocabulary)
        live._stored_code = dict(zip(live._vocabulary, range(terms)))
        if rows:
            live._watermark = live._timestamps[-1]

        # One stable sort groups the entries by term, keeping each
        # term's rows in arrival order.  The codes are in [0, terms),
        # and NumPy sorts 8- and 16-bit keys stably by radix: a v3
        # store's codes already are the narrowest unsigned type that
        # holds them and are sorted as stored; older stores' ``<i8``
        # codes are cast to the narrowest unsigned type holding the
        # vocabulary.
        narrow = (
            codes
            if codes.dtype.kind == "u"
            else codes.astype(np.min_scalar_type(max(terms - 1, 0)))
        )
        order = np.argsort(narrow, kind="stable")
        live._grouped_rows = np.repeat(np.arange(rows), np.diff(indptr))[order]
        live._grouped_counts = counts[order]
        live._grouped_bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(narrow, minlength=terms)))
        )
        return live

    # ------------------------------------------------------------------
    # Construction / ingestion
    # ------------------------------------------------------------------
    def add_stream(self, stream_id: Hashable, location: Point) -> None:
        """Register a stream; only allowed before ingestion begins.

        Raises:
            StreamError: after the first document has been ingested, or
                on a duplicate stream id.
        """
        if self._watermark >= 0:
            raise StreamError(
                "streams must be registered before ingestion begins "
                "(live trackers share a fixed location map)"
            )
        if stream_id in self._stream_code:
            raise StreamError(f"stream {stream_id!r} already registered")
        self._stream_code[stream_id] = len(self._stream_ids)
        self._stream_ids.append(stream_id)
        self._locations[stream_id] = location
        self._epoch += 1

    def ingest(self, document: Document) -> int:
        """Append one document; returns the new epoch.

        Raises:
            StreamError: on a late arrival (timestamp behind the
                watermark — that snapshot is sealed), a duplicate
                document id, an unknown stream, or a timestamp outside
                the timeline.
        """
        doc_id, timestamp = document.doc_id, document.timestamp
        if timestamp < self._watermark:
            raise StreamError(
                f"late arrival: timestamp {timestamp} is behind the "
                f"watermark {self._watermark}; sealed snapshots are "
                "immutable"
            )
        if doc_id in self._row_of:
            raise StreamError(
                f"duplicate document id {doc_id!r}: live posting "
                "lists key documents on unique ids"
            )
        stream_code = self._stream_code.get(document.stream_id)
        if stream_code is None:
            raise StreamError(f"unknown stream {document.stream_id!r}")
        if not 0 <= timestamp < self._timeline:
            raise StreamError(
                f"timestamp {timestamp} outside timeline "
                f"[0, {self._timeline})"
            )
        self._watermark = timestamp
        row = len(self._doc_ids)
        self._row_of[doc_id] = row
        self._doc_ids.append(doc_id)
        self._documents.append(document)
        self._timestamps.append(timestamp)
        self._stream_codes.append(stream_code)
        self._tiebreaks.append(rank_tiebreak(doc_id))
        if document.event_id is not None:
            self._event_ids[str(row)] = document.event_id
        views = self._term_views
        term_codes, term_counts = self._term_codes, self._term_counts
        for term, count in document.term_counts().items():
            view = views.get(term)
            if view is None:
                # A stored term's first touch cuts its view; a new term
                # takes the next code.
                view = self._view(term)
                if view is None:
                    view = views[term] = _TermView(len(self._vocabulary))
                    self._vocabulary.append(term)
            term_codes.append(view.code)
            term_counts.append(count)
            view.rows.append(row)
            view.counts.append(count)
        self._term_indptr.append(len(term_codes))
        self._epoch += 1
        for listener in self._listeners:
            listener(document)
        return self._epoch

    def ingest_snapshot(
        self, timestamp: int, documents: Iterable[Document]
    ) -> int:
        """Ingest a batch of documents all stamped ``timestamp``.

        Sealing is implicit: once this returns, every snapshot before
        ``timestamp`` is immutable (and so is this one, as soon as any
        later timestamp arrives).

        Returns:
            The number of documents ingested.

        Raises:
            StreamError: when a document carries a different timestamp,
                or on any :meth:`ingest` violation.
        """
        count = 0
        for document in documents:
            if document.timestamp != timestamp:
                raise StreamError(
                    f"snapshot batch for timestamp {timestamp} contains a "
                    f"document stamped {document.timestamp}"
                )
            self.ingest(document)
            count += 1
        if count == 0:
            self.advance_to(timestamp)
        return count

    def advance_to(self, timestamp: int) -> int:
        """Declare that time has reached ``timestamp`` with no arrivals.

        Seals every earlier snapshot (an empty tick in the feed).
        Returns the new epoch.

        Raises:
            StreamError: when moving backwards or outside the timeline.
        """
        if timestamp < self._watermark:
            raise StreamError(
                f"cannot advance backwards ({timestamp} < {self._watermark})"
            )
        if not 0 <= timestamp < self._timeline:
            raise StreamError(
                f"timestamp {timestamp} outside timeline [0, {self._timeline})"
            )
        if timestamp != self._watermark:
            self._watermark = timestamp
            self._epoch += 1
        return self._epoch

    def subscribe(self, listener: Callable[[Document], None]) -> None:
        """Register a callback invoked after every ingested document."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Mutation epoch; bumps on every ingest / advance / stream."""
        return self._epoch

    @property
    def watermark(self) -> int:
        """The open snapshot's timestamp (``-1`` while empty).

        Timestamps strictly below the watermark are sealed; the
        watermark snapshot itself may still receive documents.
        """
        return self._watermark

    @property
    def sealed(self) -> int:
        """First unsealed timestamp: snapshots ``[0, sealed)`` are final."""
        return max(self._watermark, 0)

    @property
    def timeline(self) -> int:
        return self._timeline

    @property
    def document_count(self) -> int:
        return len(self._doc_ids)

    @property
    def vocabulary(self) -> Set[str]:
        return set(self._vocabulary)

    def locations(self) -> Dict[Hashable, Point]:
        """Stream id → location, in registration order."""
        return dict(self._locations)

    def document_columns(self) -> DocumentColumns:
        """A copy of the arrival-order table, as a checkpoint's
        ``documents/`` segment stores it."""
        return DocumentColumns(
            doc_ids=list(self._doc_ids),
            stream_codes=np.array(self._stream_codes, dtype=np.int64),
            timestamps=np.array(self._timestamps, dtype=np.int64),
            term_indptr=np.array(self._term_indptr, dtype=np.int64),
            term_codes=np.array(self._term_codes, dtype=np.int64),
            term_counts=np.array(self._term_counts, dtype=np.int64),
            vocabulary=list(self._vocabulary),
            event_ids=dict(self._event_ids),
        )

    # ------------------------------------------------------------------
    # Incremental term views
    # ------------------------------------------------------------------
    def _view(self, term: str) -> Optional[_TermView]:
        """The term's view (``None`` for a term no document holds),
        cut from the adopted grouping when first asked for."""
        view = self._term_views.get(term)
        if view is None:
            code = self._stored_code.get(term)
            if code is None:
                return None
            view = self._term_views[term] = _TermView(code)
            start, end = self._grouped_bounds[code : code + 2].tolist()
            view.rows = self._grouped_rows[start:end].tolist()
            view.counts = self._grouped_counts[start:end].tolist()
        return view

    def term_snapshots(self, term: str) -> Dict[int, Dict[Hashable, float]]:
        """The term's sparse per-timestamp slices.

        Same shape as
        :meth:`repro.streams.FrequencyTensor.term_snapshots`.  The rows
        ingested since the last call are folded in first, in arrival
        order.
        """
        view = self._view(term)
        if view is None:
            return {}
        if view.folded < len(view.rows):
            slices = view.slices
            timestamps, codes = self._timestamps, self._stream_codes
            stream_ids = self._stream_ids
            for row, count in zip(
                view.rows[view.folded :], view.counts[view.folded :]
            ):
                timestamp = timestamps[row]
                snapshot = slices.get(timestamp)
                if snapshot is None:
                    snapshot = slices[timestamp] = {}
                stream_id = stream_ids[codes[row]]
                snapshot[stream_id] = snapshot.get(stream_id, 0.0) + count
            view.folded = len(view.rows)
        return view.slices

    def term_version(self, term: str) -> int:
        """Monotonic per-term change counter.

        Equal to the number of ingested documents containing the term —
        it advances exactly when the term's snapshots (and hence its
        patterns or postings) can have changed.  Documents *without*
        the term never move it: feeding a tracker additional empty
        snapshots cannot create, destroy or rescore a maximal window,
        so per-term caches keyed on this counter stay consistent.
        """
        view = self._view(term)
        return 0 if view is None else len(view.rows)

    def documents_with(self, term: str) -> List[Document]:
        """Documents containing the term, in arrival order."""
        view = self._view(term) or _TermView(-1)
        return [self._document(row) for row in view.rows]

    def term_columns(self, term: str) -> TermColumns:
        """The documents containing ``term`` as columns, in arrival order."""
        view = self._view(term) or _TermView(-1)
        rows = np.array(view.rows, dtype=np.int64)
        return TermColumns(
            timestamps=_gather(self._timestamps, rows),
            stream_codes=_gather(self._stream_codes, rows),
            frequencies=np.array(view.counts, dtype=np.int64),
            tiebreaks=_gather(self._tiebreaks, rows),
            doc_ids=self._doc_ids,
            rows=rows,
            stream_code=self._stream_code,
        )

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------
    def _document(self, row: int) -> Document:
        if self._stored is not None and row < self._stored_rows:
            return self._stored(row)
        return self._documents[row - self._stored_rows]

    def ingested_documents(self) -> List[Document]:
        """Every ingested document, in arrival order.

        Re-ingesting them into a fresh collection (or adding them to a
        batch :class:`~repro.streams.SpatiotemporalCollection`)
        reproduces this collection's term views: ingest admits only
        non-decreasing timestamps, so the arrival order always
        revalidates.
        """
        return [
            self._document(row) for row in range(self._stored_rows)
        ] + self._documents

    def has_document(self, doc_id: Hashable) -> bool:
        """True when a document id has already been ingested."""
        return doc_id in self._row_of

    def document(self, doc_id: Hashable) -> Document:
        """Look up an ingested document by id.

        Raises:
            StreamError: for an unknown id.
        """
        row = self._row_of.get(doc_id)
        if row is None:
            raise StreamError(f"unknown document {doc_id!r}")
        return self._document(row)

    def __len__(self) -> int:
        """Number of registered streams."""
        return len(self._stream_ids)
