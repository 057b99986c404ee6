"""Append-only live ingestion over a spatiotemporal collection.

:class:`LiveCollection` wraps :class:`~repro.streams.collection.
SpatiotemporalCollection` with the ingestion discipline of a serving
system:

* **append-only time** — documents arrive in non-decreasing timestamp
  order (per snapshot, not per document: many documents may share the
  watermark timestamp).  Once a later timestamp is observed, every
  earlier snapshot is *sealed* and can never change again — which is
  what lets downstream trackers commit sealed snapshots durably and
  preview only the open tail;
* **epoch counter** — every mutation bumps the epoch, giving caches a
  single integer to key consistency on;
* **incremental term views** — the per-term sparse snapshots
  (``timestamp → stream → frequency``) and per-term document columns
  (timestamps, stream codes, frequencies, ids and ranking tiebreaks,
  in arrival order) are maintained on ingest in ``O(|terms(d)|)``, so
  serving a query never rescans the collection and scoring a term is
  one columnar pass (:func:`repro.columnar.scoring.columnar_postings`).
"""

from __future__ import annotations

from array import array
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.columnar.postings import rank_tiebreak
from repro.columnar.scoring import TermColumns
from repro.errors import StreamError
from repro.spatial.geometry import Point
from repro.streams.collection import SpatiotemporalCollection
from repro.streams.document import Document
from repro.streams.stream import DocumentStream

__all__ = ["LiveCollection"]


class _TermView:
    """One term's incremental view: its live tensor slices and the rows
    (with in-document frequencies) of the documents containing it."""

    __slots__ = ("slices", "rows", "counts")

    def __init__(self) -> None:
        # timestamp → stream → frequency.
        self.slices: Dict[int, Dict[Hashable, float]] = {}
        # Lists, in arrival order: ingest appends to them once per
        # (document, term), and list.append is the cheapest append.
        self.rows: List[int] = []
        self.counts: List[int] = []


def _gather(column: array, rows: np.ndarray) -> np.ndarray:
    """``column[rows]`` as a new array.

    The zero-copy view is dropped before returning: an ``array`` that
    still exports its buffer refuses to grow, and ingest appends to it.
    """
    return np.frombuffer(column, dtype=np.int64)[rows]


class LiveCollection:
    """An ingestion façade enforcing live-serving invariants.

    Args:
        timeline: Number of timestamps of the underlying collection.

    Streams must be registered (:meth:`add_stream`) before the first
    document is ingested: the live miners share one immutable location
    map, and a stream appearing mid-flight would invalidate every
    tracker retroactively.
    """

    def __init__(self, timeline: int) -> None:
        self._inner = SpatiotemporalCollection(timeline)
        self._epoch = 0
        self._watermark = -1  # highest ingested timestamp; -1 = empty
        self._term_views: Dict[str, _TermView] = {}
        # Per-document columns, one row per document in arrival order.
        self._doc_ids: List[Hashable] = []
        self._timestamps = array("q")
        self._stream_codes = array("q")
        self._tiebreaks = array("q")
        self._stream_code: Dict[Hashable, int] = {}
        self._docs_by_id: Dict[Hashable, Document] = {}
        self._listeners: List[Callable[[Document], None]] = []

    # ------------------------------------------------------------------
    # Construction / ingestion
    # ------------------------------------------------------------------
    def add_stream(
        self,
        stream_id: Hashable,
        location: Point,
        latlon: Optional[Tuple[float, float]] = None,
    ) -> DocumentStream:
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
        stream = self._inner.add_stream(stream_id, location, latlon=latlon)
        self._stream_code[stream_id] = len(self._stream_code)
        self._epoch += 1
        return stream

    def ingest(self, document: Document) -> int:
        """Append one document; returns the new epoch.

        Raises:
            StreamError: on a late arrival (timestamp behind the
                watermark — that snapshot is sealed), a duplicate
                document id, an unknown stream, or a timestamp outside
                the timeline.
        """
        if document.timestamp < self._watermark:
            raise StreamError(
                f"late arrival: timestamp {document.timestamp} is behind "
                f"the watermark {self._watermark}; sealed snapshots are "
                "immutable"
            )
        if document.doc_id in self._docs_by_id:
            raise StreamError(
                f"duplicate document id {document.doc_id!r}: live posting "
                "lists key documents on unique ids"
            )
        self._inner.add_document(document)  # validates stream + timeline
        doc_id, stream_id, timestamp = (
            document.doc_id, document.stream_id, document.timestamp
        )
        self._docs_by_id[doc_id] = document
        self._watermark = max(self._watermark, timestamp)
        row = len(self._doc_ids)
        self._doc_ids.append(doc_id)
        self._timestamps.append(timestamp)
        self._stream_codes.append(self._stream_code[stream_id])
        self._tiebreaks.append(rank_tiebreak(doc_id))
        views = self._term_views
        for term, count in document.term_counts().items():
            view = views.get(term)
            if view is None:
                view = views[term] = _TermView()
            snapshot = view.slices.get(timestamp)
            if snapshot is None:
                snapshot = view.slices[timestamp] = {}
            snapshot[stream_id] = snapshot.get(stream_id, 0.0) + float(count)
            view.rows.append(row)
            view.counts.append(count)
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
        if not 0 <= timestamp < self.timeline:
            raise StreamError(
                f"timestamp {timestamp} outside timeline [0, {self.timeline})"
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
    def collection(self) -> SpatiotemporalCollection:
        """The underlying collection (treat as read-only)."""
        return self._inner

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
        return self._inner.timeline

    @property
    def document_count(self) -> int:
        return self._inner.document_count

    @property
    def vocabulary(self) -> Set[str]:
        return self._inner.vocabulary

    def locations(self) -> Dict[Hashable, Point]:
        return self._inner.locations()

    # ------------------------------------------------------------------
    # Incremental term views
    # ------------------------------------------------------------------
    def term_snapshots(self, term: str) -> Dict[int, Dict[Hashable, float]]:
        """The term's sparse per-timestamp slices, maintained on ingest.

        Same shape as
        :meth:`repro.streams.FrequencyTensor.term_snapshots`.
        """
        view = self._term_views.get(term)
        return {} if view is None else view.slices

    def term_version(self, term: str) -> int:
        """Monotonic per-term change counter.

        Equal to the number of ingested documents containing the term —
        it advances exactly when the term's snapshots (and hence its
        patterns or postings) can have changed.  Documents *without*
        the term never move it: feeding a tracker additional empty
        snapshots cannot create, destroy or rescore a maximal window,
        so per-term caches keyed on this counter stay consistent.
        """
        view = self._term_views.get(term)
        return 0 if view is None else len(view.rows)

    def documents_with(self, term: str) -> List[Document]:
        """Documents containing the term, in arrival order."""
        view = self._term_views.get(term, _TermView())
        doc_ids = self._doc_ids
        return [self._docs_by_id[doc_ids[row]] for row in view.rows]

    def term_columns(self, term: str) -> TermColumns:
        """The documents containing ``term`` as columns, in arrival order."""
        view = self._term_views.get(term, _TermView())
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

    def ingested_documents(self) -> List[Document]:
        """Every ingested document, in arrival order.

        The arrival order is what a checkpoint must persist: replaying
        it through a fresh collection reproduces the per-term views,
        watermark and sealing behaviour exactly (ingest admits only
        non-decreasing timestamps, so the recorded order always
        revalidates).
        """
        return list(self._docs_by_id.values())

    def has_document(self, doc_id: Hashable) -> bool:
        """True when a document id has already been ingested."""
        return doc_id in self._docs_by_id

    def document(self, doc_id: Hashable) -> Document:
        """Look up an ingested document by id.

        Raises:
            StreamError: for an unknown id.
        """
        document = self._docs_by_id.get(doc_id)
        if document is None:
            raise StreamError(f"unknown document {doc_id!r}")
        return document

    def __len__(self) -> int:
        """Number of streams, mirroring the wrapped collection."""
        return len(self._inner)
