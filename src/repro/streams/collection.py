"""The spatiotemporal collection ``D = {D_1[·], …, D_n[·]}``.

The top-level data structure of the paper (Figure 1): a set of
geostamped document streams sharing one discrete timeline.  It provides
snapshot access ``D[i]`` for STLocal, per-stream frequency sequences for
STComb, and whole-collection views for the search engine.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
)

import numpy as np

from repro.errors import StreamError, UnknownTermError
from repro.spatial.geometry import Point
from repro.streams.document import Document
from repro.streams.stream import DocumentStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columnar.collection import ColumnarCollection

__all__ = ["SpatiotemporalCollection"]


class SpatiotemporalCollection:
    """A set of document streams over a common timeline.

    Args:
        timeline: Number of timestamps (documents must satisfy
            ``0 <= timestamp < timeline``).

    Streams are registered with :meth:`add_stream`; documents are routed
    to their stream with :meth:`add_document`.
    """

    def __init__(self, timeline: int) -> None:
        if timeline < 1:
            raise StreamError("timeline must cover at least one timestamp")
        self.timeline = timeline
        self._streams: Dict[Hashable, DocumentStream] = {}
        self._vocabulary: Set[str] = set()
        self._document_count = 0
        self._version = 0
        self._listeners: List[Callable[[Document], None]] = []
        self._columnar: Optional["ColumnarCollection"] = None
        self._columnar_version = -1

    # ------------------------------------------------------------------
    # Mutation tracking
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter, bumped by every stream or document added.

        Anything that derives state from the collection (document maps,
        posting lists, pattern caches) can compare versions to detect
        that its derived view has gone stale.
        """
        return self._version

    def columnar(self) -> "ColumnarCollection":
        """The column snapshot of the current version, built once.

        Mining (:class:`~repro.streams.FrequencyTensor`), posting
        construction and the store writer all read this one table; a
        mutation bumps :attr:`version`, and the next call builds a new
        snapshot while earlier ones stay as they were.
        """
        if self._columnar is None or self._columnar_version != self._version:
            from repro.columnar.collection import ColumnarCollection

            snapshot = ColumnarCollection(self)
            self._columnar, self._columnar_version = snapshot, self._version
        return self._columnar

    def subscribe(self, listener: Callable[[Document], None]) -> None:
        """Register a callback invoked after every document append.

        Listeners receive the document *after* it has been routed to its
        stream, so they observe a consistent collection — a push-based
        alternative to polling :attr:`version` for derived views that
        must react to appends (metrics, replication, cache warming).
        """
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_stream(
        self,
        stream_id: Hashable,
        location: Point,
        latlon: Optional[Tuple[float, float]] = None,
    ) -> DocumentStream:
        """Register a new stream at a map location.

        Raises:
            StreamError: on duplicate stream identifiers.
        """
        if stream_id in self._streams:
            raise StreamError(f"stream {stream_id!r} already registered")
        stream = DocumentStream(stream_id, location, latlon=latlon)
        self._streams[stream_id] = stream
        self._version += 1
        return stream

    def add_document(self, document: Document) -> None:
        """Route a document to its stream.

        Raises:
            StreamError: when the stream is unknown or the timestamp is
                outside the timeline.
        """
        if document.stream_id not in self._streams:
            raise StreamError(f"unknown stream {document.stream_id!r}")
        if not 0 <= document.timestamp < self.timeline:
            raise StreamError(
                f"timestamp {document.timestamp} outside timeline "
                f"[0, {self.timeline})"
            )
        self._streams[document.stream_id].add(document)
        self._vocabulary.update(document.terms)
        self._document_count += 1
        self._version += 1
        for listener in self._listeners:
            listener(document)

    # ------------------------------------------------------------------
    # Stream access
    # ------------------------------------------------------------------
    @property
    def stream_ids(self) -> List[Hashable]:
        """Registered stream identifiers, in registration order."""
        return list(self._streams)

    @property
    def vocabulary(self) -> Set[str]:
        """Every term observed anywhere in the collection."""
        return set(self._vocabulary)

    def stream(self, stream_id: Hashable) -> DocumentStream:
        """Look up one stream."""
        if stream_id not in self._streams:
            raise StreamError(f"unknown stream {stream_id!r}")
        return self._streams[stream_id]

    def streams(self) -> List[DocumentStream]:
        """All streams, in registration order."""
        return list(self._streams.values())

    def locations(self) -> Dict[Hashable, Point]:
        """Map of stream id → projected location."""
        return {sid: stream.location for sid, stream in self._streams.items()}

    def __len__(self) -> int:
        """Number of streams (the paper's ``n = |D|``)."""
        return len(self._streams)

    @property
    def document_count(self) -> int:
        """Total documents across all streams."""
        return self._document_count

    # ------------------------------------------------------------------
    # Snapshot / frequency access
    # ------------------------------------------------------------------
    def snapshot(self, timestamp: int) -> Dict[Hashable, List[Document]]:
        """``D[i]`` — the document sets of every stream at ``timestamp``."""
        return {
            stream.stream_id: stream.documents_at(timestamp)
            for stream in self.streams()
        }

    def frequency(self, stream_id: Hashable, timestamp: int, term: str) -> int:
        """``D_x[i][t]`` for a specific stream."""
        return self.stream(stream_id).frequency(timestamp, term)

    def frequency_sequence(self, stream_id: Hashable, term: str) -> List[float]:
        """One stream's full frequency sequence for a term."""
        from repro.streams.frequency import FrequencyTensor

        self.stream(stream_id)  # unknown streams raise
        return FrequencyTensor(self).sequence(term, stream_id)

    def frequency_matrix(self, term: str) -> np.ndarray:
        """``(n_streams, timeline)`` matrix of a term's frequencies.

        Row order follows :attr:`stream_ids`.

        Raises:
            UnknownTermError: when the term never occurs anywhere.
        """
        if term not in self._vocabulary:
            raise UnknownTermError(term)
        columns = self.columnar()
        rows = columns.doc_rows(term)
        matrix = np.zeros((len(columns.stream_ids), self.timeline))
        np.add.at(
            matrix,
            (columns.stream_codes[rows], columns.timestamps[rows]),
            columns.frequencies(term),
        )
        return matrix

    def merged_frequency_sequence(self, term: str) -> List[float]:
        """The term's sequence with all streams merged into one.

        This is the single-stream view that the TB baseline (temporal-
        burstiness-only search, Section 6.3) operates on.
        """
        columns = self.columnar()
        # ``astype``: an empty ``bincount`` comes back as integers.
        return (
            np.bincount(
                columns.timestamps[columns.doc_rows(term)],
                weights=columns.frequencies(term),
                minlength=self.timeline,
            )
            .astype(float)
            .tolist()
        )

    def terms_at(self, timestamp: int) -> Set[str]:
        """Every distinct term observed anywhere at one timestamp."""
        terms: Set[str] = set()
        for stream in self.streams():
            terms.update(stream.terms_at(timestamp))
        return terms

    # ------------------------------------------------------------------
    # Document access
    # ------------------------------------------------------------------
    def documents(self) -> Iterator[Document]:
        """Iterate every document in (stream, time) order."""
        for stream in self._streams.values():
            yield from stream

    def documents_matching(self, terms: Sequence[str]) -> Iterator[Document]:
        """Documents containing at least one of the given terms."""
        for document in self.documents():
            if document.contains_any(terms):
                yield document
