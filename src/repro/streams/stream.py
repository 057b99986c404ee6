"""A single geostamped document stream ``D_x``.

Each stream is "associated with a fixed geographical location"
(Section 2) — a point on the projected map plane — and delivers a set
of documents ``D_x[i]`` at every timestamp ``i``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from repro.errors import StreamError
from repro.spatial.geometry import Point
from repro.streams.document import Document

__all__ = ["DocumentStream"]


class DocumentStream:
    """One stream of documents from a fixed location.

    Args:
        stream_id: Unique identifier (e.g. a country name).
        location: The stream's geostamp on the projected 2-D plane.
        latlon: Optional original (latitude, longitude) in degrees,
            kept for geodesic computations and provenance.
    """

    def __init__(
        self,
        stream_id: Hashable,
        location: Point,
        latlon: Optional[Tuple[float, float]] = None,
    ) -> None:
        self.stream_id = stream_id
        self.location = location
        self.latlon = latlon
        self._by_timestamp: Dict[int, List[Document]] = {}
        self._term_counts: Dict[int, Counter] = {}
        self._document_count = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add(self, document: Document) -> None:
        """Append a document to the stream.

        Raises:
            StreamError: when the document belongs to another stream.
        """
        if document.stream_id != self.stream_id:
            raise StreamError(
                f"document {document.doc_id!r} belongs to stream "
                f"{document.stream_id!r}, not {self.stream_id!r}"
            )
        timestamp = document.timestamp
        documents = self._by_timestamp.get(timestamp)
        if documents is None:
            documents = self._by_timestamp[timestamp] = []
            self._term_counts[timestamp] = Counter()
        documents.append(document)
        self._term_counts[timestamp].update(document.terms)
        self._document_count += 1

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def documents_at(self, timestamp: int) -> List[Document]:
        """``D_x[i]`` — the documents received at one timestamp."""
        return list(self._by_timestamp.get(timestamp, ()))

    def frequency(self, timestamp: int, term: str) -> int:
        """``D_x[i][t]`` (Eq. 6) — total frequency of a term at a time."""
        counts = self._term_counts.get(timestamp)
        if counts is None:
            return 0
        return counts.get(term, 0)

    def total_tokens(self, timestamp: int) -> int:
        """Total token count at a timestamp (Kleinberg's ``d_i``)."""
        counts = self._term_counts.get(timestamp)
        if counts is None:
            return 0
        return sum(counts.values())

    def frequency_sequence(self, term: str, timeline: int) -> List[float]:
        """The term's full frequency sequence ``Y_t`` over ``timeline`` steps."""
        return [float(self.frequency(i, term)) for i in range(timeline)]

    def terms_at(self, timestamp: int) -> List[str]:
        """Distinct terms observed at a timestamp."""
        counts = self._term_counts.get(timestamp)
        if counts is None:
            return []
        return list(counts.keys())

    def timestamps(self) -> List[int]:
        """Sorted timestamps with at least one document."""
        return sorted(self._by_timestamp)

    def __iter__(self) -> Iterator[Document]:
        for timestamp in sorted(self._by_timestamp):
            yield from self._by_timestamp[timestamp]

    def __len__(self) -> int:
        return self._document_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DocumentStream({self.stream_id!r}, docs={self._document_count}, "
            f"at={self.location})"
        )
