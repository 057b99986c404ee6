"""Per-term frequency views over a collection's column snapshot.

STComb and STLocal only ever need, for one term at a time, either a
per-stream frequency sequence or a per-timestamp cross-stream slice.
Building the dense ``(streams × timeline)`` matrix per term is wasteful
for large vocabularies, so this module answers both from the term's
slice of the collection's term-major CSR
(:class:`~repro.columnar.collection.ColumnarCollection`, memoized per
collection version): a term costs ``O(nnz(term))`` when it is read, and
nothing when it is not.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Set, Tuple

import numpy as np

from repro.streams.collection import SpatiotemporalCollection

__all__ = ["FrequencyTensor"]


class FrequencyTensor:
    """Sparse term frequencies by stream and time, as a read-only view.

    Args:
        collection: The source collection.  The view reads the column
            snapshot of the collection's current version, so later
            mutation of the collection is not reflected.
    """

    def __init__(self, collection: SpatiotemporalCollection) -> None:
        self._columns = collection.columnar()
        self.timeline = collection.timeline
        self.stream_ids: List[Hashable] = list(self._columns.stream_ids)

    def _cells(self, term: str) -> Tuple[List[int], List[int], List[float]]:
        """The term's non-zero ``(stream code, timestamp, count)`` cells,
        in (stream, time) order — the order rows run in."""
        columns = self._columns
        rows = columns.doc_rows(term)
        keys, cell = np.unique(
            columns.stream_codes[rows] * self.timeline
            + columns.timestamps[rows],
            return_inverse=True,
        )
        sums = np.bincount(
            cell.reshape(-1),
            weights=columns.frequencies(term),
            minlength=len(keys),
        )
        codes, times = np.divmod(keys, self.timeline)
        return codes.tolist(), times.tolist(), sums.tolist()

    # ------------------------------------------------------------------
    @property
    def terms(self) -> Set[str]:
        """All indexed terms."""
        return set(self._columns.vocabulary)

    def total(self, term: str) -> float:
        """Total mass of a term across the whole collection."""
        return float(self._columns.frequencies(term).sum())

    def streams_with(self, term: str) -> List[Hashable]:
        """Streams in which the term occurs at least once."""
        columns = self._columns
        codes = np.unique(columns.stream_codes[columns.doc_rows(term)])
        return [self.stream_ids[code] for code in codes.tolist()]

    def sequence(self, term: str, stream_id: Hashable) -> List[float]:
        """The term's dense frequency sequence for one stream."""
        columns = self._columns
        code = columns.stream_code.get(stream_id)
        if code is None:
            return [0.0] * self.timeline
        rows = columns.doc_rows(term)
        mine = columns.stream_codes[rows] == code
        # ``astype``: an empty ``bincount`` comes back as integers.
        return (
            np.bincount(
                columns.timestamps[rows][mine],
                weights=columns.frequencies(term)[mine],
                minlength=self.timeline,
            )
            .astype(float)
            .tolist()
        )

    def slice_at(self, term: str, timestamp: int) -> Dict[Hashable, float]:
        """Non-zero frequencies of a term across streams at one time."""
        columns = self._columns
        rows = columns.doc_rows(term)
        at = columns.timestamps[rows] == timestamp
        sums = np.bincount(
            columns.stream_codes[rows][at],
            weights=columns.frequencies(term)[at],
        )
        codes = np.flatnonzero(sums)
        return dict(
            zip(
                [self.stream_ids[code] for code in codes.tolist()],
                sums[codes].tolist(),
            )
        )

    def nonzero(self, term: str) -> Iterator[Tuple[Hashable, int, float]]:
        """Iterate ``(stream, timestamp, count)`` entries of a term."""
        for code, timestamp, count in zip(*self._cells(term)):
            yield self.stream_ids[code], timestamp, count

    def term_snapshots(self, term: str) -> Dict[int, Dict[Hashable, float]]:
        """All non-empty per-timestamp slices of a term at once.

        Equivalent to ``{t: slice_at(term, t)}`` restricted to non-empty
        slices, in ``O(nnz(term))``: one ``unique`` + ``bincount`` over
        the term's CSR slice.  Timestamps are keyed in the order the
        (stream, time) cells first reach them, and streams in
        registration order within a timestamp — the access pattern of
        the snapshot-major :class:`repro.pipeline.BatchMiner` sweep.
        """
        snapshots: Dict[int, Dict[Hashable, float]] = {}
        stream_ids = self.stream_ids
        for code, timestamp, count in zip(*self._cells(term)):
            slice_ = snapshots.get(timestamp)
            if slice_ is None:
                slice_ = snapshots[timestamp] = {}
            slice_[stream_ids[code]] = count
        return snapshots

    def top_terms(self, k: int) -> List[Tuple[str, float]]:
        """The ``k`` heaviest terms by total mass (descending)."""
        columns = self._columns
        ranked = sorted(
            zip(columns.vocabulary, columns.term_totals().tolist()),
            key=lambda item: (-item[1], item[0]),
        )
        return ranked[:k]
