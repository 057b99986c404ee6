"""The dict-of-dicts frequency tensor: the reference for the CSR view.

``term → stream → {timestamp: count}``, built in one pass over every
stream's per-timestamp term counts.  The shipped
:class:`~repro.streams.FrequencyTensor` answers from the collection's
column snapshot instead and must read exactly like this, dict key order
included.
"""

from typing import Dict, Hashable, Iterator, List, Set, Tuple

from repro.streams.collection import SpatiotemporalCollection


class DictFrequencyTensor:
    """One-pass sparse index of term frequencies by stream and time."""

    def __init__(self, collection: SpatiotemporalCollection) -> None:
        self.timeline = collection.timeline
        self.stream_ids: List[Hashable] = collection.stream_ids
        self._data: Dict[str, Dict[Hashable, Dict[int, float]]] = {}
        self._term_totals: Dict[str, float] = {}
        for stream in collection.streams():
            sid = stream.stream_id
            for timestamp in stream.timestamps():
                for term in stream.terms_at(timestamp):
                    count = float(stream.frequency(timestamp, term))
                    per_stream = self._data.setdefault(term, {})
                    per_stream.setdefault(sid, {})[timestamp] = count
                    self._term_totals[term] = (
                        self._term_totals.get(term, 0.0) + count
                    )

    @property
    def terms(self) -> Set[str]:
        return set(self._data)

    def total(self, term: str) -> float:
        return self._term_totals.get(term, 0.0)

    def streams_with(self, term: str) -> List[Hashable]:
        return list(self._data.get(term, {}))

    def sequence(self, term: str, stream_id: Hashable) -> List[float]:
        sparse = self._data.get(term, {}).get(stream_id, {})
        dense = [0.0] * self.timeline
        for timestamp, count in sparse.items():
            dense[timestamp] = count
        return dense

    def slice_at(self, term: str, timestamp: int) -> Dict[Hashable, float]:
        result: Dict[Hashable, float] = {}
        for sid, sparse in self._data.get(term, {}).items():
            count = sparse.get(timestamp)
            if count:
                result[sid] = count
        return result

    def nonzero(self, term: str) -> Iterator[Tuple[Hashable, int, float]]:
        for sid, sparse in self._data.get(term, {}).items():
            for timestamp, count in sparse.items():
                yield sid, timestamp, count

    def term_snapshots(self, term: str) -> Dict[int, Dict[Hashable, float]]:
        snapshots: Dict[int, Dict[Hashable, float]] = {}
        for sid, sparse in self._data.get(term, {}).items():
            for timestamp, count in sparse.items():
                if count:
                    snapshots.setdefault(timestamp, {})[sid] = count
        return snapshots

    def top_terms(self, k: int) -> List[Tuple[str, float]]:
        ranked = sorted(
            self._term_totals.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:k]
