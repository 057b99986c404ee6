"""STComb (Section 3): combinatorial spatiotemporal patterns.

Pipeline, per term:

1. for every stream, extract the non-overlapping bursty temporal
   intervals with a pluggable detector (Lappas KDD'09 by default);
2. pool all intervals (tagged with stream and ``B_T`` score) and solve
   the Highest-Scoring-Subset problem — equivalently Maximum-Weight
   Clique on the interval intersection graph (Proposition 1) — with the
   ``O(n log n)`` sweep;
3. obtain multiple non-overlapping patterns by iterated clique removal.

Each clique maps to a :class:`~repro.core.patterns.CombinatorialPattern`
whose streams are the clique members' origins, whose timeframe is their
common segment, and whose score is their cumulative burstiness.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Protocol, Sequence, Union

from repro.core.config import STCombConfig
from repro.core.patterns import CombinatorialPattern
from repro.intervals.graph import WeightedInterval
from repro.intervals.max_clique import CliqueResult, iterated_max_cliques
from repro.streams.collection import SpatiotemporalCollection
from repro.streams.frequency import FrequencyTensor
from repro.temporal.lappas import LappasBurstDetector
from repro.temporal.max_segments import ScoredSegment

__all__ = ["BurstDetector", "STComb"]


class BurstDetector(Protocol):
    """Protocol for per-stream temporal burst detectors.

    Any object with ``detect(frequencies) -> list[ScoredSegment]``
    returning non-overlapping scored intervals fits — the paper's
    methodology "is compatible with any framework that reports
    non-overlapping bursty intervals".
    """

    def detect(self, frequencies: Sequence[float]) -> List[ScoredSegment]:
        ...


class STComb:
    """Combinatorial spatiotemporal pattern miner.

    Args:
        detector: Temporal burst detector applied independently per
            stream; defaults to :class:`LappasBurstDetector`.
        config: Algorithm settings; defaults to the paper's.
    """

    def __init__(
        self,
        detector: Optional[BurstDetector] = None,
        config: Optional[STCombConfig] = None,
    ) -> None:
        self.detector = detector if detector is not None else LappasBurstDetector()
        self.config = config if config is not None else STCombConfig()

    # ------------------------------------------------------------------
    def stream_intervals(
        self,
        data: Union[SpatiotemporalCollection, FrequencyTensor],
        term: str,
    ) -> List[WeightedInterval]:
        """Step 1: per-stream bursty intervals for one term.

        Accepts either the raw collection or a prebuilt
        :class:`FrequencyTensor` (preferred when mining many terms).
        """
        intervals: List[WeightedInterval] = []
        if isinstance(data, SpatiotemporalCollection):
            data = FrequencyTensor(data)
        # Anything tensor-like (FrequencyTensor or a synthetic frequency
        # source) exposing streams_with()/sequence().
        for sid in data.streams_with(term):
            frequencies = data.sequence(term, sid)
            if not any(frequencies):
                continue
            for segment in self.detector.detect(frequencies):
                if segment.score <= self.config.min_interval_score:
                    continue
                intervals.append(
                    WeightedInterval(
                        interval=segment.interval,
                        weight=segment.score,
                        stream_id=sid,
                    )
                )
        return intervals

    # ------------------------------------------------------------------
    def patterns_for_term(
        self,
        data: Union[SpatiotemporalCollection, FrequencyTensor],
        term: str,
    ) -> List[CombinatorialPattern]:
        """Mine all non-overlapping combinatorial patterns of a term.

        Returns:
            Patterns in non-increasing score order (the iterated-clique
            extraction order).
        """
        intervals = self.stream_intervals(data, term)
        cliques = iterated_max_cliques(
            intervals, max_patterns=self.config.max_patterns
        )
        patterns = [
            self._clique_to_pattern(term, clique)
            for clique in cliques
        ]
        return [
            pattern
            for pattern in patterns
            if len(pattern.streams) >= self.config.min_pattern_streams
        ]

    def top_pattern(
        self,
        data: Union[SpatiotemporalCollection, FrequencyTensor],
        term: str,
    ) -> Optional[CombinatorialPattern]:
        """The single highest-scoring pattern (the HSS problem solution)."""
        intervals = self.stream_intervals(data, term)
        cliques = iterated_max_cliques(intervals, max_patterns=1)
        if not cliques:
            return None
        return self._clique_to_pattern(term, cliques[0])

    def mine(
        self,
        data: Union[SpatiotemporalCollection, FrequencyTensor],
        terms: Optional[Sequence[str]] = None,
        workers: Optional[int] = None,
    ) -> Dict[str, List[CombinatorialPattern]]:
        """Mine patterns for many terms.

        Delegates to the batch pipeline: a raw collection is indexed
        into one shared tensor up front (instead of re-walking every
        stream per term) and terms can be sharded over processes.

        Args:
            data: Collection or tensor.
            terms: Terms to mine; defaults to the full vocabulary.
            workers: Optional process count for term-sharded mining.

        Returns:
            Map of term → its patterns (terms with none are omitted).
        """
        from repro.pipeline import BatchMiner

        return BatchMiner(stcomb=self, workers=workers).mine_combinatorial(
            data, terms
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _clique_to_pattern(term: str, clique: CliqueResult) -> CombinatorialPattern:
        """Translate a clique into a combinatorial pattern (Section 3)."""
        members = tuple(
            (witem.stream_id, witem.interval, witem.weight)
            for witem in clique.members
        )
        return CombinatorialPattern(
            term=term,
            streams=frozenset(witem.stream_id for witem in clique.members),
            timeframe=clique.segment,
            score=clique.weight,
            member_intervals=members,
        )
