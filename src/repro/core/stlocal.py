"""STLocal (Algorithm 2): streaming regional patterns / maximal windows.

Per term, the tracker consumes snapshots in timestamp order:

1. update each stream's expected-frequency model and compute the
   discrepancy burstiness ``B(t, D_x[i]) = observed − expected`` (Eq. 7);
2. run R-Bursty on the weighted stream locations, obtaining the
   snapshot's non-overlapping bursty rectangles;
3. start tracking a *region sequence* for every rectangle whose region
   is not yet tracked (regions are canonicalised by their member-stream
   set by default — geometry keying is the ablation switch);
4. append the current r-score of every tracked region to its sequence
   and update the region's maximal segments online (Ruzzo–Tompa
   ``GetMax``) — each maximal segment is a maximal spatiotemporal
   window (Definition 2);
5. drop any sequence whose running total goes negative: it can no
   longer contribute a new maximal window (Lines 11–12 of Algorithm 2),
   archiving the windows it produced.

:class:`STLocalTermTracker` keeps a term's per-stream state as arrays
and extends it over any run of snapshots in one columnar sweep
(:mod:`repro.columnar.sweep`); :meth:`~STLocalTermTracker.process` is
an advance over one snapshot.  The snapshot-at-a-time transcription of
the pseudocode is the test oracle ``tests/oracles/stlocal.py``, which
the differential suites hold the tracker byte-equal to.

The tracker also records the per-timestamp counts behind Figures 5
(bursty rectangles per snapshot) and 6 (open windows per term).
"""

from __future__ import annotations

import copy
import dataclasses
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.config import STLocalConfig
from repro.core.patterns import RegionalPattern
from repro.errors import StreamError
from repro.intervals.interval import Interval
from repro.spatial.geometry import Point, Rectangle
from repro.streams.collection import SpatiotemporalCollection
from repro.streams.frequency import FrequencyTensor
from repro.temporal.baselines import ExpectedFrequencyModel
from repro.temporal.max_segments import OnlineMaxSegments

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columnar.sweep import LocationStore

__all__ = ["RegionSequence", "STLocalTermTracker", "STLocal"]

#: timestamp → stream → frequency: one term's sparse snapshot slices.
TermSnapshots = Mapping[int, Mapping[Hashable, float]]


@dataclasses.dataclass
class RegionSequence:
    """The r-score sequence ``S`` of one tracked region ``R_S``.

    Attributes:
        region: The rectangle on the map.
        stream_ids: The streams whose geostamps lie inside the region.
        start: Global timestamp of the sequence's first value.
        tracker: Online Ruzzo–Tompa state over the appended r-scores.
    """

    region: Rectangle
    stream_ids: FrozenSet[Hashable]
    start: int
    tracker: OnlineMaxSegments = dataclasses.field(default_factory=OnlineMaxSegments)

    def append(self, r_score: float) -> None:
        self.tracker.add(r_score)

    @property
    def total(self) -> float:
        """``S.total`` — the pruning statistic of Algorithm 2."""
        return self.tracker.total

    def windows(self) -> List[Tuple[Interval, float]]:
        """Current maximal windows as (global timeframe, w-score) pairs."""
        return [
            (segment.interval.shift(self.start), segment.score)
            for segment in self.tracker.segments()
        ]

    def fork(self) -> "RegionSequence":
        """An independent copy sharing only the immutable fields."""
        return RegionSequence(
            region=self.region,
            stream_ids=self.stream_ids,
            start=self.start,
            tracker=self.tracker.fork(),
        )


class STLocalTermTracker:
    """Streaming STLocal state for a single term.

    The per-stream state is columnar: one burstiness matrix (rows =
    every stream observed so far, in sorted-by-``repr`` order; columns
    = timestamps from the first observation to the clock) and, per row,
    either one running total — the paper-default zero-prior
    :class:`~repro.temporal.baselines.RunningMeanBaseline`, a prefix
    sum — or the expectation-model object of any other
    ``baseline_factory``.  :meth:`advance` extends the state with the
    columnar sweep, which builds new arrays and advances copies of the
    models, so :meth:`fork` shares them all.

    Args:
        locations: Geostamp of every stream on the projected plane, or
            a :class:`~repro.columnar.sweep.LocationStore` shared by
            every tracker over one stream set (the batch miner and the
            live feeder pass one).
        config: Algorithm settings.
    """

    def __init__(
        self,
        locations: Union[Mapping[Hashable, Point], "LocationStore"],
        config: Optional[STLocalConfig] = None,
    ) -> None:
        # The sweep module builds on this one, so it is imported here.
        from repro.columnar.sweep import LocationStore, prefix_sum_baseline

        self._store = (
            locations
            if isinstance(locations, LocationStore)
            else LocationStore(locations)
        )
        self.config = config if config is not None else STLocalConfig()
        self._sequences: Dict[Hashable, RegionSequence] = {}
        self._archived: List[Tuple[Rectangle, FrozenSet[Hashable], Interval, float]] = []
        self._clock = 0
        self.rectangle_history: List[int] = []
        self.open_history: List[int] = []
        #: Streams with a model, sorted by repr (the matrix row order).
        self._row_ids: List[Hashable] = []
        self._row_of: Dict[Hashable, int] = {}
        #: Timestamp of matrix column 0 (the first observation).
        self._first = 0
        #: Burstiness, rows × (clock − first); no columns when history
        #: tracking is off.
        self._matrix = np.zeros((0, 0))
        #: Running-mean total of each row (prefix-sum baseline only).
        self._totals = np.zeros(0)
        #: Expectation model of each row; ``None`` for the prefix-sum
        #: baseline, whose model state is ``_totals``.
        self._models: Optional[List[ExpectedFrequencyModel]] = (
            None if prefix_sum_baseline(self.config) else []
        )

    # ------------------------------------------------------------------
    @property
    def clock(self) -> int:
        """Number of snapshots processed so far."""
        return self._clock

    @property
    def open_sequences(self) -> int:
        """Currently tracked (open) region sequences."""
        return len(self._sequences)

    @property
    def pristine(self) -> bool:
        """True while the tracker has never observed any activity.

        A pristine tracker may still be :meth:`fast_forward`-ed over a
        quiet prefix; once any model or sequence exists it must advance
        through every remaining snapshot.
        """
        return not self._row_ids and not self._sequences

    # ------------------------------------------------------------------
    def fork(self) -> "STLocalTermTracker":
        """Checkpoint the tracker: an independent, advanceable copy.

        The fork owns copies of the open region sequences, archives and
        histories, and shares the rest: the locations and config, and
        the burstiness arrays and models, which an advance replaces
        instead of writing into.  The live serving layer uses this to
        preview patterns that include a still-open snapshot while
        keeping the durable tracker rewindable to its sealed
        checkpoint.
        """
        clone = copy.copy(self)
        clone._sequences = {
            key: sequence.fork() for key, sequence in self._sequences.items()
        }
        clone._archived = list(self._archived)
        clone.rectangle_history = list(self.rectangle_history)
        clone.open_history = list(self.open_history)
        return clone

    # ------------------------------------------------------------------
    def fast_forward(self, timestamp: int) -> None:
        """Skip ahead to ``timestamp`` while the tracker is pristine.

        Processing an empty snapshot before any stream has ever been
        observed is a strict no-op — no models exist, no burstiness is
        computed, no rectangle can appear — so the leading quiet stretch
        of a term's timeline can be skipped outright.  A model created
        later is primed with the zeros it missed, so the result is
        identical to replaying the empty prefix.

        Raises:
            StreamError: when the tracker has already observed activity
                (skipping would then drop real model updates) or when
                ``timestamp`` is behind the clock.
        """
        if timestamp < self._clock:
            raise StreamError(
                f"cannot fast-forward backwards ({timestamp} < {self._clock})"
            )
        if not self.pristine:
            raise StreamError(
                "fast_forward is only valid before the first observation"
            )
        skipped = timestamp - self._clock
        self.rectangle_history.extend([0] * skipped)
        self.open_history.extend([0] * skipped)
        self._clock = timestamp

    def advance(self, snapshots: TermSnapshots, through: int) -> None:
        """Feed every snapshot in ``[clock, through)`` in one sweep.

        A pristine tracker first skips its quiet prefix.

        Args:
            snapshots: The term's sparse per-timestamp slices (absent
                timestamps are empty snapshots).
            through: Advance the clock to this timestamp (exclusive); a
                clock already there is left alone.

        Raises:
            StreamError: if a slice refers to an unknown stream.
        """
        from repro.columnar.sweep import advance_trackers

        advance_trackers([(self, snapshots, through)])

    def process(self, frequencies: Mapping[Hashable, float]) -> int:
        """Consume the next snapshot.

        Args:
            frequencies: Sparse map of stream → observed term frequency
                at the current timestamp; absent streams observed zero.

        Returns:
            The number of bursty rectangles found in this snapshot.

        Raises:
            StreamError: if a frequency refers to an unknown stream.
        """
        timestamp = self._clock
        self.advance({timestamp: frequencies}, timestamp + 1)
        return self.rectangle_history[-1]

    # ------------------------------------------------------------------
    def windows(self) -> List[Tuple[Rectangle, FrozenSet[Hashable], Interval, float]]:
        """All maximal windows found so far (archived + live)."""
        live = []
        for sequence in self._sequences.values():
            for timeframe, score in sequence.windows():
                live.append(
                    (sequence.region, sequence.stream_ids, timeframe, score)
                )
        return list(self._archived) + live

    def bursty_members(
        self, streams: FrozenSet[Hashable], timeframe: Interval
    ) -> Optional[FrozenSet[Hashable]]:
        """Member streams with positive net burstiness over a window.

        One cumsum along the window's matrix slice.  Returns ``None``
        when history tracking is disabled.
        """
        if not self.config.track_history:
            return None
        matrix = self._matrix
        lo = max(timeframe.start - self._first, 0)
        hi = min(timeframe.end - self._first + 1, matrix.shape[1])
        # Built with add() in ``streams`` order, so the frozenset
        # iterates like one built from the member set directly.
        bursty = set()
        row_of = self._row_of
        members = [sid for sid in streams if sid in row_of]
        if lo < hi and members:
            # cumsum adds left to right, the order a per-snapshot walk
            # over the window adds in (zeros are inert).
            totals = np.cumsum(
                matrix[[row_of[sid] for sid in members], lo:hi], axis=1
            )[:, -1]
            for sid, positive in zip(members, (totals > 0.0).tolist()):
                if positive:
                    bursty.add(sid)
        return frozenset(bursty)

    def patterns(self, term: str) -> List[RegionalPattern]:
        """All maximal windows as regional patterns, best first."""
        patterns = [
            RegionalPattern(
                term=term,
                region=region,
                streams=streams,
                timeframe=timeframe,
                score=score,
                bursty_streams=self.bursty_members(streams, timeframe),
            )
            for region, streams, timeframe, score in self.windows()
            if score > self.config.min_window_score
        ]
        # Fully deterministic order: equal-score patterns are further
        # ordered by timeframe and region so the ranking is independent
        # of archive-versus-live bookkeeping order.
        patterns.sort(
            key=lambda p: (
                -p.score,
                p.timeframe.start,
                p.timeframe.end,
                p.region.min_x,
                p.region.min_y,
                p.region.max_x,
                p.region.max_y,
            )
        )
        return patterns


class STLocal:
    """Regional spatiotemporal pattern miner (batch façade).

    Wraps :class:`STLocalTermTracker` with the paper's offline usage:
    run a collection's whole timeline per term.

    Args:
        config: Algorithm settings shared by all trackers.
    """

    def __init__(self, config: Optional[STLocalConfig] = None) -> None:
        self.config = config if config is not None else STLocalConfig()

    # ------------------------------------------------------------------
    def tracker(self, locations: Dict[Hashable, Point]) -> STLocalTermTracker:
        """Create a streaming tracker for one term."""
        return STLocalTermTracker(locations, config=self.config)

    def run_term(
        self,
        data: Union[SpatiotemporalCollection, FrequencyTensor],
        term: str,
        locations: Optional[Dict[Hashable, Point]] = None,
    ) -> STLocalTermTracker:
        """Advance a tracker over one term's whole timeline."""
        tensor, locations = _resolve(data, locations)
        tracker = self.tracker(locations)
        tracker.advance(_term_snapshots(tensor, term), tensor.timeline)
        return tracker

    def patterns_for_term(
        self,
        data: Union[SpatiotemporalCollection, FrequencyTensor],
        term: str,
        locations: Optional[Dict[Hashable, Point]] = None,
    ) -> List[RegionalPattern]:
        """All maximal windows of a term over the full timeline."""
        return self.run_term(data, term, locations).patterns(term)

    def top_pattern(
        self,
        data: Union[SpatiotemporalCollection, FrequencyTensor],
        term: str,
        locations: Optional[Dict[Hashable, Point]] = None,
    ) -> Optional[RegionalPattern]:
        """The highest-scoring maximal window of a term, if any."""
        patterns = self.patterns_for_term(data, term, locations)
        return patterns[0] if patterns else None

    def mine(
        self,
        data: Union[SpatiotemporalCollection, FrequencyTensor],
        terms: Optional[Sequence[str]] = None,
        locations: Optional[Dict[Hashable, Point]] = None,
        workers: Optional[int] = None,
    ) -> Dict[str, List[RegionalPattern]]:
        """Mine regional patterns for many terms.

        Delegates to the snapshot-major batch pipeline: one sweep over
        the shared tensor feeds every term's tracker (identical output
        to the per-term replay, substantially less work).

        Args:
            data: Collection or tensor.
            terms: Terms to mine; defaults to the full vocabulary.
            locations: Stream locations (required with a raw tensor).
            workers: Optional process count for term-sharded mining.

        Returns:
            Map of term → its maximal windows (terms with none omitted).
        """
        from repro.pipeline import BatchMiner

        return BatchMiner(stlocal=self, workers=workers).mine_regional(
            data, terms, locations
        )


def _resolve(
    data: Union[SpatiotemporalCollection, FrequencyTensor],
    locations: Optional[Dict[Hashable, Point]],
) -> Tuple[FrequencyTensor, Dict[Hashable, Point]]:
    """Normalise (data, locations) to a tensor + location map."""
    if isinstance(data, SpatiotemporalCollection):
        tensor = FrequencyTensor(data)
        locations = data.locations()
    else:
        tensor = data
        if locations is None:
            raise StreamError(
                "locations are required when mining from a FrequencyTensor"
            )
    return tensor, locations


def _term_snapshots(tensor, term: str) -> Dict[int, Dict[Hashable, float]]:
    """Per-timestamp slices of one term, via the fast tensor path.

    Falls back to per-timestamp ``slice_at`` for duck-typed frequency
    sources (e.g. the synthetic generators) that lack
    :meth:`~repro.streams.FrequencyTensor.term_snapshots`.
    """
    fast = getattr(tensor, "term_snapshots", None)
    if fast is not None:
        return fast(term)
    snapshots: Dict[int, Dict[Hashable, float]] = {}
    for timestamp in range(tensor.timeline):
        snapshot = tensor.slice_at(term, timestamp)
        if snapshot:
            snapshots[timestamp] = snapshot
    return snapshots
