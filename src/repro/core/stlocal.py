"""STLocal (Algorithm 2): streaming regional patterns / maximal windows.

Per term, the tracker consumes one snapshot at a time:

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

The tracker also records the per-timestamp counts behind Figures 5
(bursty rectangles per snapshot) and 6 (open windows per term).
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.config import STLocalConfig
from repro.core.patterns import RegionalPattern
from repro.core.rbursty import r_bursty
from repro.errors import StreamError
from repro.intervals.interval import Interval
from repro.spatial.discrepancy import WeightedPoint
from repro.spatial.geometry import Point, Rectangle
from repro.spatial.index import IntervalSpatialIndex, SpatialIndex
from repro.streams.collection import SpatiotemporalCollection
from repro.streams.frequency import FrequencyTensor
from repro.temporal.baselines import ExpectedFrequencyModel
from repro.temporal.max_segments import OnlineMaxSegments

__all__ = ["RegionSequence", "STLocalTermTracker", "STLocal", "sequential_sum"]


def _sum_left_to_right(values: Iterable[float]) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


#: Left-to-right float sum, rounding after every addition: the r-score
#: :meth:`STLocalTermTracker.process` appends to each tracked region.
#: The columnar tracker (:mod:`repro.columnar.sweep`) computes the same
#: sums without it — r-scores by adding member rows of its burstiness
#: matrix one at a time, window totals in ``bursty_members`` by one
#: ``np.cumsum`` along the window — and both add in exactly this order,
#: so a replayed tracker and a sweep-built one agree bit for bit.
#: Builtin ``sum`` of floats is compensated (Neumaier) from CPython 3.12
#: on: ``sum([1e16, 1.0, -1e16])`` is ``1.0`` there and ``0.0`` here.  Up
#: to 3.11 the builtin computes exactly this sum, in C, so it keeps the
#: builtin there.
sequential_sum: Callable[[Iterable[float]], float] = (
    sum if sys.version_info < (3, 12) else _sum_left_to_right
)


@dataclasses.dataclass
class RegionSequence:
    """The r-score sequence ``S`` of one tracked region ``R_S``.

    Attributes:
        region: The rectangle on the map.
        stream_ids: The streams whose geostamps lie inside the region.
        start: Global timestamp of the sequence's first value.
        tracker: Online Ruzzo–Tompa state over the appended r-scores.
        member_order: The member streams in a fixed sorted order, so the
            r-score summation is bit-reproducible across processes
            (frozenset iteration follows the randomised string hash).
    """

    region: Rectangle
    stream_ids: FrozenSet[Hashable]
    start: int
    tracker: OnlineMaxSegments = dataclasses.field(default_factory=OnlineMaxSegments)
    member_order: Tuple[Hashable, ...] = ()

    def __post_init__(self) -> None:
        if not self.member_order:
            self.member_order = tuple(sorted(self.stream_ids, key=repr))

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
            member_order=self.member_order,
        )


class STLocalTermTracker:
    """Streaming STLocal state for a single term.

    Args:
        locations: Geostamp of every stream on the projected plane.
        config: Algorithm settings.
        index: Optional prebuilt spatial index over ``locations``; when
            mining many terms over the same stream set (see
            :class:`repro.pipeline.BatchMiner`) one shared index avoids
            a per-term rebuild.
        copy_locations: Defensively copy ``locations`` (default).  A
            batch pipeline holding thousands of trackers over one
            immutable stream set passes ``False`` to share a single
            mapping; the tracker never mutates it.
    """

    #: Stream counts above which rectangle membership is resolved with a
    #: spatial index instead of a linear scan over all locations.
    INDEX_THRESHOLD = 512

    def __init__(
        self,
        locations: Dict[Hashable, Point],
        config: Optional[STLocalConfig] = None,
        index: Optional[SpatialIndex] = None,
        copy_locations: bool = True,
    ) -> None:
        self.locations = dict(locations) if copy_locations else locations
        self.config = config if config is not None else STLocalConfig()
        self._index: Optional[SpatialIndex] = index
        if index is None and len(self.locations) > self.INDEX_THRESHOLD:
            self._index = IntervalSpatialIndex(
                [(sid, point) for sid, point in self.locations.items()]
            )
        self._sequences: Dict[Hashable, RegionSequence] = {}
        self._archived: List[Tuple[Rectangle, FrozenSet[Hashable], Interval, float]] = []
        self._clock = 0
        self.rectangle_history: List[int] = []
        self.open_history: List[int] = []
        self._init_stream_state()

    def _init_stream_state(self) -> None:
        """Per-stream state: expectation models and burstiness history.

        One model per stream observed so far, and that stream's non-zero
        burstiness values by timestamp.  The columnar tracker
        (:class:`repro.columnar.sweep.ColumnarTermTracker`) keeps the
        same state as dense arrays instead and derives both maps.
        """
        self._models: Dict[Hashable, ExpectedFrequencyModel] = {}
        self._history: Dict[Hashable, Dict[int, float]] = {}

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
        quiet prefix; once any model or sequence exists it must replay
        every remaining snapshot.
        """
        return not self._models and not self._sequences

    # ------------------------------------------------------------------
    def fork(self) -> "STLocalTermTracker":
        """Checkpoint the tracker: an independent, advanceable copy.

        The fork shares the immutable inputs (locations, config, spatial
        index) but owns copies of all mutable state — expectation
        models, open region sequences, archives and histories — so it
        can be fed further snapshots (or discarded) without disturbing
        this tracker.  The live serving layer uses this to preview
        patterns that include a still-open snapshot while keeping the
        durable tracker rewindable to its sealed checkpoint, and the
        differential tests use it to verify a replayed fork matches a
        cold batch run.
        """
        clone = copy.copy(self)
        clone._sequences = {
            key: sequence.fork() for key, sequence in self._sequences.items()
        }
        clone._archived = list(self._archived)
        clone.rectangle_history = list(self.rectangle_history)
        clone.open_history = list(self.open_history)
        clone._fork_stream_state()
        return clone

    def _fork_stream_state(self) -> None:
        """Replace the per-stream state a shallow copy shares with copies."""
        self._models = copy.deepcopy(self._models)
        self._history = {
            sid: dict(values) for sid, values in self._history.items()
        }

    # ------------------------------------------------------------------
    def fast_forward(self, timestamp: int) -> None:
        """Skip ahead to ``timestamp`` while the tracker is pristine.

        Processing an empty snapshot before any stream has ever been
        observed is a strict no-op — no models exist, no burstiness is
        computed, no rectangle can appear — so the leading quiet stretch
        of a term's timeline can be skipped outright.  The lazily
        created expectation models already account for the skipped
        snapshots through :meth:`_prime`, so the result is identical to
        replaying the empty prefix.

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

    def advance(
        self, snapshots: Mapping[int, Mapping[Hashable, float]], through: int
    ) -> None:
        """Feed every snapshot in ``[clock, through)``.

        A pristine tracker first skips its quiet prefix with
        :meth:`fast_forward`, as the batch pipeline does; every later
        snapshot goes through :meth:`process`.

        Args:
            snapshots: The term's sparse per-timestamp slices (absent
                timestamps are empty snapshots).
            through: Advance the clock to this timestamp (exclusive); a
                clock already there is left alone.
        """
        if self._clock >= through:
            return
        if self.pristine:
            active = [
                timestamp
                for timestamp, slice_ in snapshots.items()
                if self._clock <= timestamp < through and slice_
            ]
            self.fast_forward(min(active) if active else through)
        for timestamp in range(self._clock, through):
            self.process(snapshots.get(timestamp, {}))

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
        burstiness = self._update_burstiness(timestamp, frequencies)

        points = [
            WeightedPoint(
                point=self.locations[sid], weight=value, stream_id=sid
            )
            for sid, value in burstiness.items()
        ]
        rectangles = r_bursty(points)
        self.rectangle_history.append(len(rectangles))

        for result in rectangles:
            members = self._members_of(result.rectangle)
            if not members:
                # A memberless rectangle can never score, and tracking
                # it would canonicalise every such region to the same
                # frozenset() key, silently merging distinct regions
                # into one RegionSequence.
                continue
            key: Hashable
            if self.config.key_by_geometry:
                key = (
                    result.rectangle.min_x,
                    result.rectangle.min_y,
                    result.rectangle.max_x,
                    result.rectangle.max_y,
                )
            else:
                key = members
            if key not in self._sequences:
                self._sequences[key] = RegionSequence(
                    region=result.rectangle,
                    stream_ids=members,
                    start=timestamp,
                )

        # Append the current r-score to every tracked sequence and prune
        # the ones whose totals went negative.
        for key in list(self._sequences):
            sequence = self._sequences[key]
            r_score = sequential_sum(
                burstiness.get(sid, 0.0) for sid in sequence.member_order
            )
            sequence.append(r_score)
            if sequence.total < 0.0:
                self._archive(sequence)
                del self._sequences[key]

        self.open_history.append(len(self._sequences))
        self._clock += 1
        return len(rectangles)

    def _members_of(self, rectangle: Rectangle) -> FrozenSet[Hashable]:
        """Streams whose geostamps lie inside a rectangle."""
        if self._index is not None:
            return frozenset(self._index.query_rectangle(rectangle))
        return frozenset(
            sid
            for sid, location in self.locations.items()
            if rectangle.contains_point(location)
        )

    # ------------------------------------------------------------------
    def _update_burstiness(
        self, timestamp: int, frequencies: Mapping[Hashable, float]
    ) -> Dict[Hashable, float]:
        """Eq. 7 for every stream with history or a current observation."""
        for sid in frequencies:
            if sid not in self.locations:
                raise StreamError(f"unknown stream {sid!r} in snapshot")
        burstiness: Dict[Hashable, float] = {}
        active = set(self._models) | {
            sid for sid, value in frequencies.items() if value > 0.0
        }
        in_warmup = timestamp < self.config.warmup
        # Fixed evaluation order: downstream float summations (weighted
        # points, grid cells) then produce bit-identical results in any
        # process regardless of string-hash randomisation.
        for sid in sorted(active, key=repr):
            observed = float(frequencies.get(sid, 0.0))
            model = self._models.get(sid)
            if model is None:
                model = self.config.baseline_factory()
                self._prime(model, timestamp)
                self._models[sid] = model
            if in_warmup:
                burstiness[sid] = 0.0
            else:
                burstiness[sid] = observed - model.expected(timestamp)
            model.observe(timestamp, observed)
        if self.config.track_history:
            for sid, value in burstiness.items():
                if value != 0.0:
                    self._history.setdefault(sid, {})[timestamp] = value
        return burstiness

    @staticmethod
    def _prime(model: ExpectedFrequencyModel, zeros: int) -> None:
        """Feed the leading zero observations a lazily-created model missed.

        The paper's default baseline averages over *all* snapshots before
        ``i``, so the silent zeros before a term's first appearance in a
        stream must count.
        """
        prime = getattr(model, "prime_zeros", None)
        if prime is not None:
            prime(zeros)
            return
        for j in range(zeros):
            model.observe(j, 0.0)

    def _archive(self, sequence: RegionSequence) -> None:
        for timeframe, score in sequence.windows():
            self._archived.append(
                (sequence.region, sequence.stream_ids, timeframe, score)
            )

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

        Returns ``None`` when history tracking is disabled.
        """
        if not self.config.track_history:
            return None
        bursty = set()
        start, end = timeframe.start, timeframe.end
        frame_length = end - start + 1
        for sid in streams:
            history = self._history.get(sid)
            if history is None:
                continue
            # Both walks add the same non-zero values in the same
            # ascending order (history entries are recorded in
            # timestamp order and zeros are inert), so take whichever
            # side is shorter: the timeframe for a narrow window over a
            # long history, the history for a sparse stream.
            total = 0.0
            if len(history) <= frame_length:
                for timestamp, value in history.items():
                    if start <= timestamp <= end:
                        total += value
            else:
                for timestamp in timeframe:
                    total += history.get(timestamp, 0.0)
            if total > 0.0:
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
    replay a collection one timestamp at a time per term.

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
        """Replay the whole timeline for one term, returning the tracker."""
        tensor, locations = _resolve(data, locations)
        tracker = self.tracker(locations)
        for timestamp in range(tensor.timeline):
            tracker.process(tensor.slice_at(term, timestamp))
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
