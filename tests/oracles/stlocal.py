"""Algorithm 2 one snapshot at a time: the reference for the STLocal sweep.

:class:`ReferenceTermTracker` transcribes the paper's pseudocode: each
``process`` call updates one expectation-model object per stream,
computes ``observed − expected`` (Eq. 7), runs R-Bursty on the weighted
stream locations, resolves rectangle membership by a linear scan,
appends every tracked region's r-score and prunes. The shipped
:class:`~repro.core.stlocal.STLocalTermTracker` advances by the columnar
sweep instead; the differential suites hold the two byte-equal —
patterns, per-snapshot histories, burstiness histories and model state.

Also here: the per-snapshot and per-term replays the benchmarks time
against the sweep, and the legacy ``trackers/`` segment older stores
carry.
"""

import copy
import sys
from collections import deque
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
)

import numpy as np

from repro.core.config import STLocalConfig
from repro.core.patterns import RegionalPattern
from repro.core.rbursty import r_bursty
from repro.core.stlocal import (
    RegionSequence,
    STLocalTermTracker,
    _term_snapshots,
)
from repro.errors import StreamError
from repro.intervals.interval import Interval
from repro.spatial.discrepancy import WeightedPoint
from repro.spatial.geometry import Point, Rectangle
from repro.store.format import SegmentReader, SegmentWriter, rewrite_manifest
from repro.temporal.baselines import ExpectedFrequencyModel


def _sum_left_to_right(values: Iterable[float]) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


#: Left-to-right float sum, rounding after every addition: the r-score
#: ``process`` appends to each tracked region.  The sweep adds member
#: rows of its burstiness matrix one at a time, and window totals by one
#: ``np.cumsum``, in exactly this order.  Builtin ``sum`` of floats is
#: compensated (Neumaier) from CPython 3.12 on: ``sum([1e16, 1.0,
#: -1e16])`` is ``1.0`` there and ``0.0`` here.  Up to 3.11 the builtin
#: computes exactly this sum, in C, so it keeps the builtin there.
sequential_sum: Callable[[Iterable[float]], float] = (
    sum if sys.version_info < (3, 12) else _sum_left_to_right
)


class ReferenceTermTracker:
    """STLocal state for one term, advanced one snapshot per ``process``.

    Args:
        locations: Geostamp of every stream.
        config: Algorithm settings.
    """

    def __init__(
        self,
        locations: Mapping[Hashable, Point],
        config: Optional[STLocalConfig] = None,
    ) -> None:
        self.locations = dict(locations)
        self.config = config if config is not None else STLocalConfig()
        self._sequences: Dict[Hashable, RegionSequence] = {}
        #: Each open sequence's members sorted by repr: the r-score
        #: summation order, the same in every process.
        self._member_order: Dict[Hashable, Tuple[Hashable, ...]] = {}
        self._archived: List[
            Tuple[Rectangle, FrozenSet[Hashable], Interval, float]
        ] = []
        self._clock = 0
        self.rectangle_history: List[int] = []
        self.open_history: List[int] = []
        self._models: Dict[Hashable, ExpectedFrequencyModel] = {}
        self._history: Dict[Hashable, Dict[int, float]] = {}

    @property
    def clock(self) -> int:
        return self._clock

    @property
    def open_sequences(self) -> int:
        return len(self._sequences)

    @property
    def pristine(self) -> bool:
        return not self._models and not self._sequences

    def fork(self) -> "ReferenceTermTracker":
        """An independent copy sharing only locations and config."""
        clone = copy.copy(self)
        clone._sequences = {
            key: sequence.fork() for key, sequence in self._sequences.items()
        }
        clone._member_order = dict(self._member_order)
        clone._archived = list(self._archived)
        clone.rectangle_history = list(self.rectangle_history)
        clone.open_history = list(self.open_history)
        clone._models = copy.deepcopy(self._models)
        clone._history = {
            sid: dict(values) for sid, values in self._history.items()
        }
        return clone

    def fast_forward(self, timestamp: int) -> None:
        """Skip a quiet prefix while pristine (a strict no-op prefix)."""
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
        """Skip the quiet prefix while pristine, then ``process`` every
        snapshot in ``[clock, through)``."""
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
        """Consume the next snapshot; returns its bursty rectangle count."""
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
                # frozenset() key, merging distinct regions.
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
                self._member_order[key] = tuple(sorted(members, key=repr))

        # Append the current r-score to every tracked sequence and prune
        # the ones whose totals went negative.
        for key in list(self._sequences):
            sequence = self._sequences[key]
            r_score = sequential_sum(
                burstiness.get(sid, 0.0) for sid in self._member_order[key]
            )
            sequence.append(r_score)
            if sequence.total < 0.0:
                for timeframe, score in sequence.windows():
                    self._archived.append(
                        (sequence.region, sequence.stream_ids, timeframe, score)
                    )
                del self._sequences[key]
                del self._member_order[key]

        self.open_history.append(len(self._sequences))
        self._clock += 1
        return len(rectangles)

    def _members_of(self, rectangle: Rectangle) -> FrozenSet[Hashable]:
        return frozenset(
            sid
            for sid, location in self.locations.items()
            if rectangle.contains_point(location)
        )

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
        """Feed a lazily created model the leading zeros it missed."""
        prime = getattr(model, "prime_zeros", None)
        if prime is not None:
            prime(zeros)
            return
        for j in range(zeros):
            model.observe(j, 0.0)

    def windows(
        self,
    ) -> List[Tuple[Rectangle, FrozenSet[Hashable], Interval, float]]:
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
        if not self.config.track_history:
            return None
        bursty = set()
        for sid in streams:
            history = self._history.get(sid)
            if history is None:
                continue
            total = 0.0
            for timestamp in timeframe:
                total += history.get(timestamp, 0.0)
            if total > 0.0:
                bursty.add(sid)
        return frozenset(bursty)

    def patterns(self, term: str) -> List[RegionalPattern]:
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


# ----------------------------------------------------------------------
# Replays
# ----------------------------------------------------------------------
def replay_trackers(
    tensor,
    terms: Sequence[str],
    locations: Mapping[Hashable, Point],
    config: STLocalConfig,
    truncate_tails: bool = True,
) -> Dict[str, ReferenceTermTracker]:
    """Snapshot-major replay: every term's tracker fed one snapshot at a
    time, each fast-forwarded to its term's first active snapshot and,
    with ``truncate_tails``, retired after its last."""
    shared = dict(locations)
    trackers = {term: ReferenceTermTracker(shared, config) for term in terms}
    snapshots: Dict[str, Dict[int, Dict[Hashable, float]]] = {}
    last: Dict[str, int] = {}
    starting: Dict[int, List[str]] = {}
    for term in terms:
        snaps = _term_snapshots(tensor, term)
        if not snaps:
            continue
        snapshots[term] = snaps
        last[term] = max(snaps)
        starting.setdefault(min(snaps), []).append(term)

    live: List[str] = []
    for timestamp in range(tensor.timeline):
        for term in starting.get(timestamp, ()):
            trackers[term].fast_forward(timestamp)
            live.append(term)
        if not live:
            continue
        survivors = []
        for term in live:
            trackers[term].process(snapshots[term].get(timestamp, {}))
            if truncate_tails and timestamp >= last[term]:
                continue
            survivors.append(term)
        live = survivors
    return trackers


def replay_patterns(
    tensor,
    terms: Sequence[str],
    locations: Mapping[Hashable, Point],
    config: STLocalConfig,
    truncate_tails: bool = True,
) -> Dict[str, List[RegionalPattern]]:
    """The replay's patterns, shaped like ``BatchMiner.mine_regional``."""
    trackers = replay_trackers(tensor, terms, locations, config, truncate_tails)
    mined = {}
    for term in terms:
        patterns = trackers[term].patterns(term)
        if patterns:
            mined[term] = patterns
    return mined


def replay_term(
    tensor,
    term: str,
    locations: Mapping[Hashable, Point],
    config: STLocalConfig,
) -> ReferenceTermTracker:
    """Term-major replay: one tracker over the term's whole timeline."""
    tracker = ReferenceTermTracker(locations, config)
    for timestamp in range(tensor.timeline):
        tracker.process(tensor.slice_at(term, timestamp))
    return tracker


# ----------------------------------------------------------------------
# State comparison
# ----------------------------------------------------------------------
def history_of(tracker) -> Dict[Hashable, Dict[int, float]]:
    """Each stream's non-zero burstiness values by timestamp."""
    if isinstance(tracker, ReferenceTermTracker):
        return tracker._history
    history: Dict[Hashable, Dict[int, float]] = {}
    if not tracker.config.track_history:
        return history
    matrix = tracker._matrix
    for row, sid in enumerate(tracker._row_ids):
        columns = np.flatnonzero(matrix[row])
        if len(columns):
            history[sid] = dict(
                zip(
                    (tracker._first + columns).tolist(),
                    matrix[row, columns].tolist(),
                )
            )
    return history


def _state(value):
    """A model's attributes as comparable plain data, recursively."""
    if isinstance(value, (list, tuple, deque)):
        return [_state(item) for item in value]
    if isinstance(value, dict):
        return {key: _state(item) for key, item in value.items()}
    if hasattr(value, "__dict__"):
        return (type(value).__name__, _state(vars(value)))
    return value


def model_states(tracker) -> Dict[Hashable, object]:
    """Every stream's expectation-model state, comparable across the
    reference tracker and the swept one."""
    if isinstance(tracker, ReferenceTermTracker):
        return {sid: _state(model) for sid, model in tracker._models.items()}
    if tracker._models is None:
        # The prefix-sum baseline's model is its total: a zero-prior
        # running mean that has observed every snapshot since 0.
        return {
            sid: (
                "RunningMeanBaseline",
                {"_prior": 0.0, "_count": tracker.clock, "_total": total},
            )
            for sid, total in zip(tracker._row_ids, tracker._totals.tolist())
        }
    return {
        sid: _state(model)
        for sid, model in zip(tracker._row_ids, tracker._models)
    }


def assert_trackers_equal(
    reference: ReferenceTermTracker, tracker: STLocalTermTracker
) -> None:
    """Same clock, histories, archive, open sequences and model state."""
    assert reference.rectangle_history == tracker.rectangle_history
    assert reference.open_history == tracker.open_history
    assert reference.clock == tracker.clock
    assert history_of(reference) == history_of(tracker)
    assert reference._archived == tracker._archived
    assert list(reference._sequences) == list(tracker._sequences)
    for key, ref_seq in reference._sequences.items():
        seq = tracker._sequences[key]
        assert ref_seq.region == seq.region
        assert ref_seq.stream_ids == seq.stream_ids
        assert ref_seq.start == seq.start
        assert ref_seq.tracker._cumulative == seq.tracker._cumulative
        assert ref_seq.tracker._length == seq.tracker._length
        assert [
            (c.start, c.end, c.left_sum, c.right_sum)
            for c in ref_seq.tracker._candidates
        ] == [
            (c.start, c.end, c.left_sum, c.right_sum)
            for c in seq.tracker._candidates
        ]
    assert model_states(reference) == model_states(tracker)


# ----------------------------------------------------------------------
# Legacy tracker segments
# ----------------------------------------------------------------------
def add_legacy_tracker_segment(
    path: str, prefixes: Sequence[str] = ("trackers",)
) -> None:
    """Give a committed store the tracker segments older saves wrote.

    Each prefix gets a ``meta.json`` and one array, listed in the
    manifest; a manifest with a ``trackers`` key records them as
    present, as those saves did.  Nothing reads the contents.
    """
    manifest = dict(SegmentReader(path, verify=True).manifest)
    writer = SegmentWriter(path, fresh=False)
    for prefix in prefixes:
        writer.add_json(f"{prefix}/meta.json", {"config": None, "terms": []})
        writer.add_array(
            f"{prefix}/model_totals.npy", np.zeros(0, dtype="<f8")
        )
    manifest["files"] = {**manifest["files"], **writer._files}
    metadata = dict(manifest.get("metadata", {}))
    if "trackers" in metadata:
        metadata["trackers"] = True
    manifest["metadata"] = metadata
    rewrite_manifest(path, manifest)
