"""Columnar STLocal burst sweep: the term tracker as arrays.

The object tracker (:class:`~repro.core.stlocal.STLocalTermTracker`)
advances one snapshot at a time: every ``process`` call updates
per-stream expectation-model *objects*, builds
:class:`~repro.spatial.discrepancy.WeightedPoint` dataclasses, and
re-enters NumPy for a grid the size of a postage stamp.  This module
keeps a term's per-stream state as arrays instead
(:class:`ColumnarTermTracker`: a dense burstiness matrix and one model
total per stream) and extends a tracker over any run of snapshots
``[clock, through)`` in three phases:

1. **prepare** — the new ``observed − expected`` burstiness columns are
   computed in one vectorized pass from each model's carried total
   (:func:`repro.columnar.kernels.running_mean_burstiness`), along with
   one coordinate compression per activation segment;
2. **batch** — the first R-Bursty rectangle of every segment-batchable
   snapshot of *every* term is extracted by the batched Kadane
   (:func:`repro.columnar.kernels.batched_first_rectangles`), one call
   per bucket of grid heights, each padded only to its own largest
   grid (:func:`_by_height` weighs a call's fixed cost against the
   padded cells);
   a snapshot is batchable when no active stream's weight is exactly
   zero, so its per-snapshot compression provably equals its segment's
   shared one.  The remaining extractions — unclean first rounds and
   all second-and-later rectangles after point retirement — are
   resolved by the same batched kernel in rounds, each round
   compressing every still-pending snapshot exactly as the reference
   per-snapshot call would;
3. **finish** — rectangles become region lifecycles: the r-score series
   of every region alive in the run — the open sequences carried over
   and the ones created here — is read off its member set's score
   series (sequential member-row additions over the new columns), its
   pruning snapshot found by one scalar running-total scan, and a new
   region's Ruzzo–Tompa state materialised in one batch pass.  Keys,
   pruning, archive order and sequence-map order are those of one
   ``process`` call per snapshot.

The batch miner sweeps every term from a pristine tracker in one call
(:func:`sweep_terms`); the live feeder (:mod:`repro.pipeline.
incremental`) extends a term's durable tracker as snapshots seal and a
fork of it through the open ones.  The columnar tracker only represents
the paper-default baseline (a zero-prior
:class:`~repro.temporal.baselines.RunningMeanBaseline`), whose running
mean is expressible as a prefix sum; any other ``baseline_factory``
keeps the object tracker and its ``process`` replay (see
:func:`columnar_supported`).  Output equality is enforced by
``tests/test_columnar_differential.py``.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.columnar import kernels
from repro.core.config import STLocalConfig
from repro.core.stlocal import RegionSequence, STLocalTermTracker
from repro.errors import StreamError
from repro.intervals.interval import Interval
from repro.spatial.geometry import Point, Rectangle
from repro.spatial.index import IntervalSpatialIndex, SpatialIndex
from repro.temporal.baselines import RunningMeanBaseline
from repro.temporal.max_segments import OnlineMaxSegments

__all__ = [
    "columnar_supported",
    "ColumnarTermTracker",
    "LocationStore",
    "sweep_terms",
]

#: timestamp → stream → frequency: one term's sparse snapshot slices.
TermSnapshots = Mapping[int, Mapping[Hashable, float]]

#: Below this stream count a scalar membership scan beats the
#: vectorized rectangle mask (NumPy call overhead again).
_SCALAR_MEMBER_SCAN = 256

#: Sentinel distinguishing "no precomputed first rectangle" from "the
#: batch proved there is none".
_UNBATCHED = object()

#: Rectangle bounds tuple: (score, min_x, min_y, max_x, max_y).
Bounds = Tuple[float, float, float, float, float]


def columnar_supported(config: STLocalConfig) -> bool:
    """True when the columnar sweep reproduces this configuration.

    The vectorized burstiness matrix encodes exactly one baseline: the
    paper's default running mean over all earlier snapshots with a zero
    prior (``expected(i) = Σ_{j<i} y_j / i``).  A customised
    ``baseline_factory`` — different model class, subclass, or non-zero
    prior — routes the miner back to the legacy per-snapshot replay.
    """
    try:
        probe = config.baseline_factory()
    except (TypeError, ValueError):
        # A factory that rejects the no-argument probe call (extra
        # required parameters, constructor validation) is by definition
        # not the paper default; anything else it raises is a real bug
        # and must surface.
        return False
    return (
        type(probe) is RunningMeanBaseline
        and probe.expected(0) == 0.0
        and getattr(probe, "_count", None) == 0
        and getattr(probe, "_total", None) == 0.0
    )


class LocationStore:
    """Shared columnar view of the stream locations for one mine call.

    Holds the coordinate columns every term's sweep reads from, plus
    the (optional) spatial index handed to each produced tracker — the
    per-call equivalents of what
    :func:`~repro.pipeline.batch.replay_trackers` builds inline.
    """

    def __init__(self, locations: Dict[Hashable, Point]) -> None:
        self.locations = dict(locations)
        self.ids: List[Hashable] = list(self.locations)
        self.xs: List[float] = [p.x for p in self.locations.values()]
        self.ys: List[float] = [p.y for p in self.locations.values()]
        self._x_arr = np.asarray(self.xs, dtype=float)
        self._y_arr = np.asarray(self.ys, dtype=float)
        self.coords: Dict[Hashable, Tuple[float, float]] = {
            sid: (p.x, p.y) for sid, p in self.locations.items()
        }
        self.index: Optional[SpatialIndex] = None
        if len(self.locations) > STLocalTermTracker.INDEX_THRESHOLD:
            self.index = IntervalSpatialIndex(list(self.locations.items()))
        # Membership is a pure function of the rectangle bounds and the
        # (fixed) stream set, and burst regions recur across snapshots
        # and terms — memoising pays for itself immediately.
        self._members: Dict[
            Tuple[float, float, float, float], FrozenSet[Hashable]
        ] = {}

    def members_of(
        self, min_x: float, min_y: float, max_x: float, max_y: float
    ) -> FrozenSet[Hashable]:
        """Streams whose geostamps fall inside a closed rectangle."""
        bounds = (min_x, min_y, max_x, max_y)
        cached = self._members.get(bounds)
        if cached is not None:
            return cached
        if len(self.ids) <= _SCALAR_MEMBER_SCAN:
            xs, ys, ids = self.xs, self.ys, self.ids
            members = frozenset(
                ids[i]
                for i in range(len(ids))
                if min_x <= xs[i] <= max_x and min_y <= ys[i] <= max_y
            )
        else:
            mask = (
                (self._x_arr >= min_x)
                & (self._x_arr <= max_x)
                & (self._y_arr >= min_y)
                & (self._y_arr <= max_y)
            )
            members = frozenset(self.ids[i] for i in np.flatnonzero(mask))
        self._members[bounds] = members
        return members


class _Region:
    """One region's whole lifecycle, resolved at creation time.

    A region's r-score series is a pure function of the burstiness
    matrix and its member rows, so the moment a rectangle opens a new
    region its entire value sequence within the sweep — through the
    snapshot (if any) whose appended value drives the running total
    negative, Algorithm 2's pruning rule — is read off the member-set's
    precomputed score series (see ``_finish_term``); no per-snapshot
    bookkeeping remains.  Shares ``region``, ``stream_ids`` and
    :meth:`windows` with :class:`~repro.core.stlocal.RegionSequence`.
    """

    __slots__ = ("region", "stream_ids", "start", "values")

    def __init__(
        self,
        region: Rectangle,
        stream_ids: FrozenSet[Hashable],
        start: int,
        values: List[float],
    ) -> None:
        self.region = region
        self.stream_ids = stream_ids
        self.start = start
        self.values = values

    def windows(self) -> List[Tuple[Interval, float]]:
        """Maximal windows of the buffered sequence (global timeframes)."""
        start = self.start
        return [
            (Interval(start + seg_start, start + seg_end), score)
            for seg_start, seg_end, score in kernels.maximal_segment_bounds(
                self.values
            )
        ]

    def to_sequence(self) -> RegionSequence:
        """Materialise the equivalent live ``RegionSequence``."""
        candidates, cumulative, length = kernels.maximal_segment_state(
            self.values
        )
        return RegionSequence(
            region=self.region,
            stream_ids=self.stream_ids,
            start=self.start,
            tracker=OnlineMaxSegments.restore(candidates, cumulative, length),
        )


class _Segment:
    """A run of snapshots sharing one active row set (and compression).

    The active point set only grows at activation timestamps, so the
    span between consecutive activations shares one coordinate
    compression.  Within the segment, a snapshot is *batchable* when
    every active row's weight is non-zero: all active points then
    survive the legacy non-zero filter, so the per-snapshot compression
    provably equals the segment's shared one.
    """

    __slots__ = (
        "rows",
        "cxs",
        "cys",
        "x_index",
        "y_index",
        "grid_x",
        "grid_y",
        "clean_columns",
    )


class ColumnarTermTracker(STLocalTermTracker):
    """An STLocal term tracker whose per-stream state is columnar.

    Indistinguishable from a replayed ``STLocalTermTracker`` — same
    sequences, archives, model totals and histories — but it keeps the
    per-stream state as dense arrays: one burstiness matrix (rows =
    every stream observed so far, in sorted-by-``repr`` order; columns =
    timestamps from the first observation to the clock) and one model
    total per row.  :meth:`advance` extends both with the sweep's
    vectorised phases, :meth:`bursty_members` sums matrix slices, and
    :meth:`fork` shares the arrays: an advance replaces them and never
    writes into them (they are read-only), so no copy is needed.

    The ``_models`` and ``_history`` maps of the object tracker are
    derived from the arrays on demand (for the store codec and the
    differential tests).  Only the paper-default running mean is
    representable (see :func:`columnar_supported`): every model has
    seen one observation per snapshot since timestamp 0, so its count
    is the clock and only its total is state.

    Args:
        store: The location columns (and spatial index) of the stream
            set, shared by every tracker of one miner or feeder.
        config: STLocal settings (must pass :func:`columnar_supported`).
    """

    def __init__(self, store: LocationStore, config: STLocalConfig) -> None:
        self._store = store
        super().__init__(
            store.locations, config=config, index=store.index,
            copy_locations=False,
        )

    def _init_stream_state(self) -> None:
        #: Streams with a model, sorted by repr (the point order).
        self._row_ids: List[Hashable] = []
        self._row_of: Dict[Hashable, int] = {}
        #: Model total of each row.
        self._totals: np.ndarray = _frozen(np.zeros(0))
        #: Timestamp of matrix column 0 (the first observation).
        self._first = 0
        #: Burstiness, rows × (clock − first); no columns when history
        #: tracking is off.
        self._matrix: np.ndarray = _frozen(np.zeros((0, 0)))

    def _fork_stream_state(self) -> None:
        """Nothing to copy: an advance replaces the arrays, never writes
        into them."""

    @property
    def pristine(self) -> bool:
        return not self._row_ids and not self._sequences

    @property
    def _models(self) -> Dict[Hashable, RunningMeanBaseline]:
        """The object tracker's model map, rebuilt from the totals."""
        models: Dict[Hashable, RunningMeanBaseline] = {}
        for sid, total in zip(self._row_ids, self._totals.tolist()):
            model = RunningMeanBaseline()
            model._count = self._clock
            model._total = total
            models[sid] = model
        return models

    @property
    def _history(self) -> Dict[Hashable, Dict[int, float]]:
        """The object tracker's history map: each row's non-zero cells."""
        history: Dict[Hashable, Dict[int, float]] = {}
        if not self.config.track_history:
            return history
        matrix = self._matrix
        nz_rows, nz_cols = np.nonzero(matrix)
        values = matrix[nz_rows, nz_cols].tolist()
        timestamps = (self._first + nz_cols).tolist()
        # np.nonzero is row-major, so each row's entries are contiguous
        # and ascending — one dict(zip(…)) per stream.
        counts = np.bincount(nz_rows, minlength=len(self._row_ids)).tolist()
        position = 0
        for row, count in enumerate(counts):
            if count:
                history[self._row_ids[row]] = dict(
                    zip(
                        timestamps[position : position + count],
                        values[position : position + count],
                    )
                )
                position += count
        return history

    def advance(
        self, snapshots: Mapping[int, Mapping[Hashable, float]], through: int
    ) -> None:
        """Feed every snapshot in ``[clock, through)`` in one sweep."""
        _advance([(self, snapshots, through)])

    def process(self, frequencies: Mapping[Hashable, float]) -> int:
        """Consume the next snapshot: an advance over one timestamp."""
        timestamp = self._clock
        self.advance({timestamp: frequencies}, timestamp + 1)
        return self.rectangle_history[-1]

    def bursty_members(
        self, streams: FrozenSet[Hashable], timeframe: Interval
    ) -> Optional[FrozenSet[Hashable]]:
        """Member streams with positive net burstiness over a window:
        one cumsum along the window's matrix slice."""
        if not self.config.track_history:
            return None
        matrix = self._matrix
        lo = max(timeframe.start - self._first, 0)
        hi = min(timeframe.end - self._first + 1, matrix.shape[1])
        # Built with add() in ``streams`` order, like the object
        # tracker's set, so the frozenset iterates identically.
        bursty = set()
        row_of = self._row_of
        members = [sid for sid in streams if sid in row_of]
        if lo < hi and members:
            # cumsum adds left to right — the history walk's order, with
            # inert zeros in between — so the totals are byte-identical.
            totals = np.cumsum(
                matrix[[row_of[sid] for sid in members], lo:hi], axis=1
            )[:, -1]
            for sid, positive in zip(members, (totals > 0.0).tolist()):
                if positive:
                    bursty.add(sid)
        return frozenset(bursty)


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark an array read-only (forks share it)."""
    array.flags.writeable = False
    return array


class _TermPlan:
    """Per-term intermediate state between the prepare and finish phases."""

    __slots__ = (
        "tracker",
        "first",
        "end",
        "row_ids",
        "row_of",
        "first_active",
        "burstiness",
        "columns",
        "totals",
        "row_x",
        "row_y",
        "segments",
        "clean_count",
    )


def _prepare_term(
    tracker: ColumnarTermTracker,
    snapshots: TermSnapshots,
    through: int,
) -> Optional[_TermPlan]:
    """Phase 1: burstiness matrix, coordinate compression, batch mask.

    Covers the tracker's snapshots ``[clock, through)``.  A pristine
    tracker is first fast-forwarded to its first observation; ``None``
    means nothing is left to sweep (the tracker may have been
    fast-forwarded to ``through``).
    """
    store = tracker._store
    start = tracker.clock
    if start >= through:
        return None
    old_ids = tracker._row_ids
    # Every stream the window touches, after the rows already held.
    seen: Dict[Hashable, int] = {sid: i for i, sid in enumerate(old_ids)}
    window: List[Tuple[int, Mapping[Hashable, float]]] = []
    for timestamp, slice_ in snapshots.items():
        if start <= timestamp < through and slice_:
            window.append((timestamp, slice_))
            for sid in slice_:
                if sid not in seen:
                    if sid not in store.coords:
                        raise StreamError(f"unknown stream {sid!r} in snapshot")
                    seen[sid] = len(seen)
    counts = np.zeros((len(seen), through - start))
    for timestamp, slice_ in window:
        column = timestamp - start
        for sid, value in slice_.items():
            counts[seen[sid], column] = float(value)

    # A stream gets a model (a row) at its first positive observation;
    # the rows already held stay active throughout.
    positive = counts > 0.0
    n_old = len(old_ids)
    active = positive.any(axis=1)
    active[:n_old] = True
    if not active.any():
        tracker.fast_forward(through)
        return None
    first = start
    if not n_old:
        # Pristine: the quiet prefix is a strict no-op, skip it.
        offset = int(np.argmax(positive.any(axis=0)))
        first = start + offset
        tracker.fast_forward(first)
        counts = counts[:, offset:]
        positive = positive[:, offset:]

    plan = _TermPlan()
    plan.tracker = tracker
    plan.first = first
    plan.end = through - 1
    # Rows in the sorted-by-repr order the tracker evaluates streams in.
    row_ids = sorted(
        (sid for sid, keep in zip(seen, active.tolist()) if keep), key=repr
    )
    plan.row_ids = row_ids
    plan.row_of = row_of = {sid: row for row, sid in enumerate(row_ids)}
    n_rows = len(row_ids)
    order = [seen[sid] for sid in row_ids]
    counts = counts[order]
    carried = np.zeros(n_rows)
    old_rows = [row_of[sid] for sid in old_ids]
    carried[old_rows] = tracker._totals

    plan.burstiness, plan.totals = kernels.running_mean_burstiness(
        counts, first, tracker.config.warmup, carried
    )
    plan.columns = plan.burstiness.T.tolist()
    # Global timestamp of each row's first observation (model creation):
    # from then on the stream is an active point of every snapshot.
    first_active = (first + np.argmax(positive[order], axis=1)).tolist()
    for row in old_rows:
        first_active[row] = first
    plan.first_active = first_active
    coords = store.coords
    plan.row_x = [coords[sid][0] for sid in row_ids]
    plan.row_y = [coords[sid][1] for sid in row_ids]

    # Segment the span by activation events; each segment gets its own
    # compression over the rows active there, and the batchable columns
    # are those where every *active* row's weight is non-zero.
    boundaries = sorted(
        {t for t in plan.first_active if first < t <= plan.end}
    )
    plan.segments = []
    plan.clean_count = 0
    nonzero = plan.burstiness != 0.0
    segment_starts = [first] + boundaries
    segment_ends = boundaries + [plan.end + 1]
    previous: Optional[_Segment] = None
    for seg_start, seg_end in zip(segment_starts, segment_ends):
        if seg_start >= seg_end:
            continue
        segment = _Segment()
        segment.rows = [
            row for row in range(n_rows) if plan.first_active[row] <= seg_start
        ]
        if previous is not None:
            known = set(previous.rows)
            fresh = [row for row in segment.rows if row not in known]
            reusable = all(
                plan.row_x[row] in previous.x_index for row in fresh
            ) and all(plan.row_y[row] in previous.y_index for row in fresh)
        else:
            reusable = False
        if reusable:
            # Streams share a coordinate lattice, so most activations
            # introduce no new distinct coordinate — the previous
            # segment's compression extends to the grown row set.
            segment.cxs = previous.cxs
            segment.cys = previous.cys
            segment.x_index = previous.x_index
            segment.y_index = previous.y_index
        else:
            segment.cxs = sorted({plan.row_x[row] for row in segment.rows})
            segment.cys = sorted({plan.row_y[row] for row in segment.rows})
            segment.x_index = {x: i for i, x in enumerate(segment.cxs)}
            segment.y_index = {y: i for i, y in enumerate(segment.cys)}
        segment.grid_x = [
            segment.x_index[plan.row_x[row]] for row in segment.rows
        ]
        segment.grid_y = [
            segment.y_index[plan.row_y[row]] for row in segment.rows
        ]
        local = slice(seg_start - first, seg_end - first)
        segment.clean_columns = (
            np.flatnonzero(nonzero[segment.rows, local].all(axis=0))
            + (seg_start - first)
        ).tolist()
        plan.clean_count += len(segment.clean_columns)
        plan.segments.append(segment)
        previous = segment
    return plan


#: Cost model of one batched-Kadane call, measured on one core: a fixed
#: cost per start row, and one per cell its band scans visit.
_ROW_PASS_S, _CELL_S = 25e-6, 25e-9


def _kadane_cost(height: int, width: int, grids: int) -> float:
    cells = grids * height * (height + 1) // 2 * (width + 1)
    return _ROW_PASS_S * height + _CELL_S * cells


def _by_height(shapes: Sequence[Tuple[int, int, int]]) -> List[List[int]]:
    """Indices of ``(rows, columns, grids)`` groups, bucketed by rows.

    Heights are visited tallest first; a height joins the bucket above
    it when padding its grids there costs less than a call of their
    own (:func:`_kadane_cost`), so a few short grids ride along instead
    of paying a call each.  Each bucket lists its indices ascending.
    """
    groups: Dict[int, List[int]] = {}
    for index, (height, _, _) in enumerate(shapes):
        groups.setdefault(height, []).append(index)
    buckets: List[List[int]] = []
    bucket = (0, 0, 0)  # (height, width, grids) of the last bucket
    for height in sorted(groups, reverse=True):
        width = max(shapes[index][1] for index in groups[height])
        grids = sum(shapes[index][2] for index in groups[height])
        joined = (bucket[0], max(bucket[1], width), bucket[2] + grids)
        apart = _kadane_cost(*bucket) + _kadane_cost(height, width, grids)
        if buckets and _kadane_cost(*joined) <= apart:
            buckets[-1] += groups[height]
            bucket = joined
        else:
            buckets.append(groups[height])
            bucket = (height, width, grids)
    return [sorted(indices) for indices in buckets]


def _list_grid_buckets(
    grids: Sequence[List[List[float]]],
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """One ``(indices, tensor)`` per bucket, padded to its largest grid."""
    shapes = [(len(grid), len(grid[0]), 1) for grid in grids]
    for indices in _by_height(shapes):
        height = max(shapes[index][0] for index in indices)
        width = max(shapes[index][1] for index in indices)
        tensor = np.zeros((len(indices), height, width))
        for slot, index in enumerate(indices):
            grid = grids[index]
            tensor[slot, : len(grid), : len(grid[0])] = grid
        yield np.asarray(indices, dtype=np.int64), tensor


def _first_rectangles_by_height(
    count: int,
    buckets: Iterable[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, ...]:
    """:func:`~repro.columnar.kernels.batched_first_rectangles` per bucket.

    Each bucket is ``(slots, grids)``: the positions (ascending) its
    grids hold among ``count``, and their tensor, padded only to the
    bucket's own shape.  Every grid's result depends on its own slice
    alone, and padding is inert and tie-safe (see the kernel), so the
    merged arrays equal one call padded to the global maximum; when a
    single bucket holds every grid, that one call is all that runs.
    """
    merged: Optional[Tuple[np.ndarray, ...]] = None
    for slots, grids in buckets:
        result = kernels.batched_first_rectangles(grids)
        if len(slots) == count:
            return result
        if merged is None:
            merged = tuple(np.zeros(count, column.dtype) for column in result)
        for column, values in zip(merged, result):
            column[slots] = values
    assert merged is not None
    return merged


def _scatter_grids(
    pieces: Sequence[Tuple[int, _TermPlan, _Segment]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Phase 2a: pack batchable snapshots into one padded tensor.

    ``pieces`` are ``(first slot, plan, segment)``; the tensor is padded
    to the pieces' largest compression.  Accumulation follows the
    legacy order — rows ascending (the sorted-by-repr point order)
    within each snapshot — via one sequential ``bincount``.  Returns
    the global slot of every grid with the tensor.
    """
    m_pad = max(len(segment.cys) for _, _, segment in pieces)
    k_pad = max(len(segment.cxs) for _, _, segment in pieces)
    slots: List[np.ndarray] = []
    flat_indices: List[np.ndarray] = []
    flat_values: List[np.ndarray] = []
    offset = 0
    for slot, plan, segment in pieces:
        clean = segment.clean_columns
        s = len(clean)
        n_rows = len(segment.rows)
        weights = plan.burstiness[np.ix_(segment.rows, clean)]
        cell = (
            np.asarray(segment.grid_y, dtype=np.int64) * k_pad
            + np.asarray(segment.grid_x, dtype=np.int64)
        )
        base = (offset + np.arange(s, dtype=np.int64)) * (m_pad * k_pad)
        # Row-major: all of row 0's snapshots, then row 1's, … so
        # cells shared by several rows accumulate in ascending-row
        # (sorted-by-repr point) order, matching the legacy grid.
        flat_indices.append(
            (base[None, :] + cell[:, None]).reshape(n_rows * s)
        )
        flat_values.append(weights.reshape(n_rows * s))
        slots.append(slot + np.arange(s, dtype=np.int64))
        offset += s
    grids = np.bincount(
        np.concatenate(flat_indices),
        weights=np.concatenate(flat_values),
        minlength=offset * m_pad * k_pad,
    )
    return np.concatenate(slots), grids.reshape(offset, m_pad, k_pad)


class _PendingExtraction:
    """One snapshot's in-progress iterated R-Bursty extraction.

    Lives across extraction rounds: every round the still-positive
    remainder of each pending snapshot is compressed (per-snapshot, so
    the grid is exact with no cleanliness precondition) and joins one
    shared :func:`~repro.columnar.kernels.batched_first_rectangles`
    call; the winner is retired and the snapshot stays pending while
    points remain.
    """

    __slots__ = ("found", "px", "py", "pw", "live")

    def __init__(
        self,
        found: List[Bounds],
        px: List[float],
        py: List[float],
        pw: List[float],
        live: List[int],
    ) -> None:
        self.found = found
        self.px = px
        self.py = py
        self.pw = pw
        self.live = live


def _resolve_rectangles(
    plans: List[_TermPlan],
    batch: Optional[Tuple[np.ndarray, ...]],
) -> List[Dict[int, List[Bounds]]]:
    """Phase 2c: complete every snapshot's R-Bursty extraction.

    Seeds each snapshot with its batched first rectangle (when clean),
    then resolves all remaining extractions — unclean first rounds and
    second-and-later rectangles alike — in shared batched-Kadane
    rounds.  Snapshot ``local`` columns with no entry in the result map
    had no rectangle at all.
    """
    all_results: List[Dict[int, List[Bounds]]] = []
    pending: List[_PendingExtraction] = []
    offset = 0
    for plan in plans:
        decoded = _decode_batch(plan, offset, batch)
        offset += plan.clean_count
        results: Dict[int, List[Bounds]] = {}
        all_results.append(results)
        first, end = plan.first, plan.end
        n_rows = len(plan.row_ids)
        columns = plan.columns
        first_active = plan.first_active
        row_x, row_y = plan.row_x, plan.row_y
        activations = dict.fromkeys(first_active, True)
        rows: List[int] = []
        active_x: List[float] = []
        active_y: List[float] = []
        all_active = False
        for timestamp in range(first, end + 1):
            local = timestamp - first
            if timestamp in activations:
                rows = [
                    r for r in range(n_rows) if first_active[r] <= timestamp
                ]
                all_active = len(rows) == n_rows
                active_x = row_x if all_active else [row_x[r] for r in rows]
                active_y = row_y if all_active else [row_y[r] for r in rows]
            first_rect = decoded.get(local, _UNBATCHED)
            if first_rect is None:
                continue  # the batch proved there is no rectangle
            column = columns[local]
            weights = column if all_active else [column[r] for r in rows]
            found: List[Bounds] = []
            if first_rect is _UNBATCHED:
                live = list(range(len(weights)))
            else:
                found.append(first_rect)
                _, x0, y0, x1, y1 = first_rect
                live = [
                    i
                    for i in range(len(weights))
                    if not (
                        x0 <= active_x[i] <= x1 and y0 <= active_y[i] <= y1
                    )
                ]
            results[local] = found
            if live:
                pending.append(
                    _PendingExtraction(found, active_x, active_y, weights, live)
                )

    while pending:
        round_states: List[_PendingExtraction] = []
        compressions: List[Tuple[List[float], List[float]]] = []
        grids: List[List[List[float]]] = []
        for state in pending:
            ax: List[float] = []
            ay: List[float] = []
            aw: List[float] = []
            pw = state.pw
            px = state.px
            py = state.py
            for i in state.live:
                w = pw[i]
                if w != 0.0:
                    ax.append(px[i])
                    ay.append(py[i])
                    aw.append(w)
            if not any(w > 0.0 for w in aw):
                continue  # extraction finished for this snapshot
            cxs = sorted(set(ax))
            cys = sorted(set(ay))
            x_index = {x: i for i, x in enumerate(cxs)}
            y_index = {y: i for i, y in enumerate(cys)}
            grid = [[0.0] * len(cxs) for _ in cys]
            for i, w in enumerate(aw):
                grid[y_index[ay[i]]][x_index[ax[i]]] += w
            round_states.append(state)
            compressions.append((cxs, cys))
            grids.append(grid)
        if not round_states:
            break
        found_mask, score, y_lo, y_hi, x_lo, x_hi = (
            _first_rectangles_by_height(len(grids), _list_grid_buckets(grids))
        )
        pending = []
        for index, state in enumerate(round_states):
            if not found_mask[index]:
                continue
            cxs, cys = compressions[index]
            bounds = (
                float(score[index]),
                cxs[x_lo[index]],
                cys[y_lo[index]],
                cxs[x_hi[index]],
                cys[y_hi[index]],
            )
            state.found.append(bounds)
            _, x0, y0, x1, y1 = bounds
            px, py = state.px, state.py
            state.live = [
                i
                for i in state.live
                if not (x0 <= px[i] <= x1 and y0 <= py[i] <= y1)
            ]
            if state.live:
                pending.append(state)
    return all_results


def _decode_batch(
    plan: _TermPlan,
    offset: int,
    batch: Optional[Tuple[np.ndarray, ...]],
) -> Dict[int, Optional[Bounds]]:
    """Phase 2b: map one term's batched results back to coordinates."""
    decoded: Dict[int, Optional[Bounds]] = {}
    if batch is None:
        return decoded
    found, score, y_lo, y_hi, x_lo, x_hi = batch
    slot = offset
    for segment in plan.segments:
        cxs, cys = segment.cxs, segment.cys
        for column in segment.clean_columns:
            if found[slot]:
                decoded[column] = (
                    float(score[slot]),
                    cxs[x_lo[slot]],
                    cys[y_lo[slot]],
                    cxs[x_hi[slot]],
                    cys[y_hi[slot]],
                )
            else:
                decoded[column] = None
            slot += 1
    return decoded


def _finish_term(
    plan: _TermPlan, rectangle_map: Dict[int, List[Bounds]]
) -> None:
    """Phase 3: region lifecycles and histories off the matrices.

    Extends the plan's tracker exactly as one ``process`` call per
    snapshot would: the same region keys, r-scores, pruning snapshots,
    archive order and sequence-map order.
    """
    tracker = plan.tracker
    store = tracker._store
    first, end = plan.first, plan.end
    row_of = plan.row_of
    rectangle_history = tracker.rectangle_history
    key_by_geometry = tracker.config.key_by_geometry

    span = end - first + 1
    burstiness = plan.burstiness
    #: members → r-score series of that member set over the span.  The
    #: per-snapshot value is start-independent (the same sequential
    #: member-row additions), so recurring rectangles share one series.
    series_cache: Dict[FrozenSet[Hashable], List[float]] = {}

    def series_of(members: FrozenSet[Hashable]) -> List[float]:
        series = series_cache.get(members)
        if series is None:
            # Rows are in sorted-by-repr order, so ascending rows are
            # the region's member order.
            rows = sorted(row_of[sid] for sid in members if sid in row_of)
            if rows:
                # cumsum down the rows adds them one at a time, in
                # member order: ``sequential_sum`` per column.  Its
                # first row is not added to 0.0, and ``+ 0.0`` is that
                # missing addition (it only turns -0.0 into 0.0).
                totals = np.cumsum(burstiness[rows], axis=0)[-1] + 0.0
                series = totals.tolist()
            else:
                series = [0.0] * span
            series_cache[members] = series
        return series

    def prune_column(series: List[float], local: int, total: float) -> int:
        """The column whose r-score drives the running total negative.

        The same sequential running total the per-snapshot loop
        accumulates, from ``total`` at column ``local`` (Algorithm 2,
        lines 11-12); ``span`` when it stays non-negative.
        """
        for column_index in range(local, span):
            total += series[column_index]
            if total < 0.0:
                return column_index
        return span

    #: Every region alive during the span, in sequence-map order: the
    #: open sequences carried over, then the ones created here.
    regions: List[Tuple[Hashable, int, Union[RegionSequence, _Region]]] = []
    #: key → prune timestamp of its latest region; a same-key rectangle
    #: is ignored while ``timestamp <= blocked_until`` (the region is
    #: still in the sequence map during its pruning snapshot).
    blocked_until: Dict[Hashable, int] = {}
    open_deltas = [0] * (span + 1)
    for key, sequence in tracker._sequences.items():
        series = series_of(sequence.stream_ids)
        column = prune_column(series, 0, sequence.total)
        sequence.tracker.extend(series[: column + 1])
        prune_timestamp = first + column
        regions.append((key, prune_timestamp, sequence))
        blocked_until[key] = prune_timestamp
        if prune_timestamp <= end:
            open_deltas[prune_timestamp - first] -= 1

    empty: List[Bounds] = []
    for timestamp in range(first, end + 1):
        local = timestamp - first
        rectangles = rectangle_map.get(local, empty)
        rectangle_history.append(len(rectangles))

        for _, min_x, min_y, max_x, max_y in rectangles:
            members = store.members_of(min_x, min_y, max_x, max_y)
            if not members:
                # Memberless rectangles are dropped, as in the tracker:
                # they cannot score and would alias to one frozenset().
                continue
            key: Hashable
            if key_by_geometry:
                key = (min_x, min_y, max_x, max_y)
            else:
                key = members
            if timestamp <= blocked_until.get(key, -1):
                continue
            series = series_of(members)
            column = prune_column(series, local, 0.0)
            prune_timestamp = first + column
            region = _Region(
                region=Rectangle(min_x, min_y, max_x, max_y),
                stream_ids=members,
                start=timestamp,
                values=series[local : column + 1],
            )
            regions.append((key, prune_timestamp, region))
            blocked_until[key] = prune_timestamp
            open_deltas[local] += 1
            if prune_timestamp <= end:
                open_deltas[prune_timestamp - first] -= 1

    running_open = len(tracker._sequences)
    open_history = tracker.open_history
    for local in range(span):
        running_open += open_deltas[local]
        open_history.append(running_open)

    # Archive pruned regions in the per-snapshot order: by pruning
    # snapshot, then by position in the sequence map.
    archived = tracker._archived
    pruned_regions = [
        (prune_timestamp, index, region)
        for index, (_, prune_timestamp, region) in enumerate(regions)
        if prune_timestamp <= end
    ]
    pruned_regions.sort(key=lambda item: (item[0], item[1]))
    for _, _, region in pruned_regions:
        for timeframe, score in region.windows():
            archived.append(
                (region.region, region.stream_ids, timeframe, score)
            )

    tracker._clock = end + 1
    tracker._sequences = {
        key: region.to_sequence() if isinstance(region, _Region) else region
        for key, prune_timestamp, region in regions
        if prune_timestamp > end
    }

    old_ids = tracker._row_ids
    if tracker.config.track_history:
        if not old_ids:
            tracker._first = first
            matrix = burstiness
        else:
            old = tracker._matrix
            matrix = np.zeros((len(plan.row_ids), old.shape[1] + span))
            matrix[[row_of[sid] for sid in old_ids], : old.shape[1]] = old
            matrix[:, old.shape[1] :] = burstiness
        tracker._matrix = _frozen(matrix)
    tracker._row_ids = plan.row_ids
    tracker._row_of = row_of
    tracker._totals = _frozen(plan.totals)


def _advance(
    jobs: Sequence[Tuple[ColumnarTermTracker, TermSnapshots, int]],
) -> None:
    """Extend many columnar trackers, each through its own horizon.

    Per-term matrices are prepared first, every batchable snapshot
    across *all* terms joins one batched Kadane per bucket of grid
    heights, and the scalar finish runs per term.  Each tracker ends
    byte-equivalent to feeding the same snapshots through
    :meth:`~repro.core.stlocal.STLocalTermTracker.process` one
    timestamp at a time.
    """
    plans = []
    for tracker, snapshots, through in jobs:
        plan = _prepare_term(tracker, snapshots, through)
        if plan is not None:
            plans.append(plan)
    if not plans:
        return
    pieces = []
    slot = 0
    for plan in plans:
        for segment in plan.segments:
            if segment.clean_columns:
                pieces.append((slot, plan, segment))
                slot += len(segment.clean_columns)
    batch: Optional[Tuple[np.ndarray, ...]] = None
    if pieces:
        shapes = [
            (len(segment.cys), len(segment.cxs), len(segment.clean_columns))
            for _, _, segment in pieces
        ]
        batch = _first_rectangles_by_height(
            slot,
            (
                _scatter_grids([pieces[index] for index in indices])
                for indices in _by_height(shapes)
            ),
        )
    for plan, rectangle_map in zip(plans, _resolve_rectangles(plans, batch)):
        _finish_term(plan, rectangle_map)


def sweep_terms(
    term_snapshots: Dict[str, Dict[int, Dict[Hashable, float]]],
    store: LocationStore,
    config: STLocalConfig,
    timeline: int,
    truncate_tails: bool = True,
) -> Dict[str, ColumnarTermTracker]:
    """Mine many terms' regional state off their sparse snapshot slices.

    The multi-term driver: one :class:`ColumnarTermTracker` per term,
    all advanced by one sweep (see :func:`_advance`).  A term with no
    snapshots keeps a pristine tracker at clock 0.  Each returned
    tracker is byte-equivalent to feeding the same snapshots through
    :meth:`~repro.core.stlocal.STLocalTermTracker.process` one
    timestamp at a time.
    """
    trackers: Dict[str, ColumnarTermTracker] = {}
    jobs = []
    for term, snapshots in term_snapshots.items():
        tracker = trackers[term] = ColumnarTermTracker(store, config)
        if snapshots:
            through = max(snapshots) + 1 if truncate_tails else timeline
            jobs.append((tracker, snapshots, through))
    _advance(jobs)
    return trackers

