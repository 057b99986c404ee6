"""Columnar STLocal burst sweep: how a term tracker advances.

A :class:`~repro.core.stlocal.STLocalTermTracker` keeps a term's
per-stream state as arrays (a dense burstiness matrix plus one model
state per stream).  This module extends any number of trackers over
their runs of snapshots ``[clock, through)`` at once, in three phases:

1. **prepare** — the new ``observed − expected`` burstiness columns of
   each term, from the config's baseline (:func:`prefix_sum_baseline`):
   the paper-default running mean is computed in one vectorized pass
   from each stream's carried total
   (:func:`repro.columnar.kernels.running_mean_burstiness`); any other
   expectation model is stepped through the snapshots one object per
   stream (:func:`_model_burstiness`).  Then one coordinate
   compression per activation segment;
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
   compressing every still-pending snapshot exactly as a per-snapshot
   R-Bursty call would;
3. **finish** — rectangles become region lifecycles: the r-score series
   of every region alive in the run — the open sequences carried over
   and the ones created here — is read off its member set's score
   series (sequential member-row additions over the new columns), its
   pruning snapshot found by one scalar running-total scan, and a new
   region's Ruzzo–Tompa state materialised in one batch pass.  Keys,
   pruning, archive order and sequence-map order are those of
   Algorithm 2 run one snapshot at a time.

The batch miner sweeps every term from a pristine tracker in one call
(:func:`sweep_terms`); the live feeder (:mod:`repro.pipeline.
incremental`) extends a term's durable tracker as snapshots seal and a
fork of it through the open ones.  Output equality with the
snapshot-at-a-time reference (``tests/oracles/stlocal.py``) is enforced
by ``tests/test_columnar_differential.py``.
"""

from __future__ import annotations

import copy
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
from repro.core.stlocal import (
    RegionSequence,
    STLocalTermTracker,
    TermSnapshots,
)
from repro.errors import StreamError
from repro.intervals.interval import Interval
from repro.spatial.geometry import Point, Rectangle
from repro.temporal.baselines import (
    ExpectedFrequencyModel,
    RunningMeanBaseline,
)
from repro.temporal.max_segments import OnlineMaxSegments

__all__ = [
    "LocationStore",
    "advance_trackers",
    "prefix_sum_baseline",
    "sweep_terms",
]

#: Below this stream count a scalar membership scan beats the
#: vectorized rectangle mask (NumPy call overhead again).
_SCALAR_MEMBER_SCAN = 256

#: Sentinel distinguishing "no precomputed first rectangle" from "the
#: batch proved there is none".
_UNBATCHED = object()

#: Rectangle bounds tuple: (score, min_x, min_y, max_x, max_y).
Bounds = Tuple[float, float, float, float, float]


def prefix_sum_baseline(config: STLocalConfig) -> bool:
    """True when the config's baseline is the paper's zero-prior running mean.

    Its expectation ``Σ_{j<i} y_j / i`` is a prefix sum, so the sweep
    computes a whole burstiness matrix in one pass from one carried
    total per stream.  Any other ``baseline_factory`` — a different
    model class, a subclass, or a non-zero prior — is stepped through
    one model object per stream instead.
    """
    try:
        probe = config.baseline_factory()
    except (TypeError, ValueError):
        # A factory that rejects the no-argument probe call is not the
        # paper default; the model path calls it again and surfaces
        # the error.  Anything else it raises is a bug and surfaces here.
        return False
    return (
        type(probe) is RunningMeanBaseline
        and probe.expected(0) == 0.0
        and getattr(probe, "_count", None) == 0
        and getattr(probe, "_total", None) == 0.0
    )


class LocationStore:
    """Shared columnar view of the stream locations.

    Holds the coordinate columns every tracker over one stream set
    reads from, and memoises rectangle membership across all of them.
    """

    def __init__(self, locations: Mapping[Hashable, Point]) -> None:
        self.locations = dict(locations)
        self.ids: List[Hashable] = list(self.locations)
        self.xs: List[float] = [p.x for p in self.locations.values()]
        self.ys: List[float] = [p.y for p in self.locations.values()]
        self._x_arr = np.asarray(self.xs, dtype=float)
        self._y_arr = np.asarray(self.ys, dtype=float)
        self.coords: Dict[Hashable, Tuple[float, float]] = {
            sid: (p.x, p.y) for sid, p in self.locations.items()
        }
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
    survive R-Bursty's non-zero filter, so the per-snapshot compression
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
        "models",
        "row_x",
        "row_y",
        "segments",
        "clean_count",
    )


def _prepare_term(
    tracker: STLocalTermTracker,
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
    old_rows = [row_of[sid] for sid in old_ids]
    # Global timestamp of each row's first observation (model creation):
    # from then on the stream is an active point of every snapshot.
    first_active = (first + np.argmax(positive[order], axis=1)).tolist()
    for row in old_rows:
        first_active[row] = first
    plan.first_active = first_active

    if tracker._models is None:
        carried = np.zeros(n_rows)
        carried[old_rows] = tracker._totals
        plan.burstiness, plan.totals = kernels.running_mean_burstiness(
            counts, first, tracker.config.warmup, carried
        )
        plan.models = None
    else:
        # Advance copies: the tracker's own models are shared by forks.
        models = copy.deepcopy(tracker._models)
        plan.burstiness, plan.models = _model_burstiness(
            tracker.config,
            counts,
            first,
            first_active,
            dict(zip(old_rows, models)),
        )
    plan.columns = plan.burstiness.T.tolist()
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


def _model_burstiness(
    config: STLocalConfig,
    counts: np.ndarray,
    first: int,
    first_active: List[int],
    carried: Dict[int, ExpectedFrequencyModel],
) -> Tuple[np.ndarray, List[ExpectedFrequencyModel]]:
    """Burstiness off one expectation-model object per row.

    Row ``r`` continues its ``carried`` model, or gets a fresh one from
    ``config.baseline_factory`` at its first observation
    ``first_active[r]``, primed with the zero observations it missed
    (:func:`_prime`).  From then on the model observes every snapshot
    and the row holds ``observed − expected(t)``, or zero inside the
    warmup; before it, zero.  ``counts`` columns start at global
    timestamp ``first``.  The factory makes an independent model per
    stream, so stepping one row at a time computes what a
    snapshot-at-a-time update of every model computes.

    Returns:
        The burstiness matrix and the advanced models, in row order.
    """
    factory, warmup = config.baseline_factory, config.warmup
    n_rows, span = counts.shape
    burstiness = np.zeros((n_rows, span))
    models: List[ExpectedFrequencyModel] = []
    for row, observed in enumerate(counts.tolist()):
        start = first_active[row]
        model = carried.get(row)
        if model is None:
            model = factory()
            _prime(model, start)
        values = []
        for timestamp in range(start, first + span):
            value = observed[timestamp - first]
            values.append(
                0.0
                if timestamp < warmup
                else value - model.expected(timestamp)
            )
            model.observe(timestamp, value)
        burstiness[row, start - first :] = values
        models.append(model)
    return burstiness, models


def _prime(model: ExpectedFrequencyModel, zeros: int) -> None:
    """Feed a model created at timestamp ``zeros`` the zeros it missed.

    The paper's default baseline averages over *all* snapshots before
    ``i``, so the silent ones before a term's first appearance in a
    stream must count.
    """
    prime = getattr(model, "prime_zeros", None)
    if prime is not None:
        prime(zeros)
        return
    for j in range(zeros):
        model.observe(j, 0.0)


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
    reference order — rows ascending (the sorted-by-repr point order)
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
        # (sorted-by-repr point) order, matching a per-snapshot grid.
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

    Extends the plan's tracker exactly as Algorithm 2 run one snapshot
    at a time would: the same region keys, r-scores, pruning snapshots,
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
                # member order: a left-to-right sum per column (not
                # CPython 3.12's compensated builtin ``sum``).  Its
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
    if plan.models is None:
        tracker._totals = _frozen(plan.totals)
    else:
        tracker._models = plan.models


def advance_trackers(
    jobs: Sequence[Tuple[STLocalTermTracker, TermSnapshots, int]],
) -> None:
    """Extend many trackers, each through its own horizon.

    Per-term matrices are prepared first, every batchable snapshot
    across *all* terms joins one batched Kadane per bucket of grid
    heights, and the scalar finish runs per term.  Each tracker ends
    exactly as Algorithm 2 run one snapshot at a time would leave it.
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
    term_snapshots: Mapping[str, TermSnapshots],
    store: LocationStore,
    config: STLocalConfig,
) -> Dict[str, STLocalTermTracker]:
    """Mine many terms' regional state off their sparse snapshot slices.

    The multi-term driver: one tracker per term, all advanced by one
    sweep (see :func:`advance_trackers`).  A term with no snapshots
    keeps a pristine tracker at clock 0.  Each tracker stops after its
    term's last active snapshot: from there on every stream's
    burstiness is ``observed − expected = −expected ≤ 0`` (every
    baseline in :mod:`repro.temporal.baselines` expects a non-negative
    frequency), so no new rectangle, maximal segment or window can
    appear, and only the per-snapshot history series would grow.
    """
    trackers: Dict[str, STLocalTermTracker] = {}
    jobs = []
    for term, snapshots in term_snapshots.items():
        tracker = trackers[term] = STLocalTermTracker(store, config)
        if snapshots:
            jobs.append((tracker, snapshots, max(snapshots) + 1))
    advance_trackers(jobs)
    return trackers
