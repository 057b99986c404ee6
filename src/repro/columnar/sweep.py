"""Columnar STLocal burst sweep: one tensor slice, zero per-snapshot dicts.

The legacy snapshot-major sweep (:mod:`repro.pipeline.batch`) advances a
:class:`~repro.core.stlocal.STLocalTermTracker` one snapshot at a time:
every ``process`` call updates per-stream expectation-model *objects*,
builds :class:`~repro.spatial.discrepancy.WeightedPoint` dataclasses,
and re-enters NumPy for a grid the size of a postage stamp.  This module
is the columnar rewrite of that inner loop, in three phases:

1. **prepare** — each term's whole ``observed − expected`` burstiness
   matrix is computed in one vectorized pass
   (:func:`repro.columnar.kernels.running_mean_burstiness`), along with
   one coordinate compression per activation segment;
2. **batch** — the first R-Bursty rectangle of every segment-batchable
   snapshot of *every* term is extracted by a single padded-tensor
   Kadane (:func:`repro.columnar.kernels.batched_first_rectangles`);
   a snapshot is batchable when no active stream's weight is exactly
   zero, so its per-snapshot compression provably equals its segment's
   shared one.  The remaining extractions — unclean first rounds and
   all second-and-later rectangles after point retirement — are
   resolved by the same batched kernel in rounds, each round
   compressing every still-pending snapshot exactly as the reference
   per-snapshot call would;
3. **finish** — rectangles become region lifecycles: a region's whole
   r-score series is read off its member set's cached score series
   (sequential member-row additions over the matrix), its pruning
   snapshot found by one scalar running-total scan, and its
   Ruzzo–Tompa state materialised in one batch pass.  The result is a
   *real* ``STLocalTermTracker`` whose state — open sequences,
   archived windows, histories, expectation models — is
   indistinguishable from a snapshot-by-snapshot replay.

The fast path only engages for the paper-default baseline (a zero-prior
:class:`~repro.temporal.baselines.RunningMeanBaseline`), whose running
mean is expressible as a prefix sum; any other ``baseline_factory``
falls back to the legacy replay (see :func:`columnar_supported`).
Output equality is enforced by ``tests/test_columnar_differential.py``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

import numpy as np

from repro.columnar import kernels
from repro.core.config import STLocalConfig
from repro.core.stlocal import (
    RegionSequence,
    STLocalTermTracker,
    sequential_sum,
)
from repro.errors import StreamError
from repro.intervals.interval import Interval
from repro.spatial.geometry import Point, Rectangle
from repro.spatial.index import IntervalSpatialIndex, SpatialIndex
from repro.temporal.baselines import RunningMeanBaseline
from repro.temporal.max_segments import OnlineMaxSegments

__all__ = [
    "columnar_supported",
    "LocationStore",
    "sweep_term",
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
    region its entire value sequence — including the snapshot (if any)
    whose appended value drives the running total negative, Algorithm
    2's pruning rule — is read off the member-set's precomputed score
    series (see ``_finish_term``); no per-snapshot bookkeeping remains.
    """

    __slots__ = ("region", "members", "start", "values", "prune_timestamp")

    def __init__(
        self,
        region: Rectangle,
        members: FrozenSet[Hashable],
        start: int,
        values: List[float],
        prune_timestamp: int,
    ) -> None:
        self.region = region
        self.members = members
        self.start = start
        self.values = values
        self.prune_timestamp = prune_timestamp

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
            stream_ids=self.members,
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
    """A sweep-built tracker that answers history queries columnar-ly.

    Indistinguishable from a replayed ``STLocalTermTracker`` (same
    sequences, archives, models, histories), but it additionally keeps
    the term's burstiness matrix so :meth:`bursty_members` — the
    dominant cost of pattern extraction on history-rich corpora — can
    sum a row slice instead of probing a per-timestamp dict.  Further
    ``process`` calls append to state the matrix does not cover, so the
    first one drops the acceleration and falls back to the inherited
    dict-walk.
    """

    _burst_rows: Optional[List[List[float]]] = None
    _burst_row_of: Dict[Hashable, int] = {}
    _burst_first: int = 0
    _burst_totals: Optional[Dict[Tuple[int, int, int], bool]] = None

    def process(self, frequencies: Dict[Hashable, float]) -> int:
        self._burst_rows = None
        return super().process(frequencies)

    def bursty_members(self, streams, timeframe):
        rows = self._burst_rows
        if rows is None or not self.config.track_history:
            return super().bursty_members(streams, timeframe)
        first = self._burst_first
        row_of = self._burst_row_of
        span = len(rows[0]) if rows else 0
        lo = timeframe.start - first
        hi = timeframe.end - first + 1
        if lo < 0:
            lo = 0
        if hi > span:
            hi = span
        if lo >= hi:
            return frozenset()
        cache = self._burst_totals
        if cache is None:
            cache = self._burst_totals = {}
        bursty = set()
        for sid in streams:
            row = row_of.get(sid)
            if row is None:
                continue
            key = (row, lo, hi)
            positive = cache.get(key)
            if positive is None:
                # Sequential sum over the frame slice: the same
                # non-zero values the history dict holds, in the same
                # ascending order, with inert zeros in between —
                # byte-identical.  Patterns of one term share frames
                # and member streams heavily, hence the memo.
                positive = sequential_sum(rows[row][lo:hi]) > 0.0
                cache[key] = positive
            if positive:
                bursty.add(sid)
        return frozenset(bursty)


class _TermPlan:
    """Per-term intermediate state between the prepare and finish phases."""

    __slots__ = (
        "snapshots",
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
    snapshots: Dict[int, Dict[Hashable, float]],
    store: LocationStore,
    config: STLocalConfig,
    timeline: int,
    truncate_tails: bool,
) -> _TermPlan:
    """Phase 1: burstiness matrix, coordinate compression, batch mask."""
    plan = _TermPlan()
    plan.snapshots = snapshots
    first = min(snapshots)
    last = max(snapshots)
    plan.first = first
    plan.end = last if truncate_tails else timeline - 1
    span = plan.end - first + 1

    # Rows: every stream the term ever touches, in the same
    # sorted-by-repr order the tracker evaluates active streams in.
    seen: Dict[Hashable, None] = {}
    for slice_ in snapshots.values():
        for sid in slice_:
            if sid not in store.coords:
                raise StreamError(f"unknown stream {sid!r} in snapshot")
            seen.setdefault(sid, None)
    row_ids = sorted(seen, key=repr)
    plan.row_ids = row_ids
    plan.row_of = {sid: row for row, sid in enumerate(row_ids)}
    n_rows = len(row_ids)

    counts = np.zeros((n_rows, span), dtype=float)
    for timestamp, slice_ in snapshots.items():
        column = timestamp - first
        for sid, value in slice_.items():
            counts[plan.row_of[sid], column] = float(value)

    plan.burstiness, plan.totals = kernels.running_mean_burstiness(
        counts, first, config.warmup
    )
    plan.columns = plan.burstiness.T.tolist()
    # Global timestamp of each row's first observation (model creation):
    # from then on the stream is an active point of every snapshot.
    plan.first_active = (
        first + np.argmax(counts > 0.0, axis=1)
    ).tolist()
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


def _scatter_grids(
    plans: List[_TermPlan], m_pad: int, k_pad: int
) -> np.ndarray:
    """Phase 2a: pack every batchable snapshot into one padded tensor.

    Accumulation follows the legacy order — rows ascending (the
    sorted-by-repr point order) within each snapshot — via one
    sequential ``bincount`` per mine call.
    """
    total = sum(plan.clean_count for plan in plans)
    flat_indices: List[np.ndarray] = []
    flat_values: List[np.ndarray] = []
    offset = 0
    for plan in plans:
        for segment in plan.segments:
            clean = segment.clean_columns
            if not clean:
                continue
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
            offset += s
    grids = np.zeros(total * m_pad * k_pad)
    if flat_indices:
        grids = np.bincount(
            np.concatenate(flat_indices),
            weights=np.concatenate(flat_values),
            minlength=total * m_pad * k_pad,
        )
    return grids.reshape(total, m_pad, k_pad)


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
        m_pad = max(len(cys) for _, cys in compressions)
        k_pad = max(len(cxs) for cxs, _ in compressions)
        tensor = np.zeros((len(grids), m_pad, k_pad))
        for index, grid in enumerate(grids):
            tensor[index, : len(grid), : len(grid[0])] = grid
        found_mask, score, y_lo, y_hi, x_lo, x_hi = (
            kernels.batched_first_rectangles(tensor)
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
    plan: _TermPlan,
    store: LocationStore,
    config: STLocalConfig,
    rectangle_map: Dict[int, List[Bounds]],
) -> STLocalTermTracker:
    """Phase 3: region lifecycles and histories off the matrices."""
    tracker = ColumnarTermTracker(
        store.locations, config=config, index=store.index, copy_locations=False
    )
    first, end = plan.first, plan.end
    row_of = plan.row_of
    n_rows = len(plan.row_ids)

    tracker.fast_forward(first)
    rectangle_history = tracker.rectangle_history
    key_by_geometry = config.key_by_geometry

    span = end - first + 1
    burstiness = plan.burstiness
    regions: List[Tuple[Hashable, _Region]] = []
    #: key → prune timestamp of its latest region; a same-key rectangle
    #: is ignored while ``timestamp <= blocked_until`` (the region is
    #: still in the sequence map during its pruning snapshot).
    blocked_until: Dict[Hashable, int] = {}
    #: members → full-span r-score series of that member set.  The
    #: per-snapshot value is start-independent (the same sequential
    #: member-row additions), so recurring rectangles share one series.
    series_cache: Dict[FrozenSet[Hashable], List[float]] = {}
    open_deltas = [0] * (span + 1)

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
            series = series_cache.get(members)
            if series is None:
                member_rows = [
                    row_of[sid]
                    for sid in sorted(members, key=repr)
                    if sid in row_of
                ]
                accumulated = np.zeros(span)
                for row in member_rows:
                    accumulated += burstiness[row]
                series = accumulated.tolist()
                series_cache[members] = series
            # Scalar lifecycle scan: the same sequential running total
            # the per-snapshot loop would accumulate, stopped at the
            # pruning snapshot (Algorithm 2, lines 11-12).
            total = 0.0
            prune_timestamp = end + 1
            prune_bound = span
            for column_index in range(local, span):
                total += series[column_index]
                if total < 0.0:
                    prune_timestamp = first + column_index
                    prune_bound = column_index + 1
                    break
            values = series[local:prune_bound]
            region = _Region(
                region=Rectangle(min_x, min_y, max_x, max_y),
                members=members,
                start=timestamp,
                values=values,
                prune_timestamp=prune_timestamp,
            )
            regions.append((key, region))
            blocked_until[key] = prune_timestamp
            open_deltas[local] += 1
            if prune_timestamp <= end:
                open_deltas[prune_timestamp - first] -= 1

    running_open = 0
    open_history = tracker.open_history
    for local in range(span):
        running_open += open_deltas[local]
        open_history.append(running_open)

    # Archive pruned regions in the legacy order: by pruning snapshot,
    # then by position in the sequence map (creation order).
    archived = tracker._archived
    pruned = [
        (region.prune_timestamp, index, key, region)
        for index, (key, region) in enumerate(regions)
        if region.prune_timestamp <= end
    ]
    pruned.sort(key=lambda item: (item[0], item[1]))
    for _, _, _, region in pruned:
        for timeframe, score in region.windows():
            archived.append((region.region, region.members, timeframe, score))

    tracker._clock = end + 1
    tracker._sequences = {
        key: region.to_sequence()
        for key, region in regions
        if region.prune_timestamp > end
    }

    # Reconstruct the per-stream expectation models so the tracker can
    # keep processing (or fork) exactly as a replayed one would.
    first_active = plan.first_active
    for row, sid in enumerate(plan.row_ids):
        model = config.baseline_factory()
        model.prime_zeros(first_active[row])
        model._count += (end + 1) - first_active[row]
        model._total = float(plan.totals[row])
        tracker._models[sid] = model

    if config.track_history:
        history = tracker._history
        nz_rows, nz_cols = np.nonzero(plan.burstiness)
        values = plan.burstiness[nz_rows, nz_cols].tolist()
        timestamps = (first + nz_cols).tolist()
        # np.nonzero is row-major, so each row's entries are contiguous
        # and ascending — one dict(zip(…)) per stream.
        counts_per_row = np.bincount(nz_rows, minlength=n_rows).tolist()
        position = 0
        for row, count in enumerate(counts_per_row):
            if count:
                history[plan.row_ids[row]] = dict(
                    zip(
                        timestamps[position : position + count],
                        values[position : position + count],
                    )
                )
                position += count
        tracker._burst_rows = plan.burstiness.tolist()
        tracker._burst_row_of = plan.row_of
        tracker._burst_first = first
    return tracker


def sweep_terms(
    term_snapshots: Dict[str, Dict[int, Dict[Hashable, float]]],
    store: LocationStore,
    config: STLocalConfig,
    timeline: int,
    truncate_tails: bool = True,
) -> Dict[str, STLocalTermTracker]:
    """Mine many terms' regional state off their sparse snapshot slices.

    The multi-term driver: per-term matrices are prepared first, every
    batchable snapshot across *all* terms shares one padded-tensor
    Kadane, and the scalar finish runs per term.  Each returned tracker
    is byte-equivalent to feeding the same snapshots through
    :meth:`~repro.core.stlocal.STLocalTermTracker.process` one
    timestamp at a time.
    """
    trackers: Dict[str, STLocalTermTracker] = {}
    plans: List[Tuple[str, _TermPlan]] = []
    for term, snapshots in term_snapshots.items():
        if snapshots:
            plans.append(
                (
                    term,
                    _prepare_term(
                        snapshots, store, config, timeline, truncate_tails
                    ),
                )
            )
        else:
            trackers[term] = STLocalTermTracker(
                store.locations,
                config=config,
                index=store.index,
                copy_locations=False,
            )

    batch: Optional[Tuple[np.ndarray, ...]] = None
    if plans:
        sizes = [
            (len(segment.cys), len(segment.cxs))
            for _, plan in plans
            for segment in plan.segments
        ]
        m_pad = max(m for m, _ in sizes)
        k_pad = max(k for _, k in sizes)
        grids = _scatter_grids([plan for _, plan in plans], m_pad, k_pad)
        if len(grids):
            batch = kernels.batched_first_rectangles(grids)

    rectangle_maps = _resolve_rectangles([plan for _, plan in plans], batch)
    for (term, plan), rectangle_map in zip(plans, rectangle_maps):
        trackers[term] = _finish_term(plan, store, config, rectangle_map)
    return trackers


def sweep_term(
    snapshots: Dict[int, Dict[Hashable, float]],
    store: LocationStore,
    config: STLocalConfig,
    timeline: int,
    truncate_tails: bool = True,
) -> STLocalTermTracker:
    """Mine one term's regional state from its sparse snapshot slices.

    Single-term convenience wrapper over the :func:`sweep_terms`
    driver.

    Args:
        snapshots: The term's non-empty per-timestamp slices (the
            :meth:`~repro.streams.FrequencyTensor.term_snapshots` shape).
        store: Shared location columns for this mine call.
        config: STLocal settings (must pass :func:`columnar_supported`).
        timeline: Collection timeline length.
        truncate_tails: Stop after the term's last active snapshot (the
            batch pipeline's tail truncation).

    Returns:
        A tracker byte-equivalent to feeding the same snapshots through
        :meth:`STLocalTermTracker.process` one timestamp at a time.
    """
    return sweep_terms(
        {"": snapshots}, store, config, timeline, truncate_tails
    )[""]
