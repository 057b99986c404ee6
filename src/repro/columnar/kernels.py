"""Numerical kernels behind the columnar storage layer.

Every kernel here is a drop-in replacement for a pure-Python loop
elsewhere in the repository, with one hard guarantee: **byte-identical
floats**.  The legacy implementations accumulate left-to-right with
``+=``; NumPy's ``cumsum``/``ufunc.accumulate`` are strictly sequential
as well, and elementwise arithmetic performs the same IEEE-754
operation on the same operands — so swapping a Python loop for the
array form changes throughput, never output.  (Transcendentals are the
exception: ``np.log`` over an array may differ from ``math.log`` by an
ulp, so the kernels only ever take logarithms of *scalars* via
``math.log`` and broadcast the results.)

The maximum-weight-rectangle kernel is *adaptive*: the batched
prefix-min Kadane is vectorized for large grids, but the grids R-Bursty
actually sees are tiny (a handful of active streams per snapshot),
where NumPy's per-call overhead dominates the arithmetic.  Below
:data:`SCALAR_GRID_CELLS` cells a scalar path runs the identical
operation sequence on plain Python floats instead.  Both paths
reproduce the legacy scan order bit-for-bit, including the
first-strict-maximum tie-breaking of ``np.argmax``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SCALAR_GRID_CELLS",
    "batched_first_rectangles",
    "max_rectangle_grid",
    "max_rectangle_points",
    "maximal_segment_bounds",
    "maximal_segment_state",
    "running_mean_burstiness",
    "binomial_cost_series",
]

#: Grid sizes (``rows × cols``) at or below which the scalar Kadane path
#: outruns the vectorized one (NumPy call overhead > arithmetic).
SCALAR_GRID_CELLS = 256

#: Returned rectangle bounds: (score, y_lo, y_hi, x_lo, x_hi) as grid
#: row/column indices.
GridBounds = Tuple[float, int, int, int, int]


# ----------------------------------------------------------------------
# Maximum-weight rectangle (batched prefix-min Kadane)
# ----------------------------------------------------------------------
def _max_rectangle_grid_numpy(grid: np.ndarray) -> Optional[GridBounds]:
    """Vectorized batched Kadane over an ``m × k`` cell-weight grid."""
    m, k = grid.shape
    best_score = 0.0
    best: Optional[GridBounds] = None
    row_cumulative = np.cumsum(grid, axis=0)
    zeros_column = np.zeros((m, 1))
    for y_lo in range(m):
        bands = row_cumulative[y_lo:]
        if y_lo > 0:
            bands = bands - row_cumulative[y_lo - 1]
        prefix = np.cumsum(bands, axis=1)
        shifted = np.concatenate(
            (zeros_column[: bands.shape[0]], prefix[:, :-1]), axis=1
        )
        running_min = np.minimum.accumulate(shifted, axis=1)
        gains = prefix - running_min
        flat_best = int(np.argmax(gains))
        row_rel, right = divmod(flat_best, k)
        score = float(gains[row_rel, right])
        if score > best_score:
            target = running_min[row_rel, right]
            left = int(
                np.flatnonzero(shifted[row_rel, : right + 1] == target)[0]
            )
            best_score = score
            best = (score, y_lo, y_lo + row_rel, left, right)
    return best


def _max_rectangle_grid_scalar(grid: Sequence[Sequence[float]]) -> Optional[GridBounds]:
    """Scalar twin of :func:`_max_rectangle_grid_numpy`.

    Performs the exact operation sequence of the vectorized path —
    per-column cumulative sums, per-band prefix sums, running minima,
    first-strict-maximum selection — on plain floats, which is faster
    for the tiny grids a single snapshot produces.
    """
    m = len(grid)
    # np.cumsum(grid, axis=0): sequential addition down each column.
    col_cum: List[List[float]] = [list(grid[0])]
    prev = col_cum[0]
    for r in range(1, m):
        prev = [a + b for a, b in zip(prev, grid[r])]
        col_cum.append(prev)

    neg_inf = float("-inf")
    best_score = 0.0
    best: Optional[GridBounds] = None
    for y_lo in range(m):
        base = col_cum[y_lo - 1] if y_lo > 0 else None
        # argmax over the (m - y_lo) × k gains matrix, row-major with
        # first-strict-maximum ties — the np.argmax contract.
        best_gain = neg_inf
        best_rel = best_right = 0
        best_target = 0.0
        for rel in range(m - y_lo):
            row = col_cum[y_lo + rel]
            prefix = 0.0
            running_min = 0.0
            if base is None:
                for c, band in enumerate(row):
                    # prefix still holds shifted[c]; fold it into the
                    # running minimum before advancing.
                    if prefix < running_min:
                        running_min = prefix
                    prefix = prefix + band
                    gain = prefix - running_min
                    if gain > best_gain:
                        best_gain = gain
                        best_rel = rel
                        best_right = c
                        best_target = running_min
            else:
                c = 0
                for top, bottom in zip(row, base):
                    if prefix < running_min:
                        running_min = prefix
                    prefix = prefix + (top - bottom)
                    gain = prefix - running_min
                    if gain > best_gain:
                        best_gain = gain
                        best_rel = rel
                        best_right = c
                        best_target = running_min
                    c += 1
        if best_gain > best_score:
            # Recover the left edge: first column whose shifted prefix
            # equals the running minimum at the selected right edge.
            row = col_cum[y_lo + best_rel]
            prefix = 0.0
            left = 0
            for c in range(best_right + 1):
                if prefix == best_target:
                    left = c
                    break
                band = row[c] - base[c] if base is not None else row[c]
                prefix = prefix + band
            best_score = best_gain
            best = (best_gain, y_lo, y_lo + best_rel, left, best_right)
    return best


def max_rectangle_grid(grid: Sequence[Sequence[float]]) -> Optional[GridBounds]:
    """Best (strictly positive) rectangle of a cell-weight grid.

    Accepts a list-of-lists or an ndarray; dispatches to the scalar or
    vectorized Kadane by grid size.  Returns ``None`` when no rectangle
    scores above zero.
    """
    m = len(grid)
    k = len(grid[0])
    if m * k <= SCALAR_GRID_CELLS and not isinstance(grid, np.ndarray):
        return _max_rectangle_grid_scalar(grid)
    return _max_rectangle_grid_numpy(np.asarray(grid, dtype=float))


def max_rectangle_points(
    xs: Sequence[float],
    ys: Sequence[float],
    weights: Sequence[float],
) -> Optional[Tuple[float, float, float, float, float]]:
    """Maximum-weight axis-aligned rectangle over weighted points.

    The arguments are parallel sequences describing the *active*
    (non-zero-weight) points in their canonical evaluation order; the
    caller is responsible for that filtering, exactly as
    :func:`repro.spatial.discrepancy.max_weight_rectangle` drops
    zero-weight points before compressing coordinates.

    Returns:
        ``(score, min_x, min_y, max_x, max_y)`` of the tight optimal
        rectangle, or ``None`` when no positive-weight point exists.
    """
    n = len(weights)
    if not any(w > 0.0 for w in weights):
        return None
    cxs = sorted(set(xs))
    cys = sorted(set(ys))
    k, m = len(cxs), len(cys)
    x_index = {x: i for i, x in enumerate(cxs)}
    y_index = {y: i for i, y in enumerate(cys)}
    if m * k <= SCALAR_GRID_CELLS:
        grid: List[List[float]] = [[0.0] * k for _ in range(m)]
        for i in range(n):
            grid[y_index[ys[i]]][x_index[xs[i]]] += weights[i]
        bounds = _max_rectangle_grid_scalar(grid)
    else:
        dense = np.zeros((m, k), dtype=float)
        rows = np.fromiter((y_index[y] for y in ys), dtype=np.intp, count=n)
        cols = np.fromiter((x_index[x] for x in xs), dtype=np.intp, count=n)
        # np.add.at is unbuffered: duplicate cells accumulate in input
        # order, matching the legacy per-point ``+=`` loop.
        np.add.at(dense, (rows, cols), np.asarray(weights, dtype=float))
        bounds = _max_rectangle_grid_numpy(dense)
    if bounds is None:
        return None
    score, y_lo, y_hi, x_lo, x_hi = bounds
    return (score, cxs[x_lo], cys[y_lo], cxs[x_hi], cys[y_hi])


# ----------------------------------------------------------------------
# Batched Kadane over many grids at once
# ----------------------------------------------------------------------
def batched_first_rectangles(
    grids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maximum-weight rectangle of many cell grids in one vectorized pass.

    ``grids`` is an ``(n, m_pad, k_pad)`` tensor of zero-padded cell
    weights — one snapshot grid per slice, each occupying the top-left
    ``m_i × k_i`` corner.  All grids share one batched prefix-min Kadane
    whose per-slice arithmetic is byte-identical to
    :func:`_max_rectangle_grid_numpy` on the unpadded grid:

    * zero padding is *inert* — cumulative sums and band differences
      pass zeros through unchanged, so every real cell's value is
      computed from the identical operand sequence;
    * zero padding is *tie-safe* — a padded column's gain is either 0
      or an exact duplicate of the last real column's gain (and padded
      rows duplicate the last real row), so the row-major
      first-strict-maximum always lands on the same real cell the
      unpadded ``argmax`` selects, and a padded cell can only "win"
      with score 0, which the strictly-positive acceptance ignores.

    Returns:
        ``(found, score, y_lo, y_hi, x_lo, x_hi)`` arrays over the
        ``n`` grids; entries where ``found`` is False have no rectangle
        with strictly positive weight.
    """
    n, m_pad, k_pad = grids.shape
    col_cum = np.cumsum(grids, axis=1)
    best_score = np.zeros(n)
    best_y_lo = np.zeros(n, dtype=np.int64)
    best_rel = np.zeros(n, dtype=np.int64)
    best_right = np.zeros(n, dtype=np.int64)
    best_target = np.zeros(n)
    rows_index = np.arange(n)
    # One reusable buffer with a leading zero column: after an in-place
    # cumsum into columns 1…k, columns 0…k-1 *are* the shifted prefixes.
    padded = np.zeros((n, m_pad, k_pad + 1))
    for y_lo in range(m_pad):
        bands = col_cum[:, y_lo:, :]
        if y_lo > 0:
            bands = bands - col_cum[:, y_lo - 1 : y_lo, :]
        window = padded[:, : m_pad - y_lo, :]
        np.cumsum(bands, axis=2, out=window[:, :, 1:])
        prefix = window[:, :, 1:]
        running_min = np.minimum.accumulate(window[:, :, :-1], axis=2)
        gains = (prefix - running_min).reshape(n, -1)
        arg = np.argmax(gains, axis=1)
        score = gains[rows_index, arg]
        better = score > best_score
        if better.any():
            target = running_min.reshape(n, -1)[rows_index, arg]
            rel, right = np.divmod(arg, k_pad)
            best_score[better] = score[better]
            best_y_lo[better] = y_lo
            best_rel[better] = rel[better]
            best_right[better] = right[better]
            best_target[better] = target[better]
    found = best_score > 0.0
    # Left-edge recovery, replayed scalar per winning grid: first column
    # whose shifted prefix equals the captured running minimum.
    lefts = np.zeros(n, dtype=np.int64)
    for t in np.flatnonzero(found).tolist():
        y_lo = int(best_y_lo[t])
        right = int(best_right[t])
        target = best_target[t]
        row = col_cum[t, y_lo + int(best_rel[t])].tolist()
        base = col_cum[t, y_lo - 1].tolist() if y_lo > 0 else None
        prefix_value = 0.0
        left = 0
        for c in range(right + 1):
            if prefix_value == target:
                left = c
                break
            band = row[c] - base[c] if base is not None else row[c]
            prefix_value = prefix_value + band
        lefts[t] = left
    return (
        found,
        best_score,
        best_y_lo,
        best_y_lo + best_rel,
        lefts,
        best_right,
    )


# ----------------------------------------------------------------------
# Ruzzo–Tompa maximal segments over prefix sums
# ----------------------------------------------------------------------
def maximal_segment_state(
    values: Sequence[float],
) -> Tuple[List[Tuple[int, int, float, float]], float, int]:
    """Batch Ruzzo–Tompa: the full online-algorithm state in one pass.

    The cumulative totals the online algorithm maintains one ``+=`` at
    a time are precomputed with a single sequential ``cumsum``, and the
    candidate-merging loop then touches only the positive entries.  The
    returned ``(candidates, cumulative, length)`` triple reproduces a
    :class:`repro.temporal.max_segments.OnlineMaxSegments` that
    consumed the same values byte-for-byte: candidate boundary sums are
    the same prefix floats, and the running total equals the same
    sequential summation.

    Returns:
        ``candidates`` as ``(start, end, left_sum, right_sum)`` tuples
        in left-to-right order, the cumulative total, and the sequence
        length.
    """
    length = len(values)
    if length == 0:
        return [], 0.0, 0
    if length <= 128:
        # Short sequences: the ndarray round-trip costs more than the
        # sum itself.  Same sequential additions, same floats.
        prefix = []
        running = 0.0
        positive_indices: List[int] = []
        for i, value in enumerate(values):
            if value > 0.0:
                positive_indices.append(i)
            running += value
            prefix.append(running)
        cumulative = running
    else:
        arr = np.asarray(values, dtype=float)
        prefix = np.cumsum(arr).tolist()
        cumulative = prefix[-1]
        positive_indices = np.flatnonzero(arr > 0.0).tolist()
    # Candidates as (start, end, left_sum, right_sum); the integration
    # loop mirrors OnlineMaxSegments._integrate (Appendix C, steps 1-2).
    candidates: List[Tuple[int, int, float, float]] = []
    for i in positive_indices:
        start = end = i
        left_sum = prefix[i - 1] if i > 0 else 0.0
        right_sum = prefix[i]
        while True:
            j = len(candidates) - 1
            while j >= 0 and candidates[j][2] >= left_sum:
                j -= 1
            if j < 0 or candidates[j][3] >= right_sum:
                candidates.append((start, end, left_sum, right_sum))
                break
            start = candidates[j][0]
            left_sum = candidates[j][2]
            del candidates[j:]
    return candidates, cumulative, length


def maximal_segment_bounds(
    values: Sequence[float],
) -> List[Tuple[int, int, float]]:
    """All maximal scoring subsequences as ``(start, end, score)``.

    Thin wrapper over :func:`maximal_segment_state`, scoring each
    surviving candidate as ``right_sum − left_sum`` — the identical
    subtraction the online algorithm performs.
    """
    candidates, _, _ = maximal_segment_state(values)
    return [
        (start, end, right_sum - left_sum)
        for start, end, left_sum, right_sum in candidates
    ]


# ----------------------------------------------------------------------
# Running-mean burstiness matrix (Eq. 7, paper-default baseline)
# ----------------------------------------------------------------------
def running_mean_burstiness(
    counts: np.ndarray,
    start: int,
    warmup: int,
    carried: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Discrepancy burstiness of every (stream, snapshot) cell at once.

    Args:
        counts: Dense ``(streams × span)`` observed frequencies, column
            ``j`` holding global timestamp ``start + j``.  Rows must
            cover each stream's observations from ``start`` on: the
            running mean at column ``j`` divides the row's cumulative
            total before ``j`` by the *global* timestamp, which is
            exactly the state a lazily-created, zero-primed
            :class:`~repro.temporal.baselines.RunningMeanBaseline`
            reaches after replaying the same snapshots.
        start: Global timestamp of column 0.
        warmup: Snapshots (global) during which burstiness is forced to
            zero while the baseline learns.
        carried: Each row's model total before ``start`` (zeros when
            omitted).  The cumulative sum starts from it, so a model
            advanced in several calls adds exactly the values, in the
            same order, as one that observed every snapshot.

    Returns:
        ``(burstiness, totals)`` — the ``observed − expected`` matrix
        and each row's final cumulative total (the model state after
        the last column, for reconstructing live-compatible trackers).
    """
    n, span = counts.shape
    if carried is None:
        carried = np.zeros(n)
    # Column 0 is the carried total; column j + 1 the total through
    # column j — the model's sequential ``total += value``.
    running = np.cumsum(
        np.concatenate((carried[:, None], counts), axis=1), axis=1
    )
    before = running[:, :-1]
    timestamps = np.arange(start, start + span, dtype=float)
    divisor = np.maximum(timestamps, 1.0)
    expected = before / divisor
    if start == 0:
        expected[:, 0] = 0.0  # count == 0 → the model's zero prior
    burstiness = counts - expected
    if warmup > start:
        burstiness[:, : warmup - start] = 0.0
    # A copy, not a view: trackers keep the totals, not the cumsum.
    return burstiness, running[:, -1].copy()


# ----------------------------------------------------------------------
# Kleinberg emission costs
# ----------------------------------------------------------------------
def binomial_cost_series(
    log_p: float,
    log_1p: float,
    relevant: np.ndarray,
    observed: np.ndarray,
) -> np.ndarray:
    """Per-timestamp negative binomial log-likelihoods (coefficient-free).

    ``log_p``/``log_1p`` are scalar logarithms the caller computed with
    ``math.log`` on the clipped emission probability — taking the log
    outside the array keeps the elementwise arithmetic byte-identical
    to :func:`repro.temporal.kleinberg._binomial_cost` per element.
    """
    return -(relevant * log_p + (observed - relevant) * log_1p)
