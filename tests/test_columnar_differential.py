"""Differential harness: columnar kernel == pure-Python reference.

The columnar storage layer's correctness contract mirrors the live
layer's: every externally observable structure — mined pattern sets,
tracker state, discrepancy rectangles, burst segments, posting lists,
top-k answers — must be *byte-identical* to the pure-Python reference
path on any input.  "Identical" is exact: float scores are compared
with ``==``, no tolerance, because the kernels are designed to perform
the same IEEE-754 operations in the same order.

These tests generate seeded random corpora and Hypothesis-driven
inputs (in the style of ``tests/test_live_differential.py``) and hold
the two paths equal at every layer the columnar kernel touches.
"""

import functools
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BatchMiner,
    BurstySearchEngine,
    Document,
    FrequencyTensor,
    Point,
    STLocal,
    SpatiotemporalCollection,
)
from repro.columnar.kernels import (
    batched_first_rectangles,
    max_rectangle_points,
    maximal_segment_state,
)
from repro.columnar.postings import PostingArray
from repro.core.config import STLocalConfig
from repro.core.stlocal import STLocalTermTracker
from repro.intervals.interval import Interval
from repro.pipeline import IncrementalFeeder
from repro.search import exhaustive_topk, threshold_topk
from repro.search.inverted_index import Posting
from repro.spatial.discrepancy import (
    WeightedPoint,
    max_weight_rectangle,
    max_weight_rectangle_bruteforce,
)
from repro.temporal.baselines import (
    EWMABaseline,
    MovingAverageBaseline,
    RunningMeanBaseline,
    SeasonalBaseline,
)
from repro.temporal.kleinberg import KleinbergBurstDetector
from repro.temporal.max_segments import (
    OnlineMaxSegments,
    maximal_segments,
    maximal_segments_bruteforce,
    maximal_segments_reference,
)

from oracles.postings import PostingList, pairs, reference_log_relevance
from oracles.stlocal import (
    ReferenceTermTracker,
    _sum_left_to_right,
    assert_trackers_equal,
    history_of,
    replay_patterns,
    replay_trackers,
    sequential_sum,
)

# ----------------------------------------------------------------------
# Corpus generation (seeded, bursty + ambient mixture)
# ----------------------------------------------------------------------


def build_corpus(seed, n_streams=9, timeline=28, n_terms=4):
    rng = random.Random(seed)
    collection = SpatiotemporalCollection(timeline=timeline)
    side = 3
    for i in range(n_streams):
        collection.add_stream(
            f"s{i}", Point(float(i % side) * 2.0, float(i // side) * 2.0)
        )
    doc_id = 0
    for index in range(n_terms):
        term = f"t{index}"
        # ambient chatter over random streams
        for _ in range(rng.randint(0, 25)):
            collection.add_document(
                Document(
                    doc_id,
                    f"s{rng.randint(0, n_streams - 1)}",
                    rng.randint(0, timeline - 1),
                    (term,) * rng.randint(1, 2),
                )
            )
            doc_id += 1
        # one localized burst
        start = rng.randint(0, timeline - 6)
        members = {rng.randint(0, n_streams - 1) for _ in range(3)}
        for t in range(start, start + rng.randint(2, 5)):
            for member in members:
                collection.add_document(
                    Document(doc_id, f"s{member}", t, (term,))
                )
                doc_id += 1
    return collection


def build_mixed_shape_corpus(seed, side=6, timeline=30, n_terms=6):
    """Each term chats and bursts inside its own band of lattice rows
    (1 to ``side`` rows tall), so its snapshot grids have the band's
    height."""
    rng = random.Random(seed)
    collection = SpatiotemporalCollection(timeline=timeline)
    for i in range(side * side):
        collection.add_stream(
            f"s{i:02d}", Point(float(i % side), float(i // side) * 1.5)
        )
    doc_id = 0
    for index in range(n_terms):
        term = f"t{index}"
        height = 1 + index % side
        top = rng.randint(0, side - height)
        band = [
            f"s{row * side + col:02d}"
            for row in range(top, top + height)
            for col in range(side)
        ]
        for _ in range(rng.randint(20, 60)):
            collection.add_document(
                Document(
                    doc_id,
                    rng.choice(band),
                    rng.randint(0, timeline - 1),
                    (term,) * rng.randint(1, 2),
                )
            )
            doc_id += 1
        start = rng.randint(0, timeline - 6)
        members = {rng.choice(band) for _ in range(4)}
        for t in range(start, start + rng.randint(2, 5)):
            for member in sorted(members):
                collection.add_document(Document(doc_id, member, t, (term,)))
                doc_id += 1
    return collection


class LastValueBaseline:
    """Expects the previous observation.  It has no ``prime_zeros``, so
    a model created late is primed by observing the zeros it missed."""

    def __init__(self):
        self._last = 0.0
        self._seen = 0

    def expected(self, timestamp):
        return self._last

    def observe(self, timestamp, value):
        self._last = value
        self._seen += 1


def seasonal_with_fallback(period):
    """A seasonal model with its own running-mean fallback."""
    return SeasonalBaseline(period, RunningMeanBaseline())


custom_baselines = st.one_of(
    st.builds(
        functools.partial, st.just(MovingAverageBaseline),
        window=st.integers(1, 5),
    ),
    st.builds(
        functools.partial, st.just(EWMABaseline),
        alpha=st.sampled_from([0.2, 0.5, 1.0]),
    ),
    st.builds(
        functools.partial, st.just(seasonal_with_fallback),
        st.integers(2, 5),
    ),
    st.builds(
        functools.partial, st.just(RunningMeanBaseline),
        prior=st.sampled_from([0.5, 2.0]),
    ),
    st.just(LastValueBaseline),
)


class TestMiningDifferential:
    def test_patterns_and_tracker_state_identical(self):
        for seed in range(12):
            collection = build_corpus(seed)
            tensor = FrequencyTensor(collection)
            locations = collection.locations()
            terms = sorted(tensor.terms)
            stlocal = STLocal()
            columnar = BatchMiner(stlocal=stlocal)
            assert repr(
                columnar.mine_regional(tensor, terms, locations)
            ) == repr(
                replay_patterns(tensor, terms, locations, stlocal.config)
            ), seed
            for term, tracker in replay_trackers(
                tensor, terms, locations, stlocal.config
            ).items():
                columnar_tracker = columnar.regional_trackers(
                    tensor, [term], locations
                )[term]
                assert_trackers_equal(tracker, columnar_tracker)

    def test_geometry_keyed_and_untruncated_sweeps(self):
        # The sweep stops each term after its last active snapshot; the
        # replay over the whole timeline must find the same patterns.
        collection = build_corpus(99)
        tensor = FrequencyTensor(collection)
        locations = collection.locations()
        terms = sorted(tensor.terms)
        for config in (
            STLocalConfig(key_by_geometry=True),
            STLocalConfig(warmup=0),
            STLocalConfig(track_history=False),
        ):
            stlocal = STLocal(config)
            columnar = BatchMiner(stlocal=stlocal).mine_regional(
                tensor, terms, locations
            )
            for truncate in (True, False):
                reference = replay_patterns(
                    tensor, terms, locations, config, truncate
                )
                assert repr(columnar) == repr(reference)

    def test_sweep_built_live_tracker_extends_like_a_replay(self):
        # The live feeder's durable tracker: swept over the sealed
        # prefix on first touch, advanced by later sweeps as snapshots
        # seal, then forked and previewed through the open tail.
        config = STLocalConfig(warmup=2)
        for seed in range(8):
            collection = build_corpus(seed)
            tensor = FrequencyTensor(collection)
            locations = collection.locations()
            timeline = tensor.timeline
            feeder = IncrementalFeeder(locations, config)
            for term in sorted(tensor.terms):
                snapshots = tensor.term_snapshots(term)
                sealed = (min(snapshots) + max(snapshots)) // 2 + 1
                replay = ReferenceTermTracker(locations, config)
                for timestamp in range(sealed):
                    replay.process(dict(snapshots.get(timestamp, {})))
                durable = feeder.advance(term, snapshots, sealed)
                assert isinstance(durable, STLocalTermTracker), term
                assert_trackers_equal(replay, durable)

                later = min(sealed + 3, timeline)
                for timestamp in range(sealed, later):
                    replay.process(dict(snapshots.get(timestamp, {})))
                assert feeder.advance(term, snapshots, later) is durable
                assert_trackers_equal(replay, durable)

                for timestamp in range(later, timeline):
                    replay.process(dict(snapshots.get(timestamp, {})))
                preview = feeder.preview(term, snapshots, timeline)
                assert_trackers_equal(replay, preview)
                assert preview.patterns(term) == replay.patterns(term)
                assert durable.clock == later

    def test_region_r_score_sums_left_to_right(self):
        # Three streams share one point, so every rectangle holds all
        # three, and at t=1 their burstiness is 1e16, 1.0, -1e16.  Left
        # to right that region's r-score is 0.0 — what the sweep's row
        # additions give; a compensated sum (builtin sum() from CPython
        # 3.12 on) would make it 1.0 and open a second window at t=1.
        for summation in (sequential_sum, _sum_left_to_right):
            assert summation([1e16, 1.0, -1e16]) == 0.0
        locations = {sid: Point(0.0, 0.0) for sid in ("a", "b", "c")}
        snapshots = {0: {"c": 1e16}, 1: {"a": 1e16, "b": 1.0}}
        config = STLocalConfig(warmup=0)
        replay = ReferenceTermTracker(locations, config)
        for timestamp in range(3):
            replay.process(dict(snapshots.get(timestamp, {})))
        swept = STLocalTermTracker(locations, config)
        swept.advance(snapshots, 3)
        assert_trackers_equal(replay, swept)
        assert [window[2] for window in replay.windows()] == [Interval(0, 0)]
        assert replay.patterns("x") == swept.patterns("x")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_advanced_and_forked_tracker_matches_replay(self, data):
        # A columnar tracker swept at one cut, then advanced in several
        # sweeps and single process() calls — streams first seen after
        # the sweep, cuts on either side of the warmup — and finally
        # forked and previewed, against the object tracker replaying
        # the same snapshots one process() call at a time.
        config = STLocalConfig(
            warmup=data.draw(st.integers(0, 4), label="warmup"),
            key_by_geometry=data.draw(st.booleans(), label="geometry"),
            track_history=data.draw(st.booleans(), label="history"),
        )
        timeline = data.draw(st.integers(2, 18), label="timeline")
        # Streams on a 3x2 lattice sharing coordinates, each silent
        # before its own first timestamp.  Explicit zero counts do not
        # create a model (only a positive one does).
        locations = {
            f"s{i}": Point(float(i % 3), float(i // 3)) for i in range(6)
        }
        starts = data.draw(
            st.lists(st.integers(0, timeline - 1), min_size=6, max_size=6),
            label="starts",
        )
        snapshots = {}
        for timestamp in range(timeline):
            slice_ = {}
            for i, start in enumerate(starts):
                if timestamp >= start and data.draw(st.booleans()):
                    slice_[f"s{i}"] = float(data.draw(st.integers(0, 6)))
            if slice_:
                snapshots[timestamp] = slice_
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, timeline), min_size=1, max_size=4),
                label="cuts",
            )
        )

        replay = ReferenceTermTracker(locations, config)
        replay.advance(snapshots, cuts[0])
        tracker = STLocalTermTracker(locations, config)
        tracker.advance(snapshots, cuts[0])
        assert_trackers_equal(replay, tracker)
        for cut in cuts[1:] + [timeline]:
            if cut > tracker.clock and data.draw(st.booleans(), label="step"):
                # One snapshot through process(), the rest by sweep.
                slice_ = snapshots.get(tracker.clock, {})
                assert tracker.process(slice_) == replay.process(slice_)
            replay.advance(snapshots, cut)
            tracker.advance(snapshots, cut)
            assert_trackers_equal(replay, tracker)
            assert repr(tracker.patterns("t")) == repr(replay.patterns("t"))

        clock = tracker.clock
        durable = replay.fork()
        fork = tracker.fork()
        horizon = timeline + data.draw(st.integers(0, 3), label="horizon")
        replay.advance(snapshots, horizon)
        fork.advance(snapshots, horizon)
        assert_trackers_equal(replay, fork)
        assert repr(fork.patterns("t")) == repr(replay.patterns("t"))
        # The preview left the original where it was.
        assert tracker.clock == clock
        assert_trackers_equal(durable, tracker)
        assert repr(tracker.patterns("t")) == repr(durable.patterns("t"))

    def test_window_totals_sum_left_to_right(self):
        # One stream whose burstiness over a nine-snapshot window is
        # 1e16, seven 1.0s, then -1e16.  Left to right every 1.0 is
        # absorbed by 1e16 and the total is 0.0: not bursty.  A pairwise
        # sum (np.sum, in eight lanes) keeps some of the 1.0s.
        values = [1e16] + [1.0] * 7 + [-1e16]
        assert sequential_sum(values) == 0.0
        assert np.cumsum(values)[-1] == 0.0
        locations = {"a": Point(0.0, 0.0), "b": Point(1.0, 0.0)}
        replay = ReferenceTermTracker(locations, STLocalConfig(warmup=0))
        replay._history = {
            "a": dict(enumerate(values)),
            "b": dict(enumerate([1.0] * 9)),
        }
        columnar = STLocalTermTracker(locations, STLocalConfig(warmup=0))
        columnar._row_ids = ["a", "b"]
        columnar._row_of = {"a": 0, "b": 1}
        columnar._matrix = np.array([values, [1.0] * 9])
        columnar._clock = 9
        assert history_of(columnar) == replay._history
        streams = frozenset(locations)
        for timeframe in (Interval(0, 8), Interval(0, 7), Interval(1, 8)):
            assert columnar.bursty_members(
                streams, timeframe
            ) == replay.bursty_members(streams, timeframe)
        assert columnar.bursty_members(streams, Interval(0, 8)) == {"b"}

    def test_custom_baseline_falls_back_to_reference(self):
        # A custom baseline takes the sweep too (one model object per
        # stream) and mines what the reference replay mines.
        from repro.temporal.baselines import EWMABaseline

        config = STLocalConfig(baseline_factory=EWMABaseline)
        collection = build_corpus(3)
        tensor = FrequencyTensor(collection)
        locations = collection.locations()
        terms = sorted(tensor.terms)
        stlocal = STLocal(config)
        assert repr(
            BatchMiner(stlocal=stlocal).mine_regional(tensor, terms, locations)
        ) == repr(replay_patterns(tensor, terms, locations, stlocal.config))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_custom_baselines_sweep_like_the_replay(self, data):
        # Every baseline family of Section 4 besides the prefix-sum
        # default — plus a model with no prime_zeros, which a late
        # stream must prime by observing zeros — through the batch
        # miner and through the live feeder's advance/fork/preview.
        factory = data.draw(custom_baselines, label="baseline")
        config = STLocalConfig(
            baseline_factory=factory,
            warmup=data.draw(st.integers(0, 4), label="warmup"),
            key_by_geometry=data.draw(st.booleans(), label="geometry"),
        )
        collection = build_corpus(
            data.draw(st.integers(0, 10_000), label="seed"),
            n_streams=6,
            timeline=18,
            n_terms=2,
        )
        tensor = FrequencyTensor(collection)
        locations = collection.locations()
        terms = sorted(tensor.terms)
        stlocal = STLocal(config)
        miner = BatchMiner(stlocal=stlocal)

        # Batch: the sweep stops at each term's last activity; the
        # replay runs the whole timeline and, truncated, the same span.
        assert repr(miner.mine_regional(tensor, terms, locations)) == repr(
            replay_patterns(tensor, terms, locations, config, False)
        )
        swept = miner.regional_trackers(tensor, terms, locations)
        for term, reference in replay_trackers(
            tensor, terms, locations, config
        ).items():
            assert_trackers_equal(reference, swept[term])

        # Live: durable advances at drawn cuts, then a fork previewed
        # through the end of the timeline.
        feeder = IncrementalFeeder(locations, config)
        timeline = tensor.timeline
        for term in terms:
            snapshots = tensor.term_snapshots(term)
            reference = ReferenceTermTracker(locations, config)
            cuts = sorted(
                data.draw(
                    st.lists(st.integers(0, timeline), max_size=3),
                    label="cuts",
                )
            )
            for cut in cuts:
                durable = feeder.advance(term, snapshots, cut)
                reference.advance(snapshots, cut)
                assert_trackers_equal(reference, durable)
            durable = feeder.tracker(term)
            clock = durable.clock
            sealed = reference.fork()
            preview = feeder.preview(term, snapshots, timeline)
            reference.advance(snapshots, timeline)
            assert_trackers_equal(reference, preview)
            assert repr(preview.patterns(term)) == repr(
                reference.patterns(term)
            )
            # The preview left the durable tracker where it was.
            assert durable.clock == clock
            assert_trackers_equal(sealed, durable)

    def test_mixed_shape_corpus_mines_like_the_replay(self, monkeypatch):
        """Terms confined to bands of different heights give the sweep
        grids of several shapes in one call; bucketing them by height
        must not change a pattern."""
        import repro.columnar.sweep as sweep

        splits = []
        merge = sweep._first_rectangles_by_height

        def recording(count, buckets):
            buckets = list(buckets)
            splits.append(len(buckets))
            return merge(count, iter(buckets))

        monkeypatch.setattr(sweep, "_first_rectangles_by_height", recording)
        for seed in range(4):
            collection = build_mixed_shape_corpus(seed)
            tensor = FrequencyTensor(collection)
            locations = collection.locations()
            terms = sorted(tensor.terms)
            stlocal = STLocal()
            assert repr(
                BatchMiner(stlocal=stlocal).mine_regional(
                    tensor, terms, locations
                )
            ) == repr(
                replay_patterns(tensor, terms, locations, stlocal.config)
            ), seed
        assert max(splits) > 1  # some call merged several buckets

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_random_corpora(self, seed):
        collection = build_corpus(seed, n_streams=6, timeline=16, n_terms=2)
        tensor = FrequencyTensor(collection)
        locations = collection.locations()
        terms = sorted(tensor.terms)
        stlocal = STLocal()
        assert repr(
            BatchMiner(stlocal=stlocal).mine_regional(tensor, terms, locations)
        ) == repr(replay_patterns(tensor, terms, locations, stlocal.config))


# ----------------------------------------------------------------------
# Discrepancy grids
# ----------------------------------------------------------------------

weights = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.just(-1.0),
    # Magnitudes below 2^-10 collapse to zero: the Kadane kernels
    # compute rectangle sums as prefix-sum *differences*, and a weight
    # tiny enough to be absorbed by a larger prefix (e.g. a float32
    # subnormal next to -1.0) flips the strictly-positive existence
    # test versus the direct-summing brute force.  Bounded this way,
    # every float64 prefix sum of ≤ 12 float32 weights is exact
    # (24-bit mantissas, ≤ 12-bit exponent spread), so the
    # differential property is a theorem rather than an approximation.
    st.floats(-4.0, 4.0, allow_nan=False, width=32).map(
        lambda w: 0.0 if abs(w) < 2.0**-10 else w
    ),
)
coordinates = st.integers(0, 4).map(float)
point_list = st.lists(
    st.tuples(coordinates, coordinates, weights), min_size=1, max_size=12
)


class TestDiscrepancyDifferential:
    @settings(max_examples=120, deadline=None)
    @given(raw=point_list)
    def test_adaptive_kernel_matches_bruteforce(self, raw):
        import pytest

        points = [
            WeightedPoint(point=Point(x, y), weight=w, stream_id=i)
            for i, (x, y, w) in enumerate(raw)
        ]
        fast = max_weight_rectangle(points)
        slow = max_weight_rectangle_bruteforce(points)
        if fast is None:
            assert slow is None
            return
        assert slow is not None
        # The brute force sums member weights directly while the kernel
        # uses prefix-sum differences, so scores agree to rounding (the
        # seed's property tests used the same tolerance); exact float
        # equality between the scalar and vectorized kernels is pinned
        # by test_scalar_and_vector_kernels_identical below.
        assert fast.score == pytest.approx(slow.score)
        assert fast.score == pytest.approx(
            sum(wp.weight for wp in fast.members)
        )

    @settings(max_examples=100, deadline=None)
    @given(raw=point_list)
    def test_scalar_and_vector_kernels_identical(self, raw):
        import repro.columnar.kernels as kernels

        active = [(x, y, w) for x, y, w in raw if w != 0.0]
        xs = [x for x, _, _ in active]
        ys = [y for _, y, _ in active]
        ws = [w for _, _, w in active]
        scalar = max_rectangle_points(xs, ys, ws)
        threshold = kernels.SCALAR_GRID_CELLS
        kernels.SCALAR_GRID_CELLS = 0  # force the vectorized path
        try:
            vector = max_rectangle_points(xs, ys, ws)
        finally:
            kernels.SCALAR_GRID_CELLS = threshold
        assert scalar == vector

    @settings(max_examples=60, deadline=None)
    @given(
        raws=st.lists(point_list, min_size=1, max_size=4),
        extra_rows=st.integers(0, 3),
        extra_cols=st.integers(0, 3),
    )
    def test_batched_kernel_padding_is_inert(self, raws, extra_rows, extra_cols):
        """Zero padding must not change any grid's selected rectangle."""
        import numpy as np

        grids = []
        singles = []
        for raw in raws:
            active = [(x, y, w) for x, y, w in raw if w != 0.0]
            if not any(w > 0.0 for _, _, w in active):
                continue
            xs = sorted({x for x, _, _ in active})
            ys = sorted({y for _, y, _ in active})
            x_index = {x: i for i, x in enumerate(xs)}
            y_index = {y: i for i, y in enumerate(ys)}
            grid = [[0.0] * len(xs) for _ in ys]
            for x, y, w in active:
                grid[y_index[y]][x_index[x]] += w
            grids.append(grid)
            singles.append(
                max_rectangle_points(
                    [x for x, _, _ in active],
                    [y for _, y, _ in active],
                    [w for _, _, w in active],
                )
            )
        if not grids:
            return
        m_pad = max(len(g) for g in grids) + extra_rows
        k_pad = max(len(g[0]) for g in grids) + extra_cols
        tensor = np.zeros((len(grids), m_pad, k_pad))
        for i, grid in enumerate(grids):
            tensor[i, : len(grid), : len(grid[0])] = grid
        found, score, y_lo, y_hi, x_lo, x_hi = batched_first_rectangles(tensor)
        for i, single in enumerate(singles):
            assert bool(found[i]) == (single is not None)
            if single is None:
                continue
            grid = grids[i]
            xs = None  # bounds are grid indices here; compare via score
            assert float(score[i]) == single[0]


@st.composite
def mixed_grid(draw):
    """One snapshot grid of any shape up to 6×6: all-zero, negative-only,
    random, or with tied maxima on its last real row and column."""
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["zero", "negative", "tied", "random"]))
    if kind == "zero":
        return [[0.0] * k for _ in range(m)]
    if kind == "negative":
        cell = st.sampled_from([-0.5, -1.0, -3.0])
        return [[draw(cell) for _ in range(k)] for _ in range(m)]
    grid = [[draw(weights) for _ in range(k)] for _ in range(m)]
    if kind == "tied":
        # Equal single-cell peaks behind negative walls: the winner is
        # decided by the scan order alone, and two of the peaks sit on
        # the last real row and column, next to any padding.
        peak = draw(st.sampled_from([1.0, 2.5]))
        grid = [[-4.0] * k for _ in range(m)]
        grid[m - 1][k - 1] = peak
        grid[m - 1][0] = peak
        grid[0][k - 1] = peak
    return grid


class TestBucketedKadane:
    @staticmethod
    def padded(grids, m_pad, k_pad):
        tensor = np.zeros((len(grids), m_pad, k_pad))
        for index, grid in enumerate(grids):
            tensor[index, : len(grid), : len(grid[0])] = grid
        return tensor

    @settings(max_examples=120, deadline=None)
    @given(grids=st.lists(mixed_grid(), min_size=1, max_size=12))
    def test_buckets_return_what_one_padded_call_returns(self, grids):
        from repro.columnar.sweep import (
            _first_rectangles_by_height,
            _list_grid_buckets,
        )

        expected = batched_first_rectangles(
            self.padded(
                grids,
                max(len(grid) for grid in grids),
                max(len(grid[0]) for grid in grids),
            )
        )
        # One bucket per exact height (the finest split) and the
        # shipped cost-model buckets must both merge back to it.
        heights = {}
        for index, grid in enumerate(grids):
            heights.setdefault(len(grid), []).append(index)
        exact = (
            (
                np.asarray(indices),
                self.padded(
                    [grids[index] for index in indices],
                    height,
                    max(len(grids[index][0]) for index in indices),
                ),
            )
            for height, indices in heights.items()
        )
        for buckets in (exact, _list_grid_buckets(grids)):
            merged = _first_rectangles_by_height(len(grids), buckets)
            for want, got in zip(expected, merged):
                assert want.dtype == got.dtype
                assert np.array_equal(want, got)


# ----------------------------------------------------------------------
# Burst segments
# ----------------------------------------------------------------------

score_values = st.one_of(
    st.just(0.0),
    st.floats(-2.0, 2.0, allow_nan=False, width=32),
)


class TestSegmentsDifferential:
    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(score_values, max_size=40))
    def test_batch_kernel_matches_online(self, values):
        batch = [(s.start, s.end, s.score) for s in maximal_segments(values)]
        online = [
            (s.start, s.end, s.score)
            for s in maximal_segments_reference(values)
        ]
        assert batch == online

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(
            st.integers(-20, 20).map(lambda v: v / 2.0), max_size=30
        )
    )
    def test_batch_kernel_matches_bruteforce(self, values):
        # Dyadic values keep every partial sum exact (the seed's
        # strategy), so the quadratic oracle's tie-breaking agrees.
        batch = [(s.start, s.end, s.score) for s in maximal_segments(values)]
        brute = [
            (s.start, s.end, s.score)
            for s in maximal_segments_bruteforce(values)
        ]
        assert [(s, e) for s, e, _ in batch] == [(s, e) for s, e, _ in brute]

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(score_values, max_size=40))
    def test_restore_reproduces_online_state(self, values):
        candidates, cumulative, length = maximal_segment_state(values)
        restored = OnlineMaxSegments.restore(candidates, cumulative, length)
        online = OnlineMaxSegments()
        online.extend(values)
        assert restored._cumulative == online._cumulative
        assert restored._length == online._length
        assert [
            (c.start, c.end, c.left_sum, c.right_sum)
            for c in restored._candidates
        ] == [
            (c.start, c.end, c.left_sum, c.right_sum)
            for c in online._candidates
        ]
        # ...and the restored tracker keeps advancing identically.
        for extra in (1.0, -0.5, 0.25):
            restored.add(extra)
            online.add(extra)
        assert restored.segments() == online.segments()

    @settings(max_examples=80, deadline=None)
    @given(
        frequencies=st.lists(st.integers(0, 12), max_size=30),
        with_totals=st.booleans(),
    )
    def test_kleinberg_fast_matches_reference(self, frequencies, with_totals):
        detector = KleinbergBurstDetector(scaling=2.5, gamma=0.7)
        totals = (
            [f + 5 for f in frequencies] if with_totals and frequencies else None
        )
        fast = detector.detect(frequencies, totals)
        reference = detector.detect_reference(frequencies, totals)
        assert [(s.start, s.end, s.score) for s in fast] == [
            (s.start, s.end, s.score) for s in reference
        ]


# ----------------------------------------------------------------------
# Postings and top-k
# ----------------------------------------------------------------------

posting_lists = st.lists(
    st.tuples(st.integers(0, 30), st.floats(-5.0, 5.0, allow_nan=False, width=32)),
    max_size=25,
).map(lambda raw: [Posting(doc_id, score) for doc_id, score in raw])


class TestPostingDifferential:
    @settings(max_examples=100, deadline=None)
    @given(postings=posting_lists)
    def test_posting_array_matches_posting_list(self, postings):
        # Deduplicate doc ids (the protocol assumes one entry per doc).
        unique = {p.doc_id: p for p in postings}
        postings = list(unique.values())
        reference = PostingList(postings)
        columnar = PostingArray.from_postings(postings)
        assert len(reference) == len(columnar)
        assert [(p.doc_id, p.score) for p in reference] == [
            (p.doc_id, p.score) for p in columnar
        ]
        for rank in range(len(reference) + 2):
            ref = reference.sorted_access(rank)
            col = columnar.sorted_access(rank)
            assert (ref is None) == (col is None)
            if ref is not None:
                assert (ref.doc_id, ref.score) == (col.doc_id, col.score)
        for posting in postings:
            assert reference.random_access(
                posting.doc_id
            ) == columnar.random_access(posting.doc_id)
        assert columnar.random_access("missing") is None
        depth = len(postings) // 2
        truncated_ref = reference.truncated(depth)
        truncated_col = columnar.truncated(depth)
        assert [(p.doc_id, p.score) for p in truncated_ref] == [
            (p.doc_id, p.score) for p in truncated_col
        ]
        for posting in postings:
            assert truncated_col.random_access(posting.doc_id) is not None

    def test_tied_scores_order_like_the_oracle(self):
        # Equal scores: the crc32 tiebreak decides, exactly as in the
        # oracle's stable sort, whatever the input order.
        postings = [Posting(f"doc{i}", 1.0) for i in range(6)]
        for order in (postings, postings[::-1], postings[3:] + postings[:3]):
            assert pairs(PostingArray.from_postings(order)) == pairs(
                PostingList(postings)
            )

    def test_ta_over_arrays_matches_oracle_lists(self):
        spec = [
            [Posting(i, float(i % 7)) for i in range(20)]
            + [Posting(100 + i, 6.5 - i) for i in range(8)],
            [Posting(i, float((i * 3) % 5)) for i in range(15)]
            + [Posting(100 + i, float(i % 4)) for i in range(8)],
        ]
        arrays = [PostingArray.from_postings(postings) for postings in spec]
        oracles = [PostingList(postings) for postings in spec]
        as_pairs = lambda rs: [(r.doc_id, r.score) for r in rs]
        for k in (1, 3, 10, 50):
            reference = as_pairs(exhaustive_topk(oracles, k))
            assert as_pairs(threshold_topk(arrays, k)[0]) == reference
            assert as_pairs(threshold_topk(oracles, k)[0]) == reference
            assert as_pairs(exhaustive_topk(arrays, k)) == reference


class TestSearchDifferential:
    def test_postings_and_topk_identical(self):
        for seed in (0, 5, 9):
            collection = build_corpus(seed)
            tensor = FrequencyTensor(collection)
            terms = sorted(tensor.terms)
            mined = BatchMiner().mine_regional(
                tensor, terms, collection.locations()
            )
            legacy = BurstySearchEngine(
                collection, mined, relevance=reference_log_relevance
            )
            columnar = BurstySearchEngine(collection, mined)
            for term in terms:
                assert [
                    (p.doc_id, p.score) for p in legacy._posting_list(term)
                ] == [
                    (p.doc_id, p.score) for p in columnar._posting_list(term)
                ], (seed, term)
                for k in (1, 3, 10):
                    assert [
                        (r.document.doc_id, r.score)
                        for r in legacy.search(term, k)
                    ] == [
                        (r.document.doc_id, r.score)
                        for r in columnar.search(term, k)
                    ], (seed, term, k)

    def test_custom_aggregate_falls_back_to_reference(self):
        collection = build_corpus(2)
        tensor = FrequencyTensor(collection)
        terms = sorted(tensor.terms)
        mined = BatchMiner().mine_regional(
            tensor, terms, collection.locations()
        )
        legacy = BurstySearchEngine(
            collection, mined, aggregate=sum, relevance=reference_log_relevance
        )
        columnar = BurstySearchEngine(collection, mined, aggregate=sum)
        for term in terms:
            assert [
                (p.doc_id, p.score) for p in legacy._posting_list(term)
            ] == [(p.doc_id, p.score) for p in columnar._posting_list(term)]
