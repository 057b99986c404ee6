"""STLocal: streaming trackers, maximal windows, regional patterns."""

import pytest

from repro.core import STLocal, STLocalConfig
from repro.core.stlocal import STLocalTermTracker
from repro.errors import StreamError
from repro.intervals import Interval
from repro.spatial import Point
from repro.streams import Document, SpatiotemporalCollection
from repro.temporal import MovingAverageBaseline


def grid_locations(n=9):
    """A 3x3 grid of streams g0..g8, row-major."""
    return {
        f"g{i}": Point(float(i % 3) * 10.0, float(i // 3) * 10.0)
        for i in range(n)
    }


def make_tracker(**config_kwargs):
    defaults = dict(warmup=0)
    defaults.update(config_kwargs)
    return STLocalTermTracker(grid_locations(), STLocalConfig(**defaults))


class TestTracker:
    def test_clock_advances(self):
        tracker = make_tracker()
        tracker.process({})
        tracker.process({})
        assert tracker.clock == 2

    def test_unknown_stream_rejected(self):
        tracker = make_tracker()
        with pytest.raises(StreamError):
            tracker.process({"nope": 1.0})

    def test_quiet_stream_no_windows(self):
        tracker = make_tracker()
        for _ in range(10):
            tracker.process({})
        assert tracker.windows() == []
        assert tracker.rectangle_history == [0] * 10

    def test_single_burst_window(self):
        tracker = make_tracker()
        # g0 bursts at timestamps 3..5.
        for t in range(10):
            freq = {"g0": 8.0} if 3 <= t <= 5 else {}
            tracker.process(freq)
        windows = tracker.windows()
        assert windows
        best = max(windows, key=lambda w: w[3])
        region, streams, timeframe, score = best
        assert "g0" in streams
        assert timeframe.start == 3
        assert 3 <= timeframe.end <= 5
        assert score > 0.0

    def test_cluster_detected_as_one_region(self):
        tracker = make_tracker()
        # Neighbouring g0, g1 burst together; isolated g8 stays quiet.
        for t in range(8):
            freq = {"g0": 5.0, "g1": 5.0} if t >= 4 else {}
            tracker.process(freq)
        windows = tracker.windows()
        best = max(windows, key=lambda w: w[3])
        assert {"g0", "g1"} <= set(best[1])
        assert "g8" not in best[1]

    def test_sequences_pruned_when_total_negative(self):
        tracker = make_tracker()
        # One spike then silence: running-mean expectation goes positive,
        # burstiness negative, the region's total sinks below zero.
        tracker.process({"g0": 6.0})
        for _ in range(12):
            tracker.process({})
        assert tracker.open_sequences == 0
        # The spike's window survives in the archive.
        assert any(timeframe == Interval(0, 0) for _, _, timeframe, _ in tracker.windows())

    def test_warmup_suppresses_cold_start(self):
        tracker = STLocalTermTracker(grid_locations(), STLocalConfig(warmup=5))
        for t in range(5):
            tracker.process({"g0": 3.0})
        assert tracker.windows() == []

    def test_burstiness_history_tracked(self):
        tracker = make_tracker()
        tracker.process({"g0": 4.0})
        members = tracker.bursty_members(frozenset({"g0", "g1"}), Interval(0, 0))
        assert members == frozenset({"g0"})

    def test_history_disabled(self):
        tracker = make_tracker(track_history=False)
        tracker.process({"g0": 4.0})
        assert tracker.bursty_members(frozenset({"g0"}), Interval(0, 0)) is None

    def test_open_history_recorded(self):
        tracker = make_tracker()
        for t in range(4):
            tracker.process({"g0": 2.0})
        assert len(tracker.open_history) == 4

    def test_geometry_keying_ablation(self):
        tracker = make_tracker(key_by_geometry=True)
        for t in range(6):
            tracker.process({"g0": 4.0} if t >= 2 else {})
        assert tracker.windows()

    def test_custom_baseline_factory(self):
        tracker = make_tracker(
            baseline_factory=lambda: MovingAverageBaseline(window=2)
        )
        for t in range(6):
            tracker.process({"g0": 2.0})
        # Constant signal: after the window fills, burstiness is zero.
        assert tracker.clock == 6


class TestMemberlessRectangles:
    """Regression: rectangles containing no stream geostamp used to
    canonicalise to ``frozenset()``, so every such "empty" region across
    the whole run shared a single RegionSequence — distinct regions
    silently merged.  They can never score and must be skipped."""

    def test_memberless_rectangles_not_tracked(self, monkeypatch):
        from repro.columnar import sweep

        real_resolve = sweep._resolve_rectangles
        # Two *distinct* rectangles in the empty space between grid
        # points, added to alternating snapshots of every sweep.
        empty_regions = [
            (0.5, 1.0, 1.0, 2.0, 2.0),
            (0.5, 21.0, 1.0, 22.0, 2.0),
        ]

        def resolve_with_empty_regions(plans, batch):
            results = real_resolve(plans, batch)
            for plan, rectangles in zip(plans, results):
                for local in range(plan.end - plan.first + 1):
                    region = empty_regions[(plan.first + local) % 2]
                    rectangles.setdefault(local, []).append(region)
            return results

        monkeypatch.setattr(
            sweep, "_resolve_rectangles", resolve_with_empty_regions
        )
        tracker = make_tracker()
        for t in range(6):
            tracker.process({"g0": 4.0})
        # Every snapshot was handed an empty region.
        assert len(tracker.rectangle_history) == 6
        assert min(tracker.rectangle_history) >= 1
        # No sequence may be keyed by the empty member set, and the two
        # distinct empty regions must not have been merged into one.
        assert frozenset() not in tracker._sequences
        for sequence in tracker._sequences.values():
            assert sequence.stream_ids
        # The real burst is still tracked normally.
        windows = tracker.windows()
        assert windows
        assert all(streams for _, streams, _, _ in windows)


class TestSTLocalFacade:
    def _collection(self):
        coll = SpatiotemporalCollection(timeline=12)
        for sid, point in grid_locations().items():
            coll.add_stream(sid, point)
        doc_id = 0
        for t in range(12):
            coll.add_document(Document(doc_id, "g4", t, ("filler",)))
            doc_id += 1
        for sid in ("g0", "g1"):
            for t in range(6, 9):
                for _ in range(5):
                    coll.add_document(Document(doc_id, sid, t, ("quake",)))
                    doc_id += 1
        return coll

    def test_top_pattern_recovers_event(self):
        pattern = STLocal().top_pattern(self._collection(), "quake")
        assert pattern is not None
        assert {"g0", "g1"} <= set(pattern.streams)
        assert pattern.timeframe.start == 6
        assert pattern.term == "quake"

    def test_bursty_streams_recorded(self):
        pattern = STLocal().top_pattern(self._collection(), "quake")
        assert pattern.bursty_streams is not None
        assert {"g0", "g1"} <= set(pattern.bursty_streams)

    def test_patterns_sorted_by_score(self):
        patterns = STLocal().patterns_for_term(self._collection(), "quake")
        scores = [p.score for p in patterns]
        assert scores == sorted(scores, reverse=True)

    def test_mine(self):
        mined = STLocal().mine(self._collection(), terms=["quake", "nothing"])
        assert "quake" in mined
        assert "nothing" not in mined

    def test_tensor_requires_locations(self):
        from repro.streams import FrequencyTensor

        coll = self._collection()
        tensor = FrequencyTensor(coll)
        with pytest.raises(StreamError):
            STLocal().top_pattern(tensor, "quake")

    def test_tensor_with_locations(self):
        from repro.streams import FrequencyTensor

        coll = self._collection()
        tensor = FrequencyTensor(coll)
        pattern = STLocal().top_pattern(tensor, "quake", locations=coll.locations())
        assert pattern is not None

    def test_no_pattern_for_absent_term(self):
        assert STLocal().top_pattern(self._collection(), "zzz") is None

    def test_min_window_score_filters(self):
        config = STLocalConfig(min_window_score=1e9)
        assert STLocal(config).patterns_for_term(self._collection(), "quake") == []


class TestSpatialIndexPath:
    def test_large_stream_count_uses_index(self):
        # Above the scalar-scan size, membership is one vectorized mask
        # over the coordinate columns; it must match a linear scan.
        locations = {
            f"s{i}": Point(float(i % 40), float(i // 40)) for i in range(600)
        }
        tracker = STLocalTermTracker(locations, STLocalConfig(warmup=0))
        tracker.process({"s0": 5.0, "s1": 5.0})
        tracker.process({"s41": 3.0, "s42": 3.0, "s81": 3.0})
        windows = tracker.windows()
        assert len(windows) == 2
        for region, streams, _, _ in windows:
            expected = {
                sid
                for sid, point in locations.items()
                if region.contains_point(point)
            }
            assert set(streams) == expected
