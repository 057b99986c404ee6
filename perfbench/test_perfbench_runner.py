"""Tests for the benchmark runner's own helpers.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from measure import (  # noqa: E402
    MIN_TAIL, REFERENCE_MS, Span, Tracer, percentile, self_times, speed_scale,
)
from run import Gate, Run, ranking, ranking_mismatch  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_refuses_when_fewer_than_ten_samples_lie_beyond(self):
        with self.assertRaises(ValueError):
            percentile(list(range(100)), 99)  # 1 sample beyond p99
        with self.assertRaises(ValueError):
            percentile(list(range(999)), 99)  # 9 beyond
        with self.assertRaises(ValueError):
            percentile(list(range(19)), 50)  # 9 beyond

    def test_nearest_rank_once_the_tail_is_deep_enough(self):
        samples = list(range(1000, 0, -1))  # unsorted input
        self.assertEqual(percentile(samples, 99), 990)  # 10 beyond
        self.assertEqual(percentile(list(range(1, 21)), 50), 10)
        self.assertEqual(MIN_TAIL, 10)


class SpeedScaleTest(unittest.TestCase):
    def test_scales_by_the_median_reference_pass(self):
        passes = [REFERENCE_MS / 2, REFERENCE_MS, REFERENCE_MS * 9]
        self.assertEqual(speed_scale(passes), 1.0)  # one outlier each way
        self.assertEqual(speed_scale([REFERENCE_MS * 2] * 4), 0.5)


class FastestReplayTest(unittest.TestCase):
    def test_each_position_keeps_its_fastest_replay_and_its_scale(self):
        best = Run._fastest([], [3.0, 1.0, 2.0], 0.5)
        self.assertEqual(best, [(3.0, 0.5), (1.0, 0.5), (2.0, 0.5)])
        best = Run._fastest(best, [2.0, 4.0, 2.5], 0.25)
        best = Run._fastest(best, [5.0, 0.5, 9.0], 1.0)
        self.assertEqual(best, [(2.0, 0.25), (0.5, 1.0), (2.0, 0.5)])
        # Chosen as timed: a smaller scale does not win a slower repeat.
        self.assertEqual(Run._unit(best), [0.5, 0.5, 1.0])


def _span(span_id, parent, start, end, name="s"):
    span = Span(span_id, parent, 1, name, start)
    span.end = end
    return span


class SelfTimeTest(unittest.TestCase):
    def test_nested_overlapping_and_overhanging_children(self):
        spans = [
            _span(1, None, 0.0, 10.0),  # root
            _span(2, 1, 1.0, 4.0),  # child
            _span(3, 2, 2.0, 3.0),  # grandchild
            _span(4, 1, 3.0, 6.0),  # overlaps child 2 on [3, 4]
            _span(5, 1, 9.0, 12.0),  # overhangs the root's end
        ]
        selfs = self_times(spans)
        # Root: children cover [1, 6] and [9, 10] → 6 of 10 seconds.
        self.assertAlmostEqual(selfs[1], 4.0)
        self.assertAlmostEqual(selfs[2], 2.0)
        self.assertAlmostEqual(selfs[3], 1.0)
        self.assertAlmostEqual(selfs[4], 3.0)
        self.assertAlmostEqual(selfs[5], 3.0)

    def test_tracer_links_parents_and_shares_trace_ids(self):
        ticks = itertools.count()
        tracer = Tracer(True, clock=lambda: float(next(ticks)))
        with tracer.span("query"):
            with tracer.span("search") as inner:
                inner.name = "search.scan"
        with tracer.span("query"):
            pass
        by_id = {span.span_id: span for span in tracer.spans}
        search = next(s for s in tracer.spans if s.name == "search.scan")
        first, second = (s for s in tracer.spans if s.name == "query")
        self.assertEqual(by_id[search.parent], first)
        self.assertEqual(search.trace, first.trace)
        self.assertNotEqual(first.trace, second.trace)
        # query: ticks 0..3, search: ticks 1..2 → self time 2.
        self.assertEqual(tracer.by_name()["query"], [2.0, 1.0])
        self.assertEqual(tracer.by_name()["search.scan"], [1.0])

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(False)
        with tracer.span("query"):
            pass
        self.assertEqual(tracer.spans, [])


class _Doc:
    def __init__(self, doc_id):
        self.doc_id = doc_id


class _Result:
    def __init__(self, doc_id, score):
        self.document = _Doc(doc_id)
        self.score = score


class CorrectnessGateTest(unittest.TestCase):
    def setUp(self):
        self.expected = ranking([_Result(7, 2.5), _Result(3, 1.25)])

    def test_identical_ranking_passes(self):
        gate = Gate()
        self.assertTrue(gate.check("q", self.expected,
                                   ranking([_Result(7, 2.5), _Result(3, 1.25)])))
        self.assertEqual((gate.attempted, gate.failures), (1, []))

    def test_perturbed_rankings_fail(self):
        nudged = 1.25 + 2 ** -40  # differs only in the low score bits
        perturbed = {
            "score bits": [_Result(7, 2.5), _Result(3, nudged)],
            "order": [_Result(3, 1.25), _Result(7, 2.5)],
            "ids": [_Result(7, 2.5), _Result(4, 1.25)],
            "length": [_Result(7, 2.5)],
        }
        gate = Gate()
        for what, results in perturbed.items():
            self.assertFalse(gate.check(what, self.expected, ranking(results)))
            self.assertIsNotNone(ranking_mismatch(self.expected,
                                                  ranking(results)))
        self.assertEqual(gate.attempted, 4)
        self.assertEqual(len(gate.failures), 4)


if __name__ == "__main__":
    unittest.main()
