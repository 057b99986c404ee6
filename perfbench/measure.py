"""Measurement helpers for the benchmark runner: spans, percentiles, stamps.

Nothing here imports :mod:`repro`; the runner and its tests share it.

* :class:`Tracer` records one span per public call the runner makes
  (name, start, end, parent, trace id), in memory, and is a no-op when
  disabled so the untraced runs pay almost nothing for it.
* :func:`self_times` subtracts the part of a span's interval that its
  child spans cover.
* :func:`percentile` refuses a percentile that fewer than
  :data:`MIN_TAIL` samples lie beyond, so a tail is never read off a
  handful of samples.
* :func:`reference_pass` and :func:`speed_scale` put timings taken on
  a host whose speed drifts at one reference speed.
* :func:`environment` is the stamp every record carries.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: A percentile needs at least this many samples strictly beyond it.
MIN_TAIL = 10


class Span:
    """One recorded interval; ``name`` may be refined before it closes."""

    __slots__ = ("span_id", "parent", "trace", "name", "start", "end")

    def __init__(
        self, span_id: int, parent: Optional[int], trace: int, name: str,
        start: float,
    ) -> None:
        self.span_id = span_id
        self.parent = parent
        self.trace = trace
        self.name = name
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "trace": self.trace,
            "name": self.name,
            "start": self.start,
            "end": self.end,
        }


class _NoSpan:
    """Shared do-nothing span context for a disabled tracer."""

    name = ""

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NO_SPAN = _NoSpan()


class _SpanContext:
    __slots__ = ("_tracer", "_name", "span")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> Span:
        tracer = self._tracer
        parent = tracer._stack[-1] if tracer._stack else None
        tracer._next_id += 1
        if parent is None:
            tracer._next_trace += 1
            trace = tracer._next_trace
        else:
            trace = parent.trace
        self.span = Span(
            tracer._next_id,
            parent.span_id if parent is not None else None,
            trace,
            self._name,
            tracer.clock(),
        )
        tracer._stack.append(self.span)
        return self.span

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        self.span.end = tracer.clock()
        tracer._stack.pop()
        tracer.spans.append(self.span)


class Tracer:
    """In-memory span recorder.

    A span opened while no other is open starts a new trace; nested
    spans inherit their parent's trace id, so every span of one query
    (or one index build, one cold open, ...) shares an id.
    """

    def __init__(
        self, enabled: bool, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.enabled = enabled
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 0
        self._next_trace = 0

    def span(self, name: str):
        if not self.enabled:
            return _NO_SPAN
        return _SpanContext(self, name)

    def by_name(self) -> Dict[str, List[float]]:
        """Span name → self times of its spans, in recording order."""
        selfs = self_times(self.spans)
        grouped: Dict[str, List[float]] = {}
        for span in self.spans:
            grouped.setdefault(span.name, []).append(selfs[span.span_id])
        return grouped

    def span_cost(self, rounds: int = 20_000) -> float:
        """Seconds one enabled span adds, from a burst of empty spans."""
        probe = Tracer(True, self.clock)
        started = time.perf_counter()
        for _ in range(rounds):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - started) / rounds


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id → duration minus the time its child spans cover.

    Child intervals are clipped to the parent and merged before they
    are subtracted, so overlapping or overhanging children are never
    counted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.duration - covered
    return result


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Raises:
        ValueError: when fewer than :data:`MIN_TAIL` samples lie beyond
            the percentile's rank.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"need at least {MIN_TAIL}"
        )
    return sorted(samples)[rank - 1]


#: Milliseconds one pass of :func:`reference_pass` takes at unit speed:
#: about its median on a 2-vCPU Xeon VM at 2.0 GHz with the host quiet,
#: so speed-normalized timings read as ordinary milliseconds there.
REFERENCE_MS = 18.0


def reference_pass() -> float:
    """Milliseconds for one pass of fixed reference work.

    The pass mixes the three kinds of work the program does: an
    interpreter loop over small ints, dict/tuple/list churn and a sort
    of Python objects, and NumPy sort/scan/search over a 100k-float
    array.  It uses nothing from :mod:`repro`, so a change to the
    program never changes it.
    """
    import numpy

    array = numpy.random.default_rng(1).random(100_000)
    started = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i % 7
    counts: Dict[Tuple[int, int], int] = {}
    keys = []
    for i in range(15_000):
        key = (i % 977, i & 63)
        counts[key] = counts.get(key, 0) + 1
        keys.append(key)
    keys.sort()
    for _ in range(3):
        ordered = numpy.sort(array)
        numpy.cumsum(ordered)
        numpy.searchsorted(ordered, array[:10_000])
    return (time.perf_counter() - started) * 1e3


def calibrate(rounds: int = 5) -> List[float]:
    """``rounds`` timings of :func:`reference_pass`, in milliseconds."""
    return [reference_pass() for _ in range(rounds)]


def speed_scale(reference_ms: Sequence[float]) -> float:
    """Factor that puts a timing taken while ``reference_ms`` were
    measured at unit speed: :data:`REFERENCE_MS` over their median.
    Multiply durations by it; divide rates by it."""
    return REFERENCE_MS / statistics.median(reference_ms)


def rss_mb() -> float:
    """Current resident set size in MB (0 where /proc is missing)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
    except OSError:
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: str) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            mounts: Iterator[List[str]] = (line.split() for line in handle)
            for fields in mounts:
                point = fields[1]
                inside = path == point or path.startswith(point.rstrip("/") + "/")
                if inside and len(point) > len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


def environment(seed: int, store_dir: str, flush_policy: str) -> Dict:
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 0
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": usable,
        "calib_ms": round(statistics.median(calibrate()), 4),
        "seed": seed,
        "store_fs": _filesystem(store_dir),
        "flush_policy": flush_policy,
    }
