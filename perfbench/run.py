"""End-to-end benchmark: raw records → mined, saved index → cold opens →
query stream → live feed with checkpoints → recovery.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live_feed --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 6 --trace 1

Every workload drives the same path through the public API of
``repro.streams`` → ``repro.pipeline`` → ``repro.search`` →
``repro.store`` → ``repro.live`` from one process, one closed-loop
client (the next operation starts when the previous one returns),
``BatchMiner`` with one worker and BLAS/OMP threads pinned to 1:
set-up (seeded records and query lists, :data:`SETUP_REPS` times),
then :data:`ROUNDS` rounds of live feed / index build / cold opens /
query stream replays / recoveries.  The workloads differ in their
inputs and in how much of the run each phase gets, so each is
dominated by a different layer (see ``_plans``).  Every workload reports every metric, so a change to one
layer shows where it should and can be checked flat everywhere else.

Every timed operation is repeated, spread over the rounds, and timed
by its fastest repeat, as ``benchmarks/bench_columnar.py`` does: on a
shared host other tenants slow single repeats by up to a third, and
the fastest of several is far steadier than their median.  Operations
that cannot repeat in place (a query at one point of the live feed, a
query at one position of the stream, one snapshot of the feed) are
replayed: the whole feed or stream runs again, the same work at the
same positions, and each position keeps its fastest replay; a
multi-stage operation (an index build, a recovery) keeps each stage's
fastest repeat.  Percentiles are taken across positions, so the mix of
cheap and costly queries is the workload's.

A shared host also runs slower for tens of seconds at a time, by up
to 60%, which no fastest-of-a-few removes.  Between blocks the runner
times a fixed reference pass (:func:`measure.reference_pass`, no
library code), and every end-to-end timing is put at unit host speed:
its fastest repeat, chosen as timed, is multiplied by
:data:`measure.REFERENCE_MS` over the median of the passes that
bracket the block it ran in.  The record lists every pass and block
scale.

The last stdout line is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it is the full record: the
environment stamp, every metric with its sample count, the pattern
digest and any failures.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones, computed from spans recorded around
each public call (kept in memory, written once to ``perfbench/results/``
at the end).  Per-layer numbers come only from traced runs and
end-to-end numbers only from untraced runs.

Any ranking mismatch or failed operation makes the run exit 1; a
checkout without the library's sources makes it exit 2 before measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(HERE, "results")

SETUP_REPS = 3
K = 10
RESTORES = 2  # per round
PROBES = 10  # live terms whose end-of-feed answers are checked


@dataclasses.dataclass(frozen=True)
class Plan:
    """One workload: its corpus, its query mixes and its phase budget.

    After set-up the run does :data:`ROUNDS` rounds of {live feed,
    index build, cold opens, query stream replays, recovery}, so every
    repeated measurement is spread over the whole run instead of one
    stretch of it.  ``shares`` split ``--seconds`` between the time-boxed
    blocks (cold opens, stream replays), each of which also runs at
    least :data:`MIN_PER_ROUND` times a round.
    """

    corpus: Callable
    pool_size: int
    live: object  # inputs.LiveMix
    shares: Dict[str, float]


ROUNDS = 5
MIN_PER_ROUND = {"open": 5, "serve": 1}
#: Queries in the stream; p99 needs 1000 for ten positions beyond it.
STREAM_LENGTH = 1200


def _plans():
    from inputs import CORPUS_SEED, LiveMix, ambient_corpus, topix_corpus

    return {
        # Store read path, posting decode and top-k do most of the
        # timed work: repeated cold opens, then replays of a Zipf query
        # stream.  Every followed term is ingested every week, so the
        # live client has no settled terms: every other week it
        # re-syncs fresh terms, asks their pairs and triples (served
        # from current state) and repeats them (cache hits).
        "serve_topix": Plan(
            corpus=lambda: topix_corpus(CORPUS_SEED, n_countries=25,
                                        head_terms=6, live_terms=14,
                                        live_from=400),
            pool_size=600,
            live=LiveMix(warm=0, subscribe=0, settled=0, fresh=6,
                         combos=35, checkpoint_every=30),
            shares={"open": 0.3, "serve": 0.7},
        ),
        # Mining and the live path dominate: raw-to-saved-index builds
        # of the ambient corpus, and the same records replayed snapshot
        # by snapshot with a fixed settled/fresh/cached mix, periodic
        # checkpoints and repeated recoveries.
        "live_feed": Plan(
            corpus=lambda: ambient_corpus(CORPUS_SEED, n_terms=32),
            pool_size=400,
            live=LiveMix(warm=240, subscribe=6, settled=14, fresh=1,
                         combos=0, checkpoint_every=150),
            shares={"open": 0.4, "serve": 0.6},
        ),
    }


END_TO_END_UNITS = {
    "setup_s": "s",
    "index_s": "s",
    "open_ms": "ms",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "queries_per_s": "1/s",
    "live_docs_per_s": "1/s",
    "recover_s": "s",
    "store_bytes_per_doc": "B/doc",
    "peak_rss_mb": "MB",
}

STRATEGIES = ("auto", "scan", "ta", "blockmax")
PHASES = ("setup", "index", "open", "serve", "live", "recover")


def ranking(results) -> List[Tuple[object, str]]:
    """A ranking as (doc id, exact score bits) pairs, in rank order."""
    return [(r.document.doc_id, float(r.score).hex()) for r in results]


def ranking_mismatch(expected, actual) -> Optional[str]:
    """Why two rankings differ (ids, score bits or order), or ``None``."""
    if expected == actual:
        return None
    if len(expected) != len(actual):
        return f"length {len(actual)} != expected {len(expected)}"
    for rank, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            return f"rank {rank}: {got} != expected {want}"
    return "rankings differ"


def patterns_digest(patterns) -> str:
    """Order- and hash-seed-independent sha256 of a mining result."""
    digest = hashlib.sha256()
    for term in sorted(patterns):
        for p in patterns[term]:
            region = p.region
            fields = (
                p.term,
                [float(v).hex() for v in (region.min_x, region.min_y,
                                          region.max_x, region.max_y)],
                sorted(map(str, p.streams)),
                (p.timeframe.start, p.timeframe.end),
                float(p.score).hex(),
                None if p.bursty_streams is None
                else sorted(map(str, p.bursty_streams)),
            )
            digest.update(repr(fields).encode())
    return digest.hexdigest()


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
    )


class Gate:
    """Counts attempted operations and records every failed one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, what: str, expected, actual) -> bool:
        self.attempted += 1
        problem = ranking_mismatch(expected, actual)
        if problem is not None:
            self.failures.append(f"{what}: {problem}")
        return problem is None


class Run:
    """One workload run: phases, checks, samples and spans."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        from measure import Tracer

        self.workload = workload
        self.plan = _plans()[workload]
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer(trace)
        self.span = self.tracer.span
        self.gate = Gate()
        self.check = self.gate.check
        self.samples: Dict[str, List[float]] = {
            name: [] for name in ("index_s", "open_ms", "recover_s",
                                  "stream_s", "live_s")
        }
        # Per position, the fastest replay's latency (ms), and below
        # that of other repeated work, each with its block's speed scale
        # (see _fastest).
        self.query_ms: List[Tuple[float, float]] = []
        self.open_ms: List[Tuple[float, float]] = []
        # Per snapshot, the fastest replay's ingest + queries +
        # checkpoint (s).
        self.live_steps: List[Tuple[float, float]] = []
        # Per stage of an index build / a recovery, its fastest repeat.
        self.index_stages: List[Tuple[float, float]] = []
        self.recover_stages: List[Tuple[float, float]] = []
        self.counts: Dict[str, float] = {}
        self.rss_after: Dict[str, float] = {}
        # Reference pass timings (ms) and per-block speed scales.
        self.calib: List[float] = []
        self.scales: List[float] = []
        self._passes_before: List[float] = []
        self.phase_s: Dict[str, float] = {}
        self._phase_mark = time.perf_counter()
        self.served: Dict[int, list] = {}
        self.digests = set()
        self.work = os.path.join(WORK, f"{workload}-{os.getpid()}")
        self.index_path = os.path.join(self.work, "index")
        self.checkpoint = os.path.join(self.work, "checkpoint-final")

    def _block_done(self, phase: str) -> float:
        """Between blocks: collect, then freeze the survivors so later
        automatic collections scan only what the next block allocates,
        whatever ran before it; then time the reference passes.

        Returns the block's speed scale (:func:`measure.speed_scale`)
        from the reference passes just before and just after it: the
        host's speed drifts over tens of seconds, so the passes that
        bracket a block say how fast the host ran it.  The fastest
        repeat of each timing is multiplied by the scale of the block it
        ran in (see :meth:`_fastest`); set-up, one block, by its own.
        """
        from measure import calibrate, rss_mb, speed_scale

        gc.collect()
        gc.freeze()
        self.rss_after[phase] = rss_mb()
        passes = calibrate(rounds=2)
        scale = speed_scale(self._passes_before + passes)
        self._passes_before = passes
        self.calib.extend(passes)
        self.scales.append(scale)
        now = time.perf_counter()
        self.phase_s[phase] = self.phase_s.get(phase, 0.0) + (
            now - self._phase_mark)
        self._phase_mark = now
        return scale

    def _budget(self, block: str) -> float:
        return self.seconds * self.plan.shares[block] / ROUNDS

    @staticmethod
    def _fastest(best: List[Tuple[float, float]], latest: List[float],
                 scale: float) -> List[Tuple[float, float]]:
        """Keep, per position, the fastest repeat as timed, paired with
        the speed scale of the block it ran in.

        The repeat is chosen by its time as taken, not at unit speed: a
        block whose reference passes happened to run slow would
        otherwise win with an understated time.
        """
        timed = [(value, scale) for value in latest]
        return timed if not best else list(map(min, best, timed))

    @staticmethod
    def _unit(fastest: List[Tuple[float, float]]) -> List[float]:
        """Per-position fastest repeats at unit host speed."""
        return [value * scale for value, scale in fastest]

    @contextlib.contextmanager
    def _stage(self, name: str, into: List[float]):
        """A traced span whose duration is also appended to ``into``."""
        started = time.perf_counter()
        with self.span(name):
            yield
        into.append(time.perf_counter() - started)

    # -- phases --------------------------------------------------------
    def setup(self) -> None:
        from inputs import live_schedule, query_stream

        timings = []
        for _ in range(SETUP_REPS):
            started = time.perf_counter()
            with self.span("setup"):
                corpus = self.plan.corpus()
                pool, stream = query_stream(
                    corpus, self.seed, self.plan.pool_size, STREAM_LENGTH
                )
                schedule = live_schedule(corpus, self.plan.live, self.seed)
            timings.append(time.perf_counter() - started)
        self.corpus, self.pool, self.stream = corpus, pool, stream
        self.schedule = schedule
        scale = self._block_done("setup")
        self.samples["setup_s"] = [t * scale for t in timings]

    def index(self) -> None:
        """Raw records → collection → tensor → mined → built → saved."""
        from repro import (
            BatchMiner, BurstySearchEngine, FrequencyTensor,
            SpatiotemporalCollection,
        )

        corpus = self.corpus
        self.engine = self.patterns = None
        shutil.rmtree(self.index_path, ignore_errors=True)
        stages: List[float] = []
        started = time.perf_counter()
        with self.span("index"):
            with self._stage("streams.collection", stages):
                collection = SpatiotemporalCollection(corpus.timeline)
                for stream_id, point in corpus.streams:
                    collection.add_stream(stream_id, point)
                for document in corpus.documents:
                    collection.add_document(document)
            with self._stage("streams.tensor", stages):
                tensor = FrequencyTensor(collection)
            with self._stage("pipeline.mine", stages):
                patterns = BatchMiner(workers=1).mine_regional(
                    tensor, corpus.vocabulary,
                    locations=collection.locations(),
                )
            with self._stage("search.build", stages):
                engine = BurstySearchEngine(collection, patterns)
            with self._stage("store.save", stages):
                engine.save(self.index_path, codec="packed",
                            terms=corpus.vocabulary)
        elapsed = time.perf_counter() - started
        self.gate.attempted += 1
        self.digests.add(patterns_digest(patterns))
        self.engine, self.patterns = engine, patterns
        scale = self._block_done("index")
        self.samples["index_s"].append(elapsed)
        self.index_stages = self._fastest(self.index_stages, stages, scale)

    def open(self) -> None:
        """Cold opens: verified store open, engine load, first answer,
        then one answer per mined term so every posting column is
        decoded."""
        from repro import BurstySearchEngine
        from repro.store import open_store

        first_query = self.pool[0]
        expected = ranking(self.engine.search(first_query, k=K))
        budget = self._budget("open")
        opens: List[float] = []
        self.cold = None
        block_started = time.perf_counter()
        while (len(opens) < MIN_PER_ROUND["open"]
               or time.perf_counter() - block_started < budget):
            self.cold = None
            started = time.perf_counter()
            with self.span("open"):
                with self.span("store.open"):
                    reader = open_store(self.index_path, verify=True)
                with self.span("search.from_store"):
                    engine = BurstySearchEngine.from_store(reader)
                with self.span("search.first_query"):
                    first = engine.search(first_query, k=K)
                with self.span("search.decode"):
                    for term in self.corpus.vocabulary:
                        engine.search(term, k=K)
            opens.append((time.perf_counter() - started) * 1e3)
            self.check("open: first answer", expected, ranking(first))
            self.gate.attempted += len(self.corpus.vocabulary)
            self.cold = engine
        scale = self._block_done("open")
        self.samples["open_ms"] += opens
        self.open_ms = self._fastest(self.open_ms, [min(opens)], scale)

    def serve(self) -> None:
        """Closed-loop replays of the query stream over the last
        cold-opened engine, every posting column already decoded."""
        engine, pool = self.cold, self.pool
        budget = self._budget("serve")
        replays: List[Tuple[float, List[float]]] = []
        block_started = time.perf_counter()
        while (len(replays) < MIN_PER_ROUND["serve"]
               or time.perf_counter() - block_started < budget):
            latencies = []
            started = time.perf_counter()
            for index in self.stream:
                query_started = time.perf_counter()
                with self.span("search.query"):
                    results = engine.search(pool[index], k=K)
                latencies.append((time.perf_counter() - query_started) * 1e3)
                self.served.setdefault(index, results)
            replays.append((time.perf_counter() - started, latencies))
            self.gate.attempted += len(self.stream)
        scale = self._block_done("serve")
        for elapsed, latencies in replays:
            self.samples["stream_s"].append(elapsed)
            self.query_ms = self._fastest(self.query_ms, latencies, scale)

    def ablation(self) -> None:
        """Replay the query pool under every strategy (traced runs).

        Each query runs under all four strategies back to back, in an
        order rotated from query to query, so no strategy always pays
        first."""
        picks = {name: 0 for name in ("scan", "ta", "blockmax", "merged")}
        accesses = []
        for number, query in enumerate(self.pool):
            expected = ranking(self.engine.search(query, k=K))
            shift = number % len(STRATEGIES)
            for strategy in STRATEGIES[shift:] + STRATEGIES[:shift]:
                with self.span(f"search.query.{strategy}"):
                    results, stats = self.cold.search_with_stats(
                        query, k=K, strategy=strategy
                    )
                self.check(f"ablation {strategy}: {query!r}", expected,
                           ranking(results))
                if strategy == "auto":
                    picks[stats.strategy] = picks.get(stats.strategy, 0) + 1
                    accesses.append(stats.sorted_accesses)
        for name, count in picks.items():
            self.counts[f"search.auto_picks.{name}"] = count
        self.counts["search.sorted_accesses"] = sum(accesses) / len(accesses)

    def live(self, replay: int) -> None:
        """Replay the feed snapshot by snapshot with the fixed query mix.

        Every replay does the same work at the same positions; each
        query position keeps its fastest replay, and each replay's
        end-of-feed answers must equal the first replay's."""
        from repro import LiveCollection, LiveSearchEngine

        corpus, mix = self.corpus, self.plan.live
        live = LiveCollection(corpus.timeline)
        for stream_id, point in corpus.streams:
            live.add_stream(stream_id, point)
        engine = LiveSearchEngine(live)
        stats = engine.stats
        modes: List[str] = []
        steps: List[float] = []
        checkpoints = 0
        started = time.perf_counter()
        for t, batch in enumerate(corpus.snapshots()):
            step_started = time.perf_counter()
            with self.span("live.ingest"):
                live.ingest_snapshot(t, batch)
            for kind, query in self.schedule[t]:
                before = (stats.cache_hits, stats.served_current)
                with self.span("live.query") as span:
                    engine.search(query, k=K)
                if kind == "subscribe":
                    span.name = "live.subscribe"
                    continue
                if stats.cache_hits > before[0]:
                    served = "cached"
                elif stats.served_current > before[1]:
                    served = "current"
                else:
                    served = "resynced"
                span.name = f"live.query.{served}"
                modes.append(served)
            if (t + 1) % mix.checkpoint_every == 0:
                path = os.path.join(self.work, "checkpoint")
                shutil.rmtree(path, ignore_errors=True)
                with self.span("store.checkpoint"):
                    engine.checkpoint(path, codec="packed")
                checkpoints += 1
            steps.append(time.perf_counter() - step_started)
        feed_s = time.perf_counter() - started
        self.gate.attempted += sum(len(queries) for queries in self.schedule)
        self.gate.attempted += checkpoints
        shutil.rmtree(self.checkpoint, ignore_errors=True)
        with self.span("store.checkpoint"):
            engine.checkpoint(self.checkpoint, codec="packed")
        self.gate.attempted += 1
        if replay == 0:
            # The end-of-feed answers of the most frequent live terms,
            # asked after the checkpoint so every replay checkpoints
            # the same state: checked against a static engine and
            # against every restore of every replay's checkpoint.
            self.final = {
                term: ranking(engine.search(term, k=K))
                for term in corpus.live_vocabulary[:PROBES]
            }
            self.live_modes = modes
            self.counts["live.resync_share"] = modes.count("resynced") / len(
                modes)
            self.counts["live.delta_share"] = stats.delta_updates / max(
                1, stats.delta_updates + stats.rebuilds)
            self.checkpoint_bytes = dir_bytes(self.checkpoint)
        else:
            self.gate.attempted += 1
            if modes != self.live_modes:
                self.gate.failures.append(
                    f"live replay {replay}: serving modes differ")
        del live, engine
        scale = self._block_done("live")
        self.samples["live_s"].append(feed_s)
        self.live_steps = self._fastest(self.live_steps, steps, scale)

    def recover(self, probe_all: bool) -> None:
        """Restore the last replay's final checkpoint and answer the
        first query, :data:`RESTORES` times.  Each restore's first
        answer must equal the live engine's answer at the checkpoint,
        and with ``probe_all`` so must every probe of the last one."""
        from repro import LiveSearchEngine

        probe = self.corpus.live_vocabulary[0]
        restores: List[Tuple[float, List[float]]] = []
        for number in range(RESTORES):
            stages: List[float] = []
            started = time.perf_counter()
            with self.span("recover"):
                with self._stage("store.restore", stages):
                    engine = LiveSearchEngine.from_checkpoint(self.checkpoint)
                with self._stage("live.first_query", stages):
                    first = engine.search(probe, k=K)
            restores.append((time.perf_counter() - started, stages))
            self.check(f"restored: {probe!r}", self.final[probe],
                       ranking(first))
            if probe_all and number == RESTORES - 1:
                for term, answer in self.final.items():
                    self.check(f"restored: {term!r}", answer,
                               ranking(engine.search(term, k=K)))
            del engine
        scale = self._block_done("recover")
        for elapsed, stages in restores:
            self.samples["recover_s"].append(elapsed)
            self.recover_stages = self._fastest(
                self.recover_stages, stages, scale)

    def verify(self) -> None:
        """Index builds agree; served, decoded and live answers match
        in-memory engines byte for byte."""
        from repro.store import open_store

        if len(self.digests) != 1:
            self.gate.failures.append(
                f"index: {len(self.digests)} distinct pattern digests")
        self.digest = sorted(self.digests)[0]
        for index in sorted(self.served):
            self.check(
                f"serve: {self.pool[index]!r}",
                ranking(self.engine.search(self.pool[index], k=K)),
                ranking(self.served[index]),
            )
        for term in self.corpus.vocabulary:
            self.check(f"decoded: {term!r}",
                       ranking(self.engine.search(term, k=K)),
                       ranking(self.cold.search(term, k=K)))
        # The live answers at the end of the feed equal a static engine
        # mined in batch from the full feed (the index phase's engine).
        for term, answer in self.final.items():
            self.check(f"live vs static: {term!r}",
                       ranking(self.engine.search(term, k=K)), answer)
        self.index_bytes = dir_bytes(self.index_path)
        self.postings = open_store(self.index_path, verify=False).json(
            "postings/meta.json")["entries"]

    # -- results -------------------------------------------------------
    def execute(self) -> None:
        from measure import calibrate

        os.makedirs(self.work, exist_ok=True)
        try:
            self._passes_before = calibrate(rounds=2)
            self.setup()
            window_start = time.perf_counter()
            for round_ in range(ROUNDS):
                self.live(round_)
                self.index()
                self.open()
                self.serve()
                self.recover(probe_all=round_ == ROUNDS - 1)
            self.window = (window_start, time.perf_counter())
            if self.tracer.enabled:
                self.ablation()
            self.verify()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def end_to_end(self) -> Dict[str, Tuple[float, int]]:
        """Metric → (value, samples), every timing at unit host speed
        (see :meth:`_block_done`; a rate is divided by the scale).

        Set-up reports the median of its repeats and a cold open its
        fastest.  Everything else sums or ranks positions, each at its
        fastest repeat: an index build or a recovery sums its stages,
        the stream's percentiles and rate are over its positions and
        the feed's wall time sums its snapshots."""
        from measure import peak_rss_mb, percentile

        samples, unit = self.samples, self._unit
        query = unit(self.query_ms)
        documents = len(self.corpus.documents)
        return {
            "setup_s": (median(samples["setup_s"]), SETUP_REPS),
            "index_s": (sum(unit(self.index_stages)),
                        len(samples["index_s"])),
            "open_ms": (unit(self.open_ms)[0], len(samples["open_ms"])),
            "query_p50_ms": (percentile(query, 50), len(query)),
            "query_p99_ms": (percentile(query, 99), len(query)),
            "queries_per_s": (len(query) / (sum(query) / 1e3),
                              len(samples["stream_s"])),
            "live_docs_per_s": (documents / sum(unit(self.live_steps)),
                                len(samples["live_s"])),
            "recover_s": (sum(unit(self.recover_stages)),
                          len(samples["recover_s"])),
            "store_bytes_per_doc": (
                (self.index_bytes + self.checkpoint_bytes) / documents, 1),
            "peak_rss_mb": (peak_rss_mb(), 1),
        }

    def per_layer(self) -> Dict[str, Tuple[float, str, int]]:
        spans = self.tracer.by_name()

        def med(name: str, scale: float = 1.0) -> Tuple[float, int]:
            values = spans.get(name, [])
            return (median(values) * scale if values else 0.0, len(values))

        layer: Dict[str, Tuple[float, str, int]] = {}

        def put(name, unit, value_samples):
            layer[name] = (value_samples[0], unit, value_samples[1])

        put("streams.collection_s", "s", med("streams.collection"))
        put("streams.tensor_s", "s", med("streams.tensor"))
        put("pipeline.mine_s", "s", med("pipeline.mine"))
        put("pipeline.patterns", "count",
            (sum(len(v) for v in self.patterns.values()), 1))
        put("search.build_s", "s", med("search.build"))
        put("search.postings", "count", (self.postings, 1))
        put("store.save_s", "s", med("store.save"))
        put("store.bytes", "count", (self.index_bytes, 1))
        put("store.open_s", "s", med("store.open"))
        put("search.load_s", "s", med("search.from_store"))
        put("search.first_query_ms", "ms", med("search.first_query", 1e3))
        put("search.decode_ms", "ms", med("search.decode", 1e3))
        for strategy in STRATEGIES:
            put(f"search.query_ms.{strategy}", "ms",
                med(f"search.query.{strategy}", 1e3))
        put("search.sorted_accesses", "count",
            (self.counts["search.sorted_accesses"], len(self.pool)))
        for name in ("scan", "ta", "blockmax", "merged"):
            put(f"search.auto_picks.{name}", "count",
                (self.counts[f"search.auto_picks.{name}"], len(self.pool)))
        ingest = spans.get("live.ingest", [])
        put("live.ingest_s", "s",
            (sum(ingest) / len(self.samples["live_s"]), len(ingest)))
        for served in ("cached", "current", "resynced"):
            put(f"live.query_ms.{served}", "ms",
                med(f"live.query.{served}", 1e3))
        put("live.resync_share", "ratio", (self.counts["live.resync_share"],
                                           len(self.live_modes)))
        put("live.delta_share", "ratio", (self.counts["live.delta_share"], 1))
        put("store.checkpoint_s", "s", med("store.checkpoint"))
        put("store.checkpoint_bytes", "count", (self.checkpoint_bytes, 1))
        put("store.restore_s", "s", med("store.restore"))
        put("env.calib_ms", "ms", (median(self.calib), len(self.calib)))
        cost = self.tracer.span_cost()
        start, end = self.window
        inside = sum(1 for span in self.tracer.spans
                     if start <= span.start and span.end <= end)
        put("trace.overhead", "ratio",
            (cost * inside / (end - start), inside))
        for phase in PHASES:
            put(f"mem.rss_after_{phase}_mb", "MB", (self.rss_after[phase], 1))
        return layer


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> int:
    from measure import environment
    from repro.faults import store_io

    run = Run(workload, seed, seconds, trace)
    env = environment(
        seed, WORK,
        f"{type(store_io()).__name__} (library default): every store "
        "file and directory is fsynced",
    )
    measured: Dict[str, Tuple[float, str, int]] = {}
    try:
        run.execute()
        if trace:
            measured = run.per_layer()
        else:
            measured = {
                name: (value, END_TO_END_UNITS[name], samples)
                for name, (value, samples) in run.end_to_end().items()
            }
    except Exception:  # repro: noqa[exception-hygiene] -- run boundary
        traceback.print_exc()  # any failure becomes a failed, reported run
        run.gate.failures.append(
            "run aborted: " + traceback.format_exc(limit=1))
        measured = {}
    failed = len(run.gate.failures)
    correct = failed == 0 and bool(measured)
    record = {
        "workload": workload,
        "trace": trace,
        "env": env,
        "metrics": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in measured.items()
        },
        "live_queries_by_mode": {
            mode: getattr(run, "live_modes", []).count(mode)
            for mode in ("cached", "current", "resynced")
        },
        "patterns_digest": getattr(run, "digest", None),
        "phase_s": run.phase_s,
        "reference_ms_between_blocks": [round(ms, 3) for ms in run.calib],
        "speed_scale_by_block": [round(scale, 4) for scale in run.scales],
        "replays": {"stream": len(run.samples["stream_s"]),
                    "live_feed": len(run.samples["live_s"])},
        "attempted": run.gate.attempted,
        "failures": run.gate.failures[:20],
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1)
    if trace:
        with open(stem + ".spans.json", "w") as handle:
            json.dump([span.to_json() for span in run.tracer.spans], handle)
    print(json.dumps(record))
    print(result_line(
        correct, max(1, run.gate.attempted), failed,
        {name: (value, unit) for name, (value, unit, _) in measured.items()},
    ))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after the other."""
    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, Tuple[float, str]] = {}
    for workload in sorted(_plans()):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            correct = False
        if not lines:
            continue
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics[f"{workload}/{name}"] = (metric["value"], metric["unit"])
    print(result_line(correct, max(1, attempted), failed, metrics))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: no library sources under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, source]
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in _plans():
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(_plans())} or 'all'", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
