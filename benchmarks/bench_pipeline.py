"""Batch mining pipeline — term-major vs snapshot-major vs sharded.

A 56-term synthetic corpus of localised events (the injected-pattern
workload of Section 6.2) is mined three ways:

* **term-major** — the seed behaviour: replay the full timeline once
  per term, one ``process`` call per snapshot
  (``tests/oracles/stlocal.py``'s ``replay_term`` in a loop);
* **snapshot-major** — the per-snapshot replay of the same oracle's
  ``replay_trackers``: one sweep over the shared tensor feeds every
  tracker, skipping each term's quiet prefix and post-burst tail;
* **sharded** — the same pipeline with ``workers=2`` (term-sharded
  multiprocessing; informational on single-core runners).

Assertions: snapshot-major is ≥ 3× faster than term-major and its
pattern output is byte-identical; the sharded output is value-identical
(bit-equal scores — ``repr`` differs only in frozenset ordering across
processes).
"""

import random
import time

from conftest import TINY, report

from repro import (
    Document,
    FrequencyTensor,
    Point,
    STComb,
    STLocal,
    SpatiotemporalCollection,
)
from repro.pipeline import BatchMiner

from oracles.stlocal import replay_patterns, replay_term

#: CI smoke mode: shrink the workload and skip the wall-clock assertion
#: (fixed costs dominate at smoke sizes; output parity still holds).

N_STREAMS = 32 if TINY else 64
TIMELINE = 128 if TINY else 520
N_TERMS = 12 if TINY else 56


def build_event_corpus(
    n_streams=N_STREAMS, timeline=TIMELINE, n_terms=N_TERMS, seed=11
):
    """Localised bursts: each term is active on a handful of nearby
    streams inside one short window somewhere on the timeline."""
    rng = random.Random(seed)
    coll = SpatiotemporalCollection(timeline=timeline)
    side = 8
    for i in range(n_streams):
        coll.add_stream(
            f"s{i:03d}", Point(float(i % side) * 5.0, float(i // side) * 5.0)
        )
    doc_id = 0
    for index in range(n_terms):
        term = f"event{index:03d}"
        start = rng.randint(0, timeline - 20)
        span = rng.randint(6, 12)
        anchor = rng.randint(0, n_streams - 1)
        members = {anchor}
        while len(members) < rng.randint(2, 6):
            step = rng.choice((-9, -8, -7, -1, 1, 7, 8, 9))
            members.add(max(0, min(n_streams - 1, anchor + step)))
        for t in range(start, start + span):
            for member in members:
                for _ in range(rng.randint(1, 3)):
                    coll.add_document(
                        Document(doc_id, f"s{member:03d}", t, (term,))
                    )
                    doc_id += 1
        # Ambient mentions confined to the event's neighbourhood.
        for _ in range(span * 2):
            t = rng.randint(
                max(0, start - 3), min(timeline - 1, start + span + 2)
            )
            stream = f"s{rng.randint(0, n_streams - 1):03d}"
            coll.add_document(Document(doc_id, stream, t, (term,)))
            doc_id += 1
    return coll


def mine_by_replay(stlocal, tensor, terms, locations):
    """Regional patterns from the per-snapshot replay, shaped like
    ``BatchMiner.mine_regional`` output."""
    return replay_patterns(tensor, terms, locations, stlocal.config)


def mine_term_major(stlocal, tensor, terms, locations):
    """The seed's mining loop: a full per-snapshot replay per term."""
    mined = {}
    for term in terms:
        tracker = replay_term(tensor, term, locations, stlocal.config)
        patterns = tracker.patterns(term)
        if patterns:
            mined[term] = patterns
    return mined


def run_pipeline_comparison():
    collection = build_event_corpus()
    tensor = FrequencyTensor(collection)
    locations = collection.locations()
    terms = sorted(tensor.terms)
    stlocal = STLocal()
    stcomb = STComb()

    timings = {}

    start = time.perf_counter()
    term_major = mine_term_major(stlocal, tensor, terms, locations)
    timings["stlocal_term_major"] = time.perf_counter() - start

    start = time.perf_counter()
    # The replay isolates the snapshot-major *order* win this benchmark
    # is about; the columnar kernel on top is measured separately in
    # bench_columnar.py.
    snapshot_major = mine_by_replay(stlocal, tensor, terms, locations)
    timings["stlocal_snapshot_major"] = time.perf_counter() - start

    start = time.perf_counter()
    sharded = BatchMiner(stlocal=stlocal, workers=2).mine_regional(
        tensor, terms, locations
    )
    timings["stlocal_sharded_w2"] = time.perf_counter() - start

    start = time.perf_counter()
    comb_term_major = {}
    for term in terms:
        patterns = stcomb.patterns_for_term(tensor, term)
        if patterns:
            comb_term_major[term] = patterns
    timings["stcomb_term_major"] = time.perf_counter() - start

    start = time.perf_counter()
    comb_batch = BatchMiner(stcomb=stcomb).mine_combinatorial(tensor, terms)
    timings["stcomb_batch"] = time.perf_counter() - start

    return (
        timings,
        (term_major, snapshot_major, sharded),
        (comb_term_major, comb_batch),
    )


def test_pipeline_speedup(benchmark):
    timings, regional, combinatorial = benchmark.pedantic(
        run_pipeline_comparison, rounds=1, iterations=1
    )
    term_major, snapshot_major, sharded = regional
    comb_term_major, comb_batch = combinatorial

    speedup = timings["stlocal_term_major"] / max(
        timings["stlocal_snapshot_major"], 1e-9
    )
    sharded_speedup = timings["stlocal_term_major"] / max(
        timings["stlocal_sharded_w2"], 1e-9
    )
    lines = [
        "Pipeline: multi-term mining wall-clock "
        f"({N_TERMS} terms, {N_STREAMS} streams, {TIMELINE} snapshots)",
        f"  STLocal term-major      {timings['stlocal_term_major']:8.3f}s",
        f"  STLocal snapshot-major  {timings['stlocal_snapshot_major']:8.3f}s"
        f"  ({speedup:.2f}x)",
        f"  STLocal sharded (w=2)   {timings['stlocal_sharded_w2']:8.3f}s"
        f"  ({sharded_speedup:.2f}x)",
        f"  STComb  term-major      {timings['stcomb_term_major']:8.3f}s",
        f"  STComb  shared tensor   {timings['stcomb_batch']:8.3f}s",
    ]
    report("pipeline", "\n".join(lines))

    # Output parity: the pipeline is an optimisation, not a variant.
    assert repr(snapshot_major) == repr(term_major)
    assert sharded == term_major
    assert repr(comb_batch) == repr(comb_term_major)

    # The headline claim: one shared sweep beats per-term replay 3x+.
    if not TINY:
        assert speedup >= 3.0, f"snapshot-major speedup only {speedup:.2f}x"
