"""Vectorized top-k serving kernel — strategy wall-clock comparison.

A synthetic multi-term query workload runs over columnar
:class:`~repro.columnar.postings.PostingArray` postings in three
regimes that span the serving envelope:

* **ambient** — independent uniform scores per list: the reference TA
  terminates after a moderate descent;
* **anti** — anti-correlated lists (every document is strong in one
  term, weak in the others): the threshold decays slowly and TA digs
  deep;
* **selective** — conjunctive queries whose intersection is smaller
  than ``k``: the k-th aggregate can never beat the threshold, so TA
  degrades to full exhaustion of every list — the seed serving path's
  worst case.

Each execution mode (reference ``ta``, ``blockmax``, ``scan``,
``auto`` — which runs ``scan`` — and the batched
``topk_many``) runs the whole workload against its own freshly-built
posting arrays, so every mode pays its own materialisation once and
amortises it across the queries — exactly the cache behaviour of the
serving engines, for the legacy path (lazy random-access dicts) and
the kernel (column views) alike.

Assertions: ``auto`` runs ``scan`` on every query and is ≥ 3× faster
than the reference round-robin TA over the multi-term workload
(skipped under ``REPRO_BENCH_TINY=1``, where fixed costs dominate),
and every mode's rankings — document ids, floating-point scores,
tiebreak order — are byte-identical to the reference TA *and* to the
exhaustive oracle.
Timings land in ``benchmarks/results/BENCH_search.json``.
"""

import time

import numpy as np

from conftest import TINY, persist_summary, report

from repro.columnar.postings import PostingArray
from repro.search import exhaustive_topk, threshold_topk, topk, topk_many



LIST_LEN = 2000 if TINY else 40000
ROUNDS = 1 if TINY else 2


def build_workload(seed=17, list_len=LIST_LEN):
    """Term → raw (ids, scores) columns plus the query mix.

    Returns ``(columns, queries)`` where ``columns`` maps term names to
    ``(doc_ids, scores)`` and each query is ``(terms, k)``.
    """
    rng = np.random.default_rng(seed)
    universe = list_len * 2
    columns = {}

    def subset(size):
        return np.sort(rng.choice(universe, size=size, replace=False))

    # Ambient regime: independent uniform scores.
    for index in range(4):
        ids = subset(list_len)
        columns[f"amb{index}"] = (ids.tolist(), rng.random(len(ids)))
    # Anti-correlated regime: documents specialise in one term.
    for index in range(4):
        ids = subset(list_len)
        base = rng.random(len(ids))
        strong = (ids % 4) == index
        columns[f"anti{index}"] = (
            ids.tolist(),
            np.where(strong, 0.5 + 0.5 * base, 0.25 * base),
        )
    # Selective regime: pairs sharing only a handful of documents, so
    # conjunctive top-k exhausts the reference TA completely.
    shared = rng.choice(universe, size=6, replace=False)
    lo = np.arange(universe, universe + list_len - 6)
    hi = np.arange(universe + list_len, universe + 2 * list_len - 6)
    for name, extra in (("sel0", lo), ("sel1", hi)):
        ids = np.sort(np.concatenate((shared, extra)))
        columns[name] = (ids.tolist(), rng.random(len(ids)))

    queries = [
        (("amb0", "amb1", "amb2"), 10),
        (("amb1", "amb2", "amb3"), 10),
        (("amb0", "amb2"), 10),
        (("amb0", "amb1", "amb2", "amb3"), 10),
        (("anti0", "anti1", "anti2"), 10),
        (("anti1", "anti2", "anti3"), 10),
        (("anti0", "anti1", "anti2", "anti3"), 10),
        (("anti0", "anti3"), 10),
        (("sel0", "sel1"), 10),
        (("sel0", "sel1", "amb0"), 10),
        (("amb0", "anti0"), 10),
        (("amb3", "anti2", "sel0"), 10),
        # Large-k slice: deep rankings over two full lists.
        (("amb0", "amb1"), max(4, list_len // 2)),
        (("anti0", "anti1"), max(4, list_len // 2)),
    ]
    return columns, queries


def fresh_lists(columns):
    """New PostingArray objects: per-mode caches start cold."""
    return {
        term: PostingArray(ids, scores)
        for term, (ids, scores) in columns.items()
    }


def run_mode(columns, queries, mode):
    """Execute the workload in one mode; returns (seconds, rankings)."""
    pool = fresh_lists(columns)
    started = time.perf_counter()
    if mode == "batched":
        # topk_many shares one k per call: batch the workload per k.
        rankings = [None] * len(queries)
        by_k = {}
        for index, (_, k) in enumerate(queries):
            by_k.setdefault(k, []).append(index)
        for k, indices in by_k.items():
            outcomes = topk_many(
                [
                    [pool[term] for term in queries[index][0]]
                    for index in indices
                ],
                k,
            )
            for index, (results, _) in zip(indices, outcomes):
                rankings[index] = [(r.doc_id, r.score) for r in results]
        elapsed = time.perf_counter() - started
        return elapsed, rankings
    rankings = []
    plans = []
    for terms, k in queries:
        lists = [pool[term] for term in terms]
        if mode == "ta":
            results, _ = threshold_topk(lists, k)
        else:
            results, stats = topk(lists, k, mode)
            plans.append(stats.strategy)
        rankings.append([(r.doc_id, r.score) for r in results])
    elapsed = time.perf_counter() - started
    return (elapsed, rankings) if mode == "ta" else (elapsed, rankings, plans)


def test_search_kernel_speedup(benchmark):
    columns, queries = build_workload()

    def run():
        results = {"tiny": TINY, "list_len": LIST_LEN, "queries": len(queries)}
        timings = {}
        rankings = {}
        # Reference + oracle (untimed): exhaustive over a fresh pool.
        oracle_pool = fresh_lists(columns)
        oracle = [
            [
                (r.doc_id, r.score)
                for r in exhaustive_topk(
                    [oracle_pool[term] for term in terms], k
                )
            ]
            for terms, k in queries
        ]
        plans = None
        for mode in ("ta", "blockmax", "scan", "auto", "batched"):
            best = None
            outcome = None
            for _ in range(ROUNDS):
                outcome = run_mode(columns, queries, mode)
                if best is None or outcome[0] < best:
                    best = outcome[0]
            timings[mode] = best
            rankings[mode] = outcome[1]
            if mode == "auto":
                plans = outcome[2]
        # Byte-identical rankings: ids, float scores and tiebreak order
        # must match the reference TA and the exhaustive oracle exactly.
        for mode in ("blockmax", "scan", "auto", "batched"):
            assert repr(rankings[mode]) == repr(rankings["ta"]), mode
        assert repr(rankings["ta"]) == repr(oracle)
        results["timings_s"] = timings
        results["speedup_vs_ta"] = {
            mode: timings["ta"] / max(timings[mode], 1e-9)
            for mode in ("blockmax", "scan", "auto", "batched")
        }
        results["auto_choices"] = dict(
            zip(["+".join(terms) + f"@k={k}" for terms, k in queries], plans)
        )
        results["identical"] = True
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    speedups = results["speedup_vs_ta"]
    lines = [
        "Top-k serving kernel: multi-term workload wall-clock "
        "(byte-identical rankings)",
        f"  {len(results['auto_choices'])} queries over "
        f"{results['list_len']}-posting lists",
        f"  ta (reference) {results['timings_s']['ta']:8.3f}s",
    ]
    for mode in ("blockmax", "scan", "auto", "batched"):
        lines.append(
            f"  {mode:<14} {results['timings_s'][mode]:8.3f}s "
            f"({speedups[mode]:.2f}x vs reference TA)"
        )
    chosen = sorted(set(results["auto_choices"].values()))
    lines.append(f"  auto strategies run: {', '.join(chosen)}")
    report("search", "\n".join(lines))
    persist_summary("search", results)

    # auto runs the scan on every query.
    assert set(results["auto_choices"].values()) == {"scan"}
    if TINY:
        return  # fixed costs dominate at smoke sizes; parity checked above
    # Headline claim: the default strategy beats the legacy
    # round-robin TA ≥3x on the multi-term workload (measured ≈4–6x;
    # the floor leaves headroom for noisy shared runners).
    assert speedups["auto"] >= 3.0, speedups["auto"]
    assert speedups["batched"] >= 3.0, speedups["batched"]
