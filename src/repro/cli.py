"""Command-line interface: run any paper experiment from the shell.

Usage::

    python -m repro.cli table1            # Table 1 on the default corpus
    python -m repro.cli table2 --patterns 60
    python -m repro.cli figure8 --streams 100 200 400
    python -m repro.cli all --background-rate 2.0
    python -m repro.cli mine --workers 4  # batch-mine the whole corpus
    python -m repro.cli mine --workers 0  # explicit serial fast path
    python -m repro.cli search --query "financial crisis" --compare
    python -m repro.cli search --query jackson --strategy blockmax
    python -m repro.cli ingest --query storm --report-every 8
    python -m repro.cli ingest --file feed.jsonl --verify --strategy scan
    python -m repro.cli check             # static invariant analysis
    python -m repro.cli check src --format json --output report.json
    python -m repro.cli save --out idx --top-terms 24
    python -m repro.cli load --store idx --verify
    python -m repro.cli search --from-store idx --query "financial crisis"
    python -m repro.cli ingest --checkpoint-to ckpt
    python -m repro.cli ingest --from-store ckpt --query storm

Every experiment subcommand prints the same rows/series the paper's
table or figure reports (see EXPERIMENTS.md for the comparison); the
``mine`` subcommand runs the columnar batch pipeline over the corpus
vocabulary and prints a per-term pattern summary; the ``search``
subcommand mines the queried terms and serves top-k retrieval through
a selectable execution strategy (``auto``/``ta``/``blockmax``/``scan``,
see :mod:`repro.search.topk`); the ``ingest`` subcommand replays a
JSONL feed (or a built-in demo feed) through the live ingestion +
serving layer, querying as documents arrive; the ``save`` subcommand
mines the corpus and persists a complete serving snapshot as a durable
segment store, ``load`` opens one (``--verify`` byte-compares it
against a cold rebuild), and ``--from-store`` on ``search``/``ingest``
cold-starts serving straight from segments, skipping the rebuild
entirely; the ``check`` subcommand runs the
:mod:`repro.analysis` static invariant analyzer (determinism,
mmap-safety, dtype discipline, exception hygiene, picklability, cache
invalidation) over the given paths and exits nonzero on any
unsuppressed finding — the same gate the CI ``lint`` job enforces.

The subcommands share their flag groups through ``argparse`` parent
parsers (one for corpus construction, one for mining, one for the
synthetic-workload knobs), so a flag is declared exactly once.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional

from repro.datagen.corpus import CorpusSettings
from repro.eval.experiments import (
    TopixLab,
    exp_figure4,
    exp_figure5,
    exp_figure6,
    exp_figure7,
    exp_figure8,
    exp_figure9,
    exp_table1,
    exp_table2,
    exp_table3,
)

__all__ = ["main"]

_CORPUS_EXPERIMENTS = {
    "table1": exp_table1,
    "figure4": exp_figure4,
    "table3": exp_table3,
    "figure5": exp_figure5,
    "figure6": exp_figure6,
    "figure7": exp_figure7,
}


def _corpus_parent() -> argparse.ArgumentParser:
    """Shared corpus-construction flags (every corpus-backed command)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--background-rate",
        type=float,
        default=2.0,
        help="corpus background documents per country per week "
        "(paper-scale: 5.0)",
    )
    parent.add_argument(
        "--seed", type=int, default=0, help="corpus / generator seed"
    )
    return parent


def _synthetic_parent() -> argparse.ArgumentParser:
    """Shared synthetic-workload knobs (table2 / figure8 / all)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--patterns",
        type=int,
        default=120,
        help="injected patterns for table2 (paper: 1000)",
    )
    parent.add_argument(
        "--streams",
        type=int,
        nargs="+",
        default=None,
        help="stream counts for the figure8 sweep",
    )
    return parent


def _workers_parent() -> argparse.ArgumentParser:
    """Shared worker-count flag (mine)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for term-sharded batch mining; 0 (or 1) "
        "is the serial fast path — on a single-CPU host the vectorized "
        "serial sweep beats oversubscribed workers, and values above "
        "the detected CPU count are clamped",
    )
    return parent


def _strategy_parent() -> argparse.ArgumentParser:
    """Shared top-k strategy flag (search / ingest)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--strategy",
        choices=("auto", "ta", "blockmax", "scan"),
        default="auto",
        help="top-k execution strategy: 'ta' is the reference "
        "round-robin Threshold Algorithm, 'blockmax' the block-at-a-"
        "time vectorized TA, 'scan' the full vectorized scan, and "
        "'auto' (default) runs 'scan'; all strategies return "
        "byte-identical rankings",
    )
    return parent


def _mining_parent() -> argparse.ArgumentParser:
    """Shared batch-mining flags (mine)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--miner",
        choices=("stlocal", "stcomb", "both"),
        default="both",
        help="which pattern family to batch-mine",
    )
    parent.add_argument(
        "--top-terms",
        type=int,
        default=None,
        help="restrict mining to the N heaviest terms",
    )
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the evaluation of 'On the Spatiotemporal "
        "Burstiness of Terms' (VLDB 2012).",
    )
    subparsers = parser.add_subparsers(
        dest="experiment",
        required=True,
        metavar="command",
        help="which table/figure to regenerate, 'mine' to batch-mine "
        "the corpus with the columnar pipeline, or 'ingest' to replay a "
        "document feed through the live serving layer",
    )
    corpus = _corpus_parent()
    synthetic = _synthetic_parent()
    workers = _workers_parent()
    mining = _mining_parent()
    strategy = _strategy_parent()

    for name in sorted(_CORPUS_EXPERIMENTS):
        subparsers.add_parser(
            name, parents=[corpus], help=f"regenerate {name}"
        )
    subparsers.add_parser(
        "table2", parents=[corpus, synthetic], help="regenerate table2"
    )
    subparsers.add_parser(
        "figure8", parents=[corpus, synthetic], help="regenerate figure8"
    )
    subparsers.add_parser("figure9", help="regenerate figure9")
    subparsers.add_parser(
        "all",
        parents=[corpus, synthetic],
        help="regenerate every table and figure",
    )
    subparsers.add_parser(
        "mine",
        parents=[corpus, workers, mining],
        help="batch-mine the corpus vocabulary",
    )
    save = subparsers.add_parser(
        "save",
        parents=[corpus],
        help="mine the corpus and persist a durable serving snapshot "
        "(documents, patterns, posting columns)",
    )
    save.add_argument(
        "--out", required=True, help="target store directory (new or empty)"
    )
    save.add_argument(
        "--miner",
        choices=("stlocal", "stcomb"),
        default="stlocal",
        help="pattern family backing the persisted index",
    )
    save.add_argument(
        "--top-terms",
        type=int,
        default=None,
        help="restrict mining to the N heaviest terms",
    )
    save.add_argument(
        "--codec",
        choices=("raw", "packed"),
        default="raw",
        help="posting-column layout: raw <i8/<f8 columns (format v1) "
        "or block-compressed packed columns (format v2, ~3x smaller, "
        "byte-identical decode)",
    )
    load = subparsers.add_parser(
        "load",
        help="open a segment store, check its integrity and summarise it",
    )
    load.add_argument(
        "--store", required=True, help="store directory to open"
    )
    load.add_argument(
        "--verify",
        action="store_true",
        help="byte-compare the loaded index against a cold rebuild of "
        "its own corpus (ids, score float bits, crc32 tie order)",
    )
    fsck = subparsers.add_parser(
        "fsck",
        help="audit a segment store: per-file CRCs, format gates and "
        "per-term posting decode checks; exit 0 clean / 1 corrupt / "
        "2 unreadable",
    )
    fsck.add_argument(
        "--store", required=True, help="store directory to audit"
    )
    fsck.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="report_format",
        help="report format: human-readable text (default) or the "
        "machine-readable JSON the CI recovery job archives",
    )
    fsck.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the report to FILE (stdout always gets it)",
    )
    repair = subparsers.add_parser(
        "repair",
        help="quarantine damaged segment files and restore a loadable "
        "store (rebuilding posting columns from the stored corpus)",
    )
    repair.add_argument(
        "--store", required=True, help="store directory to repair"
    )
    repair.add_argument(
        "--quarantine",
        action="store_true",
        help="actually move damaged files to <store>/quarantine/ and "
        "rewrite the manifest; without it, repair is a dry run that "
        "only reports what it would do",
    )
    search = subparsers.add_parser(
        "search",
        parents=[corpus, strategy],
        help="mine the queried terms and serve top-k retrieval with a "
        "selectable execution strategy",
    )
    search.add_argument(
        "--from-store",
        default=None,
        metavar="DIR",
        help="serve from a saved segment store instead of building and "
        "mining the corpus (cold-start-from-disk path)",
    )
    search.add_argument(
        "--on-corruption",
        choices=("fail", "degrade"),
        default="fail",
        dest="on_corruption",
        help="with --from-store: 'fail' (default) aborts on any "
        "checksum mismatch; 'degrade' quarantines damaged posting "
        "columns per term and keeps serving the healthy ones, "
        "reporting what was lost",
    )
    search.add_argument(
        "--query",
        action="append",
        default=None,
        help="query to serve (repeatable); defaults to the Table 9 "
        "multi-term query 'financial crisis'",
    )
    search.add_argument(
        "--k", type=int, default=10, help="results per query"
    )
    search.add_argument(
        "--miner",
        choices=("stlocal", "stcomb"),
        default="stlocal",
        help="pattern family backing the engine",
    )
    search.add_argument(
        "--compare",
        action="store_true",
        help="run every strategy on each query, verify the rankings "
        "are identical, and report per-strategy wall-clock",
    )
    ingest = subparsers.add_parser(
        "ingest",
        parents=[strategy],
        help="replay a feed through the live serving layer",
    )
    ingest.add_argument(
        "--file",
        default=None,
        help="JSONL feed to replay; omit for a built-in demo feed.  "
        "Lines: {\"type\":\"stream\",\"id\":...,\"x\":...,\"y\":...}, "
        "{\"doc_id\":...,\"stream\":...,\"timestamp\":...,\"text\":...}, "
        "{\"type\":\"advance\",\"timestamp\":...}",
    )
    ingest.add_argument(
        "--timeline",
        type=int,
        default=64,
        help="timeline length for the live collection",
    )
    ingest.add_argument(
        "--query",
        action="append",
        default=None,
        help="query to serve during the replay; repeatable",
    )
    ingest.add_argument(
        "--k", type=int, default=5, help="results per query"
    )
    ingest.add_argument(
        "--report-every",
        type=int,
        default=10,
        help="serve the queries every N ingested snapshots",
    )
    ingest.add_argument(
        "--verify",
        action="store_true",
        help="after the replay, cross-check live results against a cold "
        "batch rebuild",
    )
    ingest.add_argument(
        "--from-store",
        default=None,
        metavar="DIR",
        help="restore the live engine from a checkpoint before replaying; "
        "records the checkpoint already covers are skipped, so ingestion "
        "resumes from the persisted watermark instead of replaying the "
        "whole feed",
    )
    ingest.add_argument(
        "--checkpoint-to",
        default=None,
        metavar="DIR",
        help="persist the live engine as a checkpoint after the replay",
    )

    check = subparsers.add_parser(
        "check",
        help="run the static invariant analyzer (repro.analysis) and "
        "fail on any unsuppressed finding",
    )
    check.add_argument(
        "paths",
        nargs="*",
        default=None,
        metavar="PATH",
        help="files/directories to analyze (default: src and "
        "benchmarks, whichever exist under the working directory)",
    )
    check.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="report_format",
        help="report format: human-readable text (default) or the "
        "machine-readable JSON the CI lint job archives",
    )
    check.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the report to FILE (stdout always gets it)",
    )
    check.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULE",
        help="run only this rule (repeatable)",
    )
    check.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="RULE",
        help="skip this rule (repeatable)",
    )
    check.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules with their scopes and exit",
    )
    check.add_argument(
        "--stats",
        action="store_true",
        help="report run statistics: summary-cache hits/misses, "
        "program-graph size and wall-clock time",
    )
    check.add_argument(
        "--cache-dir",
        default=".repro-check-cache",
        metavar="DIR",
        help="incremental summary cache directory (default: "
        ".repro-check-cache); unchanged files reuse cached per-file "
        "results keyed by content hash",
    )
    check.add_argument(
        "--no-cache",
        action="store_true",
        help="analyze every file from scratch, neither reading nor "
        "writing the summary cache",
    )
    return parser


def _resolve_workers(requested: int) -> int:
    """Clamp a worker count to the host's CPUs (0/1 → serial fast path).

    Oversubscribing a single-CPU container with worker processes only
    adds pickling and scheduling overhead on top of the same serial
    compute; the columnar serial sweep is the fast path there.
    """
    cpus = os.cpu_count() or 1
    if requested <= 1:
        return 1
    if requested > cpus:
        print(
            f"workers={requested} exceeds the {cpus} detected CPU(s); "
            f"clamping to {cpus} (use --workers 0 for the serial fast "
            "path)",
            file=sys.stderr,
        )
        return cpus
    return requested


def _corpus_lab(args: argparse.Namespace) -> TopixLab:
    print(
        f"building Topix-style corpus (181 countries, 48 weeks, "
        f"background rate {args.background_rate}, seed {args.seed})...",
        file=sys.stderr,
    )
    settings = CorpusSettings(
        background_rate=args.background_rate, seed=args.seed
    )
    started = time.perf_counter()
    lab = TopixLab(settings)
    print(
        f"corpus ready: {lab.collection.document_count} documents "
        f"({time.perf_counter() - started:.1f}s)",
        file=sys.stderr,
    )
    return lab


def _run_mine(args: argparse.Namespace, lab: Optional[TopixLab]) -> Optional[TopixLab]:
    """Batch-mine the corpus vocabulary with the snapshot-major pipeline."""
    from repro.pipeline import BatchMiner

    if lab is None:
        lab = _corpus_lab(args)
    tensor = lab.tensor
    if args.top_terms and args.top_terms > 0:
        terms = [term for term, _ in tensor.top_terms(args.top_terms)]
    else:
        terms = sorted(tensor.terms)
    workers = _resolve_workers(args.workers)
    print(
        f"mining {len(terms)} terms "
        f"({workers} worker{'s' if workers != 1 else ''})...",
        file=sys.stderr,
    )
    jobs = []
    if args.miner in ("stlocal", "both"):
        jobs.append(("STLocal", True))
    if args.miner in ("stcomb", "both"):
        jobs.append(("STComb", False))
    miner = BatchMiner(
        stlocal=lab.stlocal, stcomb=lab.stcomb, workers=workers
    )
    for label, regional in jobs:
        started = time.perf_counter()
        if regional:
            mined = miner.mine_regional(
                tensor, terms, locations=lab.locations
            )
        else:
            mined = miner.mine_combinatorial(tensor, terms)
        elapsed = time.perf_counter() - started
        n_patterns = sum(len(patterns) for patterns in mined.values())
        print(
            f"{label}: {n_patterns} patterns over {len(mined)} terms "
            f"in {elapsed:.2f}s"
        )
        best = sorted(
            (
                (patterns[0].score, term)
                for term, patterns in mined.items()
            ),
            reverse=True,
        )[:10]
        for score, term in best:
            top = mined[term][0]
            print(
                f"  {term:<24} score={score:10.3f} "
                f"weeks=[{top.timeframe.start},{top.timeframe.end}] "
                f"streams={len(top.streams)}"
            )
    return lab


def _run_save(args: argparse.Namespace, lab: Optional[TopixLab]) -> Optional[TopixLab]:
    """Mine the corpus and persist a complete serving snapshot."""
    from repro.pipeline import BatchMiner
    from repro.search import BurstySearchEngine
    from repro.store import save_search_index
    from repro.store.format import check_save_target

    # Fail on an unusable target *before* paying for corpus + mining.
    check_save_target(args.out)
    if lab is None:
        lab = _corpus_lab(args)
    tensor = lab.tensor
    if args.top_terms and args.top_terms > 0:
        terms = [term for term, _ in tensor.top_terms(args.top_terms)]
    else:
        terms = sorted(tensor.terms)
    print(
        f"mining {len(terms)} term(s) with "
        f"{'STLocal' if args.miner == 'stlocal' else 'STComb'}...",
        file=sys.stderr,
    )
    miner = BatchMiner(stlocal=lab.stlocal, stcomb=lab.stcomb)
    if args.miner == "stlocal":
        mined = miner.mine_regional(tensor, terms, locations=lab.locations)
    else:
        mined = miner.mine_combinatorial(tensor, terms)
    engine = BurstySearchEngine(lab.collection, mined)
    started = time.perf_counter()
    save_search_index(
        args.out,
        engine,
        "regional" if args.miner == "stlocal" else "combinatorial",
        terms=terms,
        miner_config=(
            lab.stlocal.config if args.miner == "stlocal" else lab.stcomb.config
        ),
        metadata={
            "background_rate": args.background_rate,
            "seed": args.seed,
        },
        codec=args.codec,
    )
    n_patterns = sum(len(patterns) for patterns in mined.values())
    print(
        f"saved {args.out}: {lab.collection.document_count} documents, "
        f"{n_patterns} patterns over {len(mined)} terms, "
        f"{len(mined)} posting lists [{args.codec}] "
        f"({time.perf_counter() - started:.2f}s)"
    )
    return lab


def _run_load(args: argparse.Namespace) -> None:
    """Open a store (verifying checksums), summarise, optionally verify."""
    from repro.store import open_store, verify_store

    started = time.perf_counter()
    store = open_store(args.store)
    n_files = len(store.files())
    total = sum(entry["size"] for entry in store.files().values())
    print(
        f"store {args.store}: kind={store.kind!r} "
        f"format=v{store.format_version} "
        f"library={store.library_version} "
        f"files={n_files} bytes={total} "
        f"({time.perf_counter() - started:.2f}s, checksums OK)"
    )
    for key in ("documents", "streams", "terms", "watermark", "epoch"):
        if key in store.metadata:
            value = store.metadata[key]
            if isinstance(value, list):
                value = len(value)
            print(f"  {key}: {value}")
    if args.verify:
        started = time.perf_counter()
        for line in verify_store(store):
            print(f"  verify: {line}")
        print(
            f"  verified against cold rebuild in "
            f"{time.perf_counter() - started:.2f}s"
        )


def _run_fsck(args: argparse.Namespace) -> int:
    """Audit a store and report per-file / per-term verdicts."""
    import json

    from repro.store.fsck import fsck_store

    report = fsck_store(args.store)
    if args.report_format == "json":
        rendered = json.dumps(report.to_payload(), indent=1, sort_keys=True)
    else:
        rendered = report.render()
    print(rendered)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    return report.exit_code


def _run_repair(args: argparse.Namespace) -> int:
    """Quarantine damage and restore a loadable store (or dry-run)."""
    from repro.store.fsck import fsck_store, repair_store

    if not args.quarantine:
        report = fsck_store(args.store)
        print(report.render())
        if report.error:
            return 2
        if report.clean:
            print("dry run: store is clean; nothing to repair")
            return 0
        print(
            "dry run: re-run with --quarantine to move the damaged "
            "file(s) aside and rewrite the manifest"
        )
        return 1
    report = repair_store(args.store)
    print(report.render())
    if report.changed:
        print(
            f"store {args.store} repaired; quarantined bytes kept "
            f"under {args.store}/quarantine/"
        )
    return 0


def _run_search(args: argparse.Namespace, lab: Optional[TopixLab]) -> Optional[TopixLab]:
    """Mine the queried terms, then serve them with a chosen strategy."""
    from repro.pipeline import BatchMiner
    from repro.search import BurstySearchEngine, normalize_query_terms
    from repro.streams.document import tokenize

    queries = args.query or ["financial crisis"]
    if args.from_store:
        started = time.perf_counter()
        engine = BurstySearchEngine.from_store(
            args.from_store,
            strategy=args.strategy,
            on_corruption=getattr(args, "on_corruption", "fail"),
        )
        print(
            f"cold-started engine from store {args.from_store!r} in "
            f"{time.perf_counter() - started:.3f}s "
            f"({engine.collection.document_count} documents)",
            file=sys.stderr,
        )
        degraded = engine.degraded_report()
        if degraded:
            print(
                f"DEGRADED MODE: {len(degraded)} quarantined "
                "component(s); serving continues over healthy terms",
                file=sys.stderr,
            )
            for term in sorted(degraded):
                print(
                    f"  quarantined {term!r}: {degraded[term]}",
                    file=sys.stderr,
                )
    else:
        if lab is None:
            lab = _corpus_lab(args)
        wanted = sorted(
            {
                term
                for query in queries
                for term in normalize_query_terms(tokenize(query))
            }
            & set(lab.tensor.terms)
        )
        print(
            f"mining {len(wanted)} query term(s) with "
            f"{'STLocal' if args.miner == 'stlocal' else 'STComb'}...",
            file=sys.stderr,
        )
        miner = BatchMiner(stlocal=lab.stlocal, stcomb=lab.stcomb)
        if args.miner == "stlocal":
            mined = miner.mine_regional(
                lab.tensor, wanted, locations=lab.locations
            )
        else:
            mined = miner.mine_combinatorial(lab.tensor, wanted)
        engine = BurstySearchEngine(
            lab.collection, mined, strategy=args.strategy
        )
    strategies = (
        ("ta", "blockmax", "scan", "auto") if args.compare else (args.strategy,)
    )
    for query in queries:
        if args.compare:
            # Warm every strategy once untimed (posting lists, doc map,
            # random-access dicts, column caches), so the printed
            # numbers are steady-state and no strategy pays one-time
            # costs inside its timed region.
            for strategy in strategies:
                engine.search(query, k=args.k, strategy=strategy)
        baseline = None
        for strategy in strategies:
            started = time.perf_counter()
            results, stats = engine.search_with_stats(
                query, k=args.k, strategy=strategy
            )
            elapsed = time.perf_counter() - started
            ranking = [(r.document.doc_id, r.score) for r in results]
            if baseline is None:
                baseline = ranking
                print(f"query {query!r}: {len(results)} result(s)")
                for rank, hit in enumerate(results, start=1):
                    doc = hit.document
                    print(
                        f"  {rank:2d}. doc {doc.doc_id!r} "
                        f"(stream {doc.stream_id!r}, t={doc.timestamp}, "
                        f"score {hit.score:.4f})"
                    )
            elif ranking != baseline:
                print(f"  {strategy:<8} MISMATCH vs {strategies[0]}")
                raise SystemExit(1)
            if stats.degraded_terms:
                print(
                    "  WARNING: served without quarantined term(s) "
                    + ", ".join(repr(t) for t in stats.degraded_terms)
                )
            print(f"  [{strategy:<8}] {elapsed * 1000.0:8.2f}ms")
        if args.compare:
            print("  rankings byte-identical across strategies: yes")
    return lab


def _demo_feed(timeline: int):
    """Deterministic built-in feed: background chatter + one outbreak.

    Yields the same record dicts a JSONL feed file would contain, so
    the replay path is identical with and without ``--file``.
    """
    import random

    rng = random.Random(11)
    cities = [(f"city{c}{r}", c * 10.0, r * 10.0) for c in range(4) for r in range(4)]
    for cid, x, y in cities:
        yield {"type": "stream", "id": cid, "x": x, "y": y}
    vocabulary = ["storm", "market", "football", "election"]
    doc_id = 0
    for day in range(min(timeline, 40)):
        for cid, _, _ in cities:
            if rng.random() < 0.4:
                text = " ".join(
                    rng.choice(vocabulary) for _ in range(rng.randint(1, 3))
                )
                yield {
                    "doc_id": doc_id,
                    "stream": cid,
                    "timestamp": day,
                    "text": text,
                }
                doc_id += 1
        if 15 <= day <= 22:  # storm outbreak in the north-west block
            for cid in ("city00", "city01", "city10", "city11"):
                yield {
                    "doc_id": doc_id,
                    "stream": cid,
                    "timestamp": day,
                    "text": "storm storm flooding",
                }
                doc_id += 1
        yield {"type": "advance", "timestamp": day}


#: Required fields (beyond ``type``) per feed record kind.
_FEED_FIELDS = {
    "stream": ("id", "x", "y"),
    "advance": ("timestamp",),
    "doc": ("doc_id", "stream", "timestamp", "text"),
}


def _load_feed(path: str) -> list:
    """Parse and validate a JSONL ingest feed, all-or-nothing.

    Every line is checked *before* any record is applied, so a
    malformed line aborts the replay with its line number and a
    one-line reason (exit 2 through the CLI's typed-error handler)
    instead of a traceback over a partially-ingested collection.

    Raises:
        FeedError: naming ``file:line`` and what is wrong with it.
    """
    import json

    from repro.errors import FeedError

    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise FeedError(f"cannot read feed {path!r}: {exc}") from None
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise FeedError(
                f"{path}:{lineno}: not valid JSON ({exc}); no records "
                "were applied"
            ) from None
        if not isinstance(record, dict):
            raise FeedError(
                f"{path}:{lineno}: expected a JSON object per line, got "
                f"{type(record).__name__}; no records were applied"
            )
        kind = record.get("type", "doc")
        fields = _FEED_FIELDS.get(kind)
        if fields is None:
            raise FeedError(
                f"{path}:{lineno}: unknown record type {kind!r} "
                f"(expected one of {sorted(_FEED_FIELDS)}); no records "
                "were applied"
            )
        missing = [field for field in fields if field not in record]
        if missing:
            raise FeedError(
                f"{path}:{lineno}: {kind!r} record is missing required "
                f"field(s) {missing}; no records were applied"
            )
        if "timestamp" in fields and not isinstance(
            record["timestamp"], int
        ):
            raise FeedError(
                f"{path}:{lineno}: 'timestamp' must be an integer, got "
                f"{record['timestamp']!r}; no records were applied"
            )
        records.append(record)
    return records


def _run_ingest(args: argparse.Namespace) -> None:
    """Replay a feed through the live layer, serving queries as it goes."""
    import json

    from repro.live import LiveCollection, LiveSearchEngine
    from repro.spatial import Point
    from repro.streams import Document

    if args.checkpoint_to:
        from repro.store.format import check_save_target

        # Fail on an unusable checkpoint target before the replay.
        check_save_target(args.checkpoint_to)
    if args.file:
        records = _load_feed(args.file)
    else:
        print("no --file given; replaying the built-in demo feed", file=sys.stderr)
        records = list(_demo_feed(args.timeline))

    if args.from_store:
        started = time.perf_counter()
        engine = LiveSearchEngine.from_checkpoint(
            args.from_store, strategy=args.strategy
        )
        live = engine.live
        print(
            f"restored checkpoint {args.from_store!r} in "
            f"{time.perf_counter() - started:.3f}s: "
            f"{live.document_count} documents, watermark t={live.watermark}, "
            f"epoch {live.epoch} — resuming ingestion (records the "
            "checkpoint covers are skipped)",
            file=sys.stderr,
        )
        known_streams = set(live.locations())
        records = [
            record
            for record in records
            if not (
                (record.get("type") == "stream" and record["id"] in known_streams)
                or (
                    record.get("type") == "advance"
                    and record["timestamp"] <= live.watermark
                )
                or (
                    record.get("type", "doc") == "doc"
                    and live.has_document(record["doc_id"])
                )
            )
        ]
    else:
        live = LiveCollection(args.timeline)
        engine = LiveSearchEngine(live, strategy=args.strategy)
    queries = args.query or ["storm"]

    def serve(label: str) -> None:
        for query in queries:
            results = engine.search(query, k=args.k)
            top = (
                f"doc {results[0].document.doc_id!r} "
                f"(stream {results[0].document.stream_id!r}, "
                f"t={results[0].document.timestamp}, "
                f"score {results[0].score:.3f})"
                if results
                else "no bursty match"
            )
            print(f"{label} query {query!r}: {len(results)} result(s); top: {top}")

    snapshots_seen = 0
    last_timestamp: Optional[int] = None
    for record in records:
        kind = record.get("type", "doc")
        if kind == "stream":
            live.add_stream(record["id"], Point(record["x"], record["y"]))
            continue
        if kind == "advance":
            live.advance_to(record["timestamp"])
            continue
        document = Document.from_text(
            record["doc_id"],
            record["stream"],
            record["timestamp"],
            record["text"],
        )
        if last_timestamp is not None and document.timestamp != last_timestamp:
            snapshots_seen += 1
            if args.report_every > 0 and snapshots_seen % args.report_every == 0:
                serve(f"[t={last_timestamp}]")
        last_timestamp = document.timestamp
        live.ingest(document)

    print(
        f"replay complete: {live.document_count} documents over "
        f"{len(live)} streams, watermark t={live.watermark}, "
        f"epoch {live.epoch}"
    )
    serve("[final]")
    stats = engine.stats
    print(
        f"serving stats: {stats.cache_hits} cache hit(s), "
        f"{stats.cache_misses} miss(es), {stats.rebuilds} rebuild(s)"
    )

    if args.checkpoint_to:
        started = time.perf_counter()
        engine.checkpoint(args.checkpoint_to)
        print(
            f"checkpoint written to {args.checkpoint_to} "
            f"({time.perf_counter() - started:.3f}s); resume with "
            f"--from-store {args.checkpoint_to}"
        )

    if args.verify:
        from repro.pipeline import BatchMiner
        from repro.search import BurstySearchEngine
        from repro.streams import SpatiotemporalCollection

        # live.timeline, not args.timeline: a restored checkpoint keeps
        # the timeline it was written with, whatever this run's flag says.
        cold = SpatiotemporalCollection(live.timeline)
        for sid, point in live.locations().items():
            cold.add_stream(sid, point)
        for document in live.ingested_documents():
            cold.add_document(document)
        mined = BatchMiner().mine_regional(cold)
        batch_engine = BurstySearchEngine(cold, mined)
        for query in queries:
            lively = [
                (r.document.doc_id, r.score) for r in engine.search(query, k=args.k)
            ]
            coldly = [
                (r.document.doc_id, r.score)
                for r in batch_engine.search(query, k=args.k)
            ]
            verdict = "OK" if lively == coldly else "MISMATCH"
            print(f"verify {query!r}: live == cold batch rebuild ... {verdict}")
            if lively != coldly:
                raise SystemExit(1)


def _run_check(args: argparse.Namespace) -> int:
    """Run the static invariant analyzer; exit 0 clean, 1 on findings."""
    from repro.analysis import (
        all_program_rules,
        all_rules,
        check_paths,
        default_config,
        render_json,
        render_text,
    )
    from repro.analysis.config import DEFAULT_SCOPES

    if args.list_rules:
        per_file = all_rules()
        program = all_program_rules()
        for rule_list, kind in ((per_file, "file"), (program, "program")):
            for rule in rule_list:
                scopes = ", ".join(DEFAULT_SCOPES.get(rule.name, ()))
                print(f"{rule.name:<26} <{kind}> [{scopes}]")
                print(f"    {rule.description}")
        return 0
    paths = args.paths or [
        path for path in ("src", "benchmarks") if os.path.isdir(path)
    ]
    if not paths:
        print(
            "error: no paths given and neither src/ nor benchmarks/ "
            "exists under the working directory",
            file=sys.stderr,
        )
        return 2
    select = frozenset(args.select) if args.select else None
    ignore = frozenset(args.ignore) if args.ignore else frozenset()
    # default_config validates rule names: a typo in --select raises
    # ConfigurationError, which main() turns into exit 2.
    config = default_config(select=select, ignore=ignore)
    cache_dir = None if args.no_cache else args.cache_dir
    report = check_paths(paths, config, cache_dir=cache_dir)
    rendered = (
        render_json(report)
        if args.report_format == "json"
        else render_text(report, show_stats=args.stats)
    )
    print(rendered)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    return 0 if report.clean else 1


def _run_one(name: str, args: argparse.Namespace, lab: Optional[TopixLab]) -> Optional[TopixLab]:
    """Run one experiment, creating/reusing the corpus lab as needed."""
    if name == "ingest":
        _run_ingest(args)
        return lab
    if name == "mine":
        return _run_mine(args, lab)
    if name == "search":
        return _run_search(args, lab)
    if name == "save":
        return _run_save(args, lab)
    if name == "load":
        _run_load(args)
        return lab
    if name in _CORPUS_EXPERIMENTS:
        if lab is None:
            lab = _corpus_lab(args)
        result = _CORPUS_EXPERIMENTS[name](lab)
    elif name == "table2":
        result = exp_table2(n_patterns=args.patterns, seed=args.seed)
    elif name == "figure8":
        if args.streams:
            result = exp_figure8(stream_counts=args.streams, seed=args.seed)
        else:
            result = exp_figure8(seed=args.seed)
    else:  # figure9
        result = exp_figure9()
    print(result.render())
    print()
    return lab


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.errors import ReproError

    args = _build_parser().parse_args(argv)
    if args.experiment in ("check", "fsck", "repair"):
        runner = {
            "check": _run_check,
            "fsck": _run_fsck,
            "repair": _run_repair,
        }[args.experiment]
        try:
            return runner(args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    names = (
        ["table1", "figure4", "table2", "table3", "figure5", "figure6",
         "figure7", "figure8", "figure9"]
        if args.experiment == "all"
        else [args.experiment]
    )
    lab: Optional[TopixLab] = None
    for name in names:
        started = time.perf_counter()
        try:
            lab = _run_one(name, args, lab)
        except ReproError as exc:
            # Library failures (missing/corrupted stores, bad requests)
            # are user-facing conditions, not bugs: report them plainly
            # and exit nonzero instead of dumping a traceback.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"[{name} finished in {time.perf_counter() - started:.1f}s]",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
