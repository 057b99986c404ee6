"""Durable segment store — cold-start-from-disk vs full rebuild.

The serving question the store exists to answer: after a process
restart, how fast can the first query be served?

* **rebuild** — the seed path: construct the collection from raw
  records, batch-mine every term, precompute the posting lists, serve
  the query workload;
* **cold start** — open the saved segment store (checksums verified),
  ``BurstySearchEngine.from_store`` (documents materialise, posting
  columns stay memory-mapped), serve the identical workload.

Assertions: the two paths return byte-identical rankings (ids, score
float bits, tie order) for every query and strategy, and the cold
start is ≥ 10× faster than the rebuild (skipped under
``REPRO_BENCH_TINY=1``, where fixed costs dominate).  Timings and the
breakdown land in ``benchmarks/results/BENCH_store.json``.
"""

import os
import time

from conftest import TINY, persist_summary, report

from bench_columnar import build_ambient_corpus
from repro import BatchMiner, BurstySearchEngine, FrequencyTensor
from repro.store import open_store, save_search_index



ROUNDS = 1 if TINY else 3


def raw_records(collection):
    """Flatten a collection back to raw ingestable records, so the
    rebuild path pays realistic construction costs (stream registration
    plus per-document insertion), not a deep copy."""
    streams = [
        (sid, point.x, point.y) for sid, point in collection.locations().items()
    ]
    documents = [
        (d.doc_id, d.stream_id, d.timestamp, d.terms)
        for d in collection.documents()
    ]
    return streams, documents


def serve(engine, queries, k=10):
    rankings = []
    for query, strategy in queries:
        rankings.append(
            [
                (r.document.doc_id, r.score)
                for r in engine.search(query, k=k, strategy=strategy)
            ]
        )
    return rankings


def rebuild_engine(timeline, streams, documents):
    from repro import Document, Point, SpatiotemporalCollection

    collection = SpatiotemporalCollection(timeline=timeline)
    for sid, x, y in streams:
        collection.add_stream(sid, Point(x, y))
    for doc_id, sid, t, terms in documents:
        collection.add_document(Document(doc_id, sid, t, terms))
    tensor = FrequencyTensor(collection)
    mined = BatchMiner().mine_regional(
        tensor, sorted(tensor.terms), collection.locations()
    )
    return BurstySearchEngine(collection, mined)


def run_store_comparison(tmp_root):
    collection = build_ambient_corpus()
    streams, documents = raw_records(collection)
    terms = sorted(collection.vocabulary)
    queries = [(term, "auto") for term in terms[:12]]
    queries += [(" ".join(terms[:3]), s) for s in ("ta", "blockmax", "scan")]

    # Warm one rebuild (imports, allocator) and save its index.
    timeline = collection.timeline
    engine = rebuild_engine(timeline, streams, documents)
    store_path = os.path.join(tmp_root, "index")
    save_search_index(store_path, engine, "regional", terms=terms)

    rebuild_s = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        rebuilt = rebuild_engine(timeline, streams, documents)
        reference = serve(rebuilt, queries)
        rebuild_s.append(time.perf_counter() - start)

    cold_s = []
    breakdown = {}
    for round_index in range(ROUNDS):
        start = time.perf_counter()
        store = open_store(store_path)  # checksum-verified open
        opened = time.perf_counter()
        loaded = BurstySearchEngine.from_store(store)
        constructed = time.perf_counter()
        cold = serve(loaded, queries)
        finished = time.perf_counter()
        cold_s.append(finished - start)
        if round_index == 0:
            breakdown = {
                "open_verify_s": opened - start,
                "materialise_engine_s": constructed - opened,
                "first_queries_s": finished - constructed,
            }
        assert cold == reference, "loaded rankings diverge from rebuild"

    store = open_store(store_path)
    results = {
        "tiny": TINY,
        "streams": len(streams),
        "timeline": timeline,
        "terms": len(terms),
        "documents": collection.document_count,
        "queries": len(queries),
        "store_bytes": sum(e["size"] for e in store.files().values()),
        "store_files": len(store.files()),
        "rebuild_s": min(rebuild_s),
        "cold_start_s": min(cold_s),
        "speedup": min(rebuild_s) / max(min(cold_s), 1e-9),
        "cold_start_breakdown": breakdown,
        "identical": True,
    }
    return results


def test_store_cold_start(benchmark, tmp_path):
    results = benchmark.pedantic(
        run_store_comparison, args=(str(tmp_path),), rounds=1, iterations=1
    )

    lines = [
        "BENCH store: cold-start-from-disk vs full rebuild",
        f"  corpus: {results['documents']} documents, "
        f"{results['streams']} streams, {results['terms']} terms, "
        f"timeline {results['timeline']}",
        f"  store:  {results['store_files']} files, "
        f"{results['store_bytes'] / 1e6:.2f} MB",
        f"  rebuild (mine + precompute + serve) {results['rebuild_s']:8.3f}s",
        f"  cold start (open + load + serve)    {results['cold_start_s']:8.3f}s",
        f"  speedup {results['speedup']:.1f}x, rankings byte-identical: yes",
        "  cold-start breakdown: "
        + ", ".join(
            f"{key}={value:.3f}s"
            for key, value in results["cold_start_breakdown"].items()
        ),
    ]
    report("store", "\n".join(lines))
    persist_summary("store", results)

    assert results["identical"]
    if not TINY:
        assert results["speedup"] >= 10.0, (
            f"cold start only {results['speedup']:.1f}x faster than rebuild"
        )
