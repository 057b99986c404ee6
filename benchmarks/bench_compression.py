"""Compressed posting columns + interval containment — the perf gates.

Four claims from the packed-codec work, each measured on the ambient
(Topix-shaped) corpus and asserted here:

* **size** — the packed codec's posting columns (delta/frame-of-
  reference bit-packed rows and tiebreaks, dictionary-coded scores with
  exact residuals) are ≥ 3× smaller per posting than the raw ``<i8`` /
  ``<f8`` columns.  Only the codec-affected files count: the shared
  doc-id table, CSR indptr and shadow columns are byte-identical
  between codecs and would only dilute the ratio.
* **cold start** — opening the packed store and serving the query
  workload is no slower than 1.1× the raw store: block-lazy decode
  means compression is not paid for with start-up latency.
* **fidelity** — rankings (document ids, float score bits, tiebreak
  order) are byte-identical across raw/packed × mmap/eager × every
  strategy, and match the freshly-mined engine.
* **containment** — :class:`~repro.spatial.index.IntervalSpatialIndex`
  (two binary searches per Morton window over a sorted label column)
  answers rectangle queries ≥ 2× faster than the legacy bucket-walking
  :class:`~repro.spatial.index.SpatialIndex` at the Figure-8-scale
  stream count, returning the same streams.

A structural laziness probe runs regardless of scale: after one
block-max query against a fresh packed engine, the segment must have
decoded strictly fewer score blocks than the store holds.

Wall-clock gates are skipped under ``REPRO_BENCH_TINY=1`` (fixed costs
dominate); ``REPRO_FULL=1`` scales the corpus to ~10× the default
benches.  The summary lands in ``BENCH_compression.json`` (results/
and the committed repo-root copy).
"""

import gc
import os
import time

import numpy as np

from conftest import TINY, persist_summary, report

from bench_columnar import build_ambient_corpus
from repro import BatchMiner, BurstySearchEngine, FrequencyTensor
from repro.spatial.geometry import Point, Rectangle
from repro.spatial.index import IntervalSpatialIndex, SpatialIndex
from repro.store import open_store, save_search_index

FULL = os.environ.get("REPRO_FULL", "") == "1"

ROUNDS = 1 if TINY else 3
#: Cold start is a ~30ms end-to-end path whose best-of must beat a
#: 1.1x ratio gate; give it more rounds than the coarse timings so one
#: scheduler hiccup on either side cannot decide the comparison.
COLD_ROUNDS = 1 if TINY else 20

if FULL:  # ~10x the default bench corpus
    CORPUS = {"n_streams": 324, "timeline": 720, "n_terms": 240}
elif TINY:
    CORPUS = {"n_streams": 64, "timeline": 96, "n_terms": 8}
else:
    CORPUS = {"n_streams": 144, "timeline": 360, "n_terms": 48}

N_POINTS = 400 if TINY else (32768 if FULL else 16384)
N_RECTANGLES = 24 if TINY else 96

#: postings/ files the codec does *not* touch (identical across
#: codecs): the shared doc-id table, the CSR indptr, the JSON meta and
#: the raw shadow CSR of pruned lists.
_SHARED_LEAVES = ("doc_table", "indptr", "meta", "shadow_")


def posting_column_bytes(store):
    """On-disk bytes of the codec-affected posting columns."""
    total = 0
    for name, entry in store.files().items():
        prefix, _, leaf = name.partition("/")
        if prefix != "postings" or leaf.startswith(_SHARED_LEAVES):
            continue
        total += entry["size"]
    return total


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


def timed_cold_start(paths, queries, rounds):
    """Best-of-``rounds`` cold start per codec, rounds interleaved.

    Alternating codecs within each round pairs their measurements
    under the same scheduler/cache conditions, so transient load skews
    both sides rather than deciding the ratio.  The freshly-mined
    corpus (tens of thousands of document objects) is still live on
    the heap here; it is frozen out of cyclic GC so collection passes
    triggered by the serve path's allocations don't spend their time
    walking that ambient heap.
    """
    gc.collect()
    gc.freeze()
    try:
        best = {}
        reference = None
        for _ in range(rounds):
            for codec, path in paths.items():
                started = time.perf_counter()
                store = open_store(path)
                engine = BurstySearchEngine.from_store(store)
                rankings = serve(engine, queries)
                elapsed = time.perf_counter() - started
                if codec not in best or elapsed < best[codec]:
                    best[codec] = elapsed
                if reference is None:
                    reference = rankings
                else:
                    assert rankings == reference
    finally:
        gc.unfreeze()
    return best


def store_comparison(tmp_root):
    collection = build_ambient_corpus(**CORPUS)
    tensor = FrequencyTensor(collection)
    terms = sorted(tensor.terms)
    started = time.perf_counter()
    mined = BatchMiner().mine_regional(tensor, terms, collection.locations())
    mining_s = time.perf_counter() - started
    engine = BurstySearchEngine(collection, mined)

    queries = [(term, "auto") for term in terms[:12]]
    queries += [(" ".join(terms[:3]), s) for s in ("ta", "blockmax", "scan")]
    reference = serve(engine, queries)

    paths = {}
    for codec in ("raw", "packed"):
        paths[codec] = os.path.join(tmp_root, codec)
        save_search_index(paths[codec], engine, "regional", terms=terms, codec=codec)

    sizes = {}
    entries = None
    for codec in ("raw", "packed"):
        store = open_store(paths[codec])
        n_entries = int(store.array("postings/indptr.npy")[-1])
        if entries is None:
            entries = n_entries
        assert n_entries == entries  # same postings either way
        sizes[codec] = posting_column_bytes(store)

    # Fidelity: every (codec, mmap) combination serves rankings
    # byte-identical to the freshly-mined engine — ids, float score
    # bits and crc32 tiebreak order alike (repr round-trips floats).
    for codec in ("raw", "packed"):
        for use_mmap in (True, False):
            loaded = BurstySearchEngine.from_store(paths[codec], mmap=use_mmap)
            assert repr(serve(loaded, queries)) == repr(reference), (
                codec,
                use_mmap,
            )

    cold_s = timed_cold_start(paths, queries, COLD_ROUNDS)

    # Structural laziness: one block-max query on a fresh packed engine
    # must leave most of the store's score blocks untouched (untouched
    # terms never decode; touched lists stop at the TA frontier).
    lazy_engine = BurstySearchEngine.from_store(paths["packed"])
    lazy_engine.search(" ".join(terms[:3]), k=10, strategy="blockmax")
    scores_packed = lazy_engine._segments._scores_packed
    blocks_decoded = scores_packed.blocks_decoded
    blocks_total = int(scores_packed._block_indptr[-1])
    assert blocks_decoded < blocks_total, (blocks_decoded, blocks_total)

    return {
        "corpus": dict(CORPUS, documents=collection.document_count),
        "mining_sweep_s": mining_s,
        "posting_entries": entries,
        "posting_column_bytes": sizes,
        "bytes_per_posting": {
            codec: size / max(entries, 1) for codec, size in sizes.items()
        },
        "compression_ratio": sizes["raw"] / max(sizes["packed"], 1),
        "cold_start_s": cold_s,
        "cold_start_overhead": cold_s["packed"] / max(cold_s["raw"], 1e-9),
        "score_blocks_decoded": blocks_decoded,
        "score_blocks_total": blocks_total,
        "queries": len(queries),
        "identical": True,
    }


def build_point_cloud(n_points, seed=29):
    """Clustered stream locations (Figure 8's synthetic map shape)."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1000.0, size=(max(8, n_points // 256), 2))
    picks = rng.integers(0, len(centers), size=n_points)
    coords = centers[picks] + rng.normal(0.0, 18.0, size=(n_points, 2))
    return [
        (f"s{i:05d}", Point(float(x), float(y)))
        for i, (x, y) in enumerate(coords)
    ]


def build_rectangles(points, n_rectangles, seed=31):
    """Query rectangles spanning small cells to near-global extents."""
    rng = np.random.default_rng(seed)
    xs = np.asarray([p.x for _, p in points])
    ys = np.asarray([p.y for _, p in points])
    span_x = float(xs.max() - xs.min()) or 1.0
    span_y = float(ys.max() - ys.min()) or 1.0
    rectangles = []
    for index in range(n_rectangles):
        frac = 0.01 * (2.0 ** (index % 7))  # 1% .. 64% of the extent
        cx = rng.uniform(xs.min(), xs.max())
        cy = rng.uniform(ys.min(), ys.max())
        half_w = 0.5 * frac * span_x
        half_h = 0.5 * frac * span_y
        rectangles.append(
            Rectangle(cx - half_w, cy - half_h, cx + half_w, cy + half_h)
        )
    return rectangles


def containment_comparison():
    points = build_point_cloud(N_POINTS)
    rectangles = build_rectangles(points, N_RECTANGLES)
    legacy = SpatialIndex(points)
    interval = IntervalSpatialIndex(points)

    # Same streams from both indexes, for every rectangle.
    matched = 0
    for rectangle in rectangles:
        expected = sorted(legacy.query_rectangle(rectangle))
        assert sorted(interval.query_rectangle(rectangle)) == expected
        matched += len(expected)

    timings = {}
    for name, index in (("set_membership", legacy), ("interval", interval)):
        best = None
        for _ in range(ROUNDS):
            started = time.perf_counter()
            for rectangle in rectangles:
                index.query_rectangle(rectangle)
            elapsed = time.perf_counter() - started
            if best is None or elapsed < best:
                best = elapsed
            if os.environ.get("DBG"):
                print(f"{path.rsplit('/',1)[-1]} round {elapsed*1000:.1f}ms", flush=True)
        timings[name] = best

    return {
        "streams": len(points),
        "rectangles": len(rectangles),
        "matches": matched,
        "set_membership_s": timings["set_membership"],
        "interval_s": timings["interval"],
        "speedup": timings["set_membership"] / max(timings["interval"], 1e-9),
        "identical": True,
    }


def test_compression_and_containment(benchmark, tmp_path):
    def run():
        return {
            "tiny": TINY,
            "full": FULL,
            "store": store_comparison(str(tmp_path)),
            "containment": containment_comparison(),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    store = results["store"]
    containment = results["containment"]
    lines = [
        "BENCH compression: packed posting columns + interval containment",
        f"  corpus: {store['corpus']['documents']} documents, "
        f"{store['corpus']['n_terms']} terms, "
        f"{store['posting_entries']} postings "
        f"(mining sweep {store['mining_sweep_s']:.3f}s)",
        f"  posting columns: raw "
        f"{store['bytes_per_posting']['raw']:.2f} B/posting, packed "
        f"{store['bytes_per_posting']['packed']:.2f} B/posting "
        f"({store['compression_ratio']:.2f}x smaller)",
        f"  cold start: raw {store['cold_start_s']['raw']:.3f}s, packed "
        f"{store['cold_start_s']['packed']:.3f}s "
        f"({store['cold_start_overhead']:.2f}x)",
        f"  laziness: {store['score_blocks_decoded']} of "
        f"{store['score_blocks_total']} score blocks decoded by one "
        "block-max query",
        f"  containment: {containment['streams']} streams, "
        f"{containment['rectangles']} rectangles — set-membership "
        f"{containment['set_membership_s']:.3f}s, interval "
        f"{containment['interval_s']:.3f}s "
        f"({containment['speedup']:.2f}x)",
        "  rankings and containment results byte-identical: yes",
    ]
    report("compression", "\n".join(lines))
    persist_summary("compression", results)

    assert store["identical"] and containment["identical"]
    if TINY:
        return  # fixed costs dominate at smoke sizes; parity checked above
    # Headline gates (measured ≈4.3x size, ≈1.0x cold start, >2x
    # containment; floors leave headroom for noisy shared runners).
    assert store["compression_ratio"] >= 3.0, store["compression_ratio"]
    assert store["cold_start_overhead"] <= 1.1, store["cold_start_overhead"]
    assert containment["speedup"] >= 2.0, containment["speedup"]
