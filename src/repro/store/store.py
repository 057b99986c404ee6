"""Durable index stores: save, load, verify.

Three store *kinds*, all sharing the segment format of
:mod:`repro.store.format`:

* ``index`` — a complete serving snapshot: document/stream tables,
  mined patterns and per-term posting columns.
  :meth:`repro.search.BurstySearchEngine.from_store` cold-starts a
  query-ready engine from one of these without re-mining anything.
* ``patterns`` — mining output only (term → patterns): what
  ``BatchMiner.mine_*(save_to=...)`` writes, for pipelines that mine
  once and score elsewhere.
* ``live`` — a :class:`repro.live.LiveSearchEngine` checkpoint:
  arrival-ordered document table, per-term patterns, posting lists and
  versions, watermark and epoch — enough to resume ingestion and
  serving exactly where the saved engine stopped, without replaying
  the feed.

No kind stores tracker state: a restored engine rebuilds a term's
tracker from the documents on the term's first stale sync.  The
``trackers/`` segments older saves wrote are ignored.

``verify_store`` is the acceptance oracle behind ``repro load
--verify``: it cold-rebuilds the index from the store's own document
table and byte-compares patterns, posting columns (ids, float bits,
crc32 tiebreaks) and top-k rankings across every execution strategy.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    List,
    NoReturn,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.columnar.collection import DocumentColumns
from repro.errors import StoreCorruptionError, StoreError
from repro.store.format import SegmentReader, SegmentWriter
from repro.store.segments import (
    PostingSegment,
    decode_config,
    decode_patterns,
    encode_config,
    encode_patterns,
    encode_posting_lists,
    write_document_columns,
)

__all__ = [
    "load_patterns",
    "load_search_engine",
    "open_store",
    "save_patterns",
    "save_search_index",
    "verify_store",
]

StoreLike = Union[str, SegmentReader]


def open_store(
    path: StoreLike, mmap: bool = True, verify: bool = True
) -> SegmentReader:
    """Open a store directory (pass-through for an already-open reader)."""
    if isinstance(path, SegmentReader):
        return path
    return SegmentReader(path, mmap=mmap, verify=verify)


# ----------------------------------------------------------------------
# Pattern stores (BatchMiner.save_to)
# ----------------------------------------------------------------------
def save_patterns(
    path: str,
    patterns: Dict[str, Sequence],
    pattern_type: str,
    terms: Optional[Sequence[str]] = None,
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Persist a mining result."""
    writer = SegmentWriter(path)
    encode_patterns(writer, "patterns", patterns, pattern_type)
    meta = dict(metadata or {})
    meta["pattern_type"] = pattern_type
    meta["terms"] = list(terms) if terms is not None else list(patterns)
    # Legacy key: no tracker segment is written any more.
    meta["trackers"] = False
    writer.commit("patterns", meta)


def load_patterns(path: StoreLike, **open_kwargs) -> Dict[str, List]:
    """Load the term → patterns map of a ``patterns`` or ``index`` store."""
    store = open_store(path, **open_kwargs)
    _, patterns = decode_patterns(store, "patterns")
    return patterns


# ----------------------------------------------------------------------
# Full search-index stores
# ----------------------------------------------------------------------
def _encode_miner_config(pattern_type: str, config) -> Optional[Dict[str, Any]]:
    """Mining settings as manifest metadata (best effort).

    ``--verify`` must re-mine with the configuration the store was
    mined under, or a faithful store false-fails against a
    differently-tuned cold run.  Returns ``None`` when the
    configuration has no stable representation (custom baseline
    callables) — verification then falls back to defaults.
    """
    if config is None:
        return None
    if pattern_type == "combinatorial":
        return {
            "max_patterns": config.max_patterns,
            "min_interval_score": config.min_interval_score,
            "min_pattern_streams": config.min_pattern_streams,
        }
    try:
        return encode_config(config)
    except StoreError:
        return None


def _decode_miner(pattern_type: str, payload: Optional[Dict[str, Any]]):
    from repro.pipeline.batch import BatchMiner

    if payload is None:
        return BatchMiner()
    if pattern_type == "combinatorial":
        from repro.core.config import STCombConfig
        from repro.core.stcomb import STComb

        config = STCombConfig(
            max_patterns=payload["max_patterns"],
            min_interval_score=payload["min_interval_score"],
            min_pattern_streams=payload["min_pattern_streams"],
        )
        return BatchMiner(stcomb=STComb(config=config))
    from repro.core.stlocal import STLocal

    return BatchMiner(stlocal=STLocal(decode_config(payload)))


def _callable_fingerprint(fn) -> str:
    """Best-effort identity of a scoring callable for mismatch checks."""
    return "{}.{}".format(
        getattr(fn, "__module__", "?"),
        getattr(fn, "__qualname__", repr(fn)),
    )


def _check_scoring_fingerprints(store: SegmentReader, engine) -> None:
    """Reject engine/store pairs whose scoring callables diverge.

    Persisted posting scores embed the relevance/aggregate functions
    they were computed with; serving them (or merging newly scored
    documents into them) through different callables would silently
    mix two scoring models in one index.  Callables cannot be
    persisted, so the manifest records their module-qualified names and
    restore insists they match.
    """
    recorded = store.metadata.get("scoring")
    if not recorded:
        return
    current = {
        "relevance": _callable_fingerprint(engine.relevance),
        "aggregate": _callable_fingerprint(engine.aggregate),
    }
    if current != recorded:
        raise StoreError(
            f"store {store.path!r} was scored with "
            f"relevance={recorded['relevance']} / "
            f"aggregate={recorded['aggregate']}, but this engine uses "
            f"relevance={current['relevance']} / "
            f"aggregate={current['aggregate']} — construct the engine "
            "with the same scoring callables the store was saved with"
        )


def save_search_index(
    path: str,
    engine,
    pattern_type: str,
    terms: Optional[Sequence[str]] = None,
    miner_config=None,
    metadata: Optional[Dict[str, Any]] = None,
    codec: str = "raw",
) -> None:
    """Persist a complete :class:`BurstySearchEngine` serving snapshot.

    Args:
        path: Target directory (must be new or empty).
        engine: The engine to snapshot; its posting lists are
            precomputed first so the store captures every
            pattern-bearing term.
        pattern_type: ``"regional"`` or ``"combinatorial"``.
        terms: The term list that was *requested* for mining (defaults
            to the pattern-bearing terms); recorded so ``--verify`` can
            re-mine the same scope.
        miner_config: The :class:`STLocalConfig` / :class:`STCombConfig`
            the patterns were mined with; recorded so ``--verify``
            re-mines under the same settings (defaults assumed when
            omitted).
        metadata: Extra manifest metadata.
        codec: Posting-column layout — ``"raw"`` (plain
            ``<i8``/``<f8`` columns) or ``"packed"`` (block-compressed;
            see :mod:`repro.store.codec`).  Decoded postings are
            byte-identical either way.
    """
    engine.precompute()
    writer = SegmentWriter(path)
    collection = engine.collection
    write_document_columns(
        writer,
        "documents",
        collection.timeline,
        collection.locations(),
        collection.columnar().document_columns(),
    )
    patterns = {
        term: list(mined) for term, mined in engine._patterns.items() if mined
    }
    encode_patterns(writer, "patterns", patterns, pattern_type)
    lists = {
        term: engine._posting_list(term) for term in patterns
    }
    encode_posting_lists(writer, "postings", lists, codec=codec)
    meta = dict(metadata or {})
    meta["pattern_type"] = pattern_type
    meta["terms"] = list(terms) if terms is not None else list(patterns)
    meta["documents"] = collection.document_count
    meta["streams"] = len(collection.locations())
    if codec != "raw":
        # Raw manifests stay byte-identical to pre-codec stores.
        meta["codec"] = codec
    meta["miner_config"] = _encode_miner_config(pattern_type, miner_config)
    meta["scoring"] = {
        "relevance": _callable_fingerprint(engine.relevance),
        "aggregate": _callable_fingerprint(engine.aggregate),
    }
    # Legacy key: no tracker segment is written any more.
    meta["trackers"] = False
    writer.commit("index", meta)


#: Posting-column payload files degraded-mode serving can lose without
#: losing the store's structure: per-term damage inside any of these is
#: isolated by the per-term CRCs and quarantined at first touch.  The
#: skeleton files (``meta.json``, ``indptr.npy``, ``doc_table*``, the
#: shadow CSR) stay hard failures — without them no term can be trusted.
_DEGRADABLE_POSTING_FILES = frozenset(
    [
        "rows.npy",
        "scores.npy",
        "ties.npy",
        "rows_payload.npy",
        "rows_meta.npy",
        "rows_blocks.npy",
        "ties_payload.npy",
        "ties_meta.npy",
        "ties_blocks.npy",
        "scores_dict.npy",
        "scores_payload.npy",
        "scores_meta.npy",
        "scores_residual.npy",
        "scores_bounds.npy",
        "scores_blocks.npy",
    ]
)


def load_search_engine(path: StoreLike, **engine_kwargs):
    """Cold-start a :class:`BurstySearchEngine` from an ``index`` store.

    The document and stream tables are materialised (the engine hands
    real :class:`~repro.streams.Document` objects back to callers); the
    posting columns stay memory-mapped and are wrapped into
    :class:`~repro.columnar.postings.PostingArray` views lazily, per
    queried term.

    ``on_corruption`` selects the failure policy:

    * ``"fail"`` (default) — any checksum mismatch raises
      :class:`~repro.errors.StoreCorruptionError` (subject to the
      ``verify`` flag, as before);
    * ``"degrade"`` — damage confined to posting *payload* columns (or
      to the ``planner/model`` segment older stores may carry, which
      nothing reads) is survivable: every term is audited
      against its stored CRC on first touch, damaged terms are
      quarantined and reported, and serving continues over healthy
      terms.  Damage to structural segments (documents, patterns,
      posting skeletons) still raises — there is no safe subset to
      serve without them.
    """
    from repro.search.engine import BurstySearchEngine
    from repro.store.collection import (
        DocumentTable,
        LazyDocumentMap,
        LazyPatternMap,
        StoredCollection,
    )

    on_corruption = engine_kwargs.pop("on_corruption", "fail")
    if on_corruption not in ("fail", "degrade"):
        raise StoreError(
            f"unknown on_corruption policy {on_corruption!r}: expected "
            "'fail' or 'degrade'"
        )
    mmap = engine_kwargs.pop("mmap", True)
    verify = engine_kwargs.pop("verify", True)
    damage: Dict[str, str] = {}
    if on_corruption == "degrade":
        store = open_store(path, mmap=mmap, verify=False)
        damage = {
            name: verdict
            for name, verdict in store.checksum_report().items()
            if verdict != "ok"
        }
        hard = {
            name: verdict
            for name, verdict in damage.items()
            if not (
                name == "planner/model"
                or (
                    name.startswith("postings/")
                    and name.rsplit("/", 1)[1] in _DEGRADABLE_POSTING_FILES
                )
            )
        }
        if hard:
            name, verdict = sorted(hard.items())[0]
            raise StoreCorruptionError(
                f"cannot serve degraded from store {store.path!r}: "
                f"segment file {name!r} is structural, not a posting "
                f"payload ({verdict}) — run `repro repair --quarantine` "
                "or re-save the store"
            )
    else:
        store = open_store(path, mmap=mmap, verify=verify)
    if store.kind != "index":
        raise StoreError(
            f"store {store.path!r} is a {store.kind!r} store, not an "
            "'index' store — only full serving snapshots can cold-start "
            "an engine"
        )
    table = DocumentTable(store, "documents")
    engine = BurstySearchEngine(
        StoredCollection(table), {}, precompute=False, **engine_kwargs
    )
    _check_scoring_fingerprints(store, engine)
    # Serving a query materialises only its k result documents and the
    # queried terms' posting columns; the pattern map and the full
    # corpus inflate lazily, and only if something walks them.
    engine._patterns = LazyPatternMap(store, "patterns")
    segments = PostingSegment(store, "postings")
    if on_corruption == "degrade":
        # Audit every term at first touch: a mismatch quarantines that
        # term only, and the engine keeps serving the healthy ones.
        segments.verify_terms = True
        engine._on_corruption = "degrade"
    engine._segments = segments
    engine._doc_map = LazyDocumentMap(table)
    return engine


# ----------------------------------------------------------------------
# Verification (repro load --verify)
# ----------------------------------------------------------------------
def _ranking(results) -> List:
    return [(r.document.doc_id, r.score) for r in results]


def _bits(array) -> bytes:
    return np.ascontiguousarray(np.asarray(array)).tobytes()


def verify_store(path: StoreLike, k: int = 10) -> List[str]:
    """Byte-compare a store against a cold rebuild of its own corpus.

    For ``index`` stores: re-mines the stored term scope from the
    reloaded collection, rebuilds a fresh engine, and asserts stored
    patterns, posting columns (doc ids, score float bits, crc32
    tiebreak order) and per-strategy top-k rankings are all identical.
    For ``live`` stores: restores the checkpoint and compares its
    serving output against a cold batch rebuild, mirroring
    ``repro ingest --verify``.

    Returns:
        Human-readable check lines.

    Raises:
        StoreError: on the first divergence.
    """
    store = open_store(path)
    if store.kind == "live":
        return _verify_live_store(store, k)
    if store.kind != "index":
        raise StoreError(
            f"store {store.path!r} is a {store.kind!r} store; --verify "
            "supports 'index' and 'live' stores"
        )

    from repro.search.engine import BurstySearchEngine

    checks: List[str] = []
    engine = load_search_engine(store)
    collection = engine.collection
    terms: List[str] = list(store.metadata.get("terms", []))
    pattern_type = store.metadata.get("pattern_type", "regional")
    # Re-mine under the configuration the store was mined with — a
    # faithful store must not false-fail against differently-tuned
    # defaults.
    miner = _decode_miner(pattern_type, store.metadata.get("miner_config"))
    if pattern_type == "regional":
        mined = miner.mine_regional(collection, terms)
    else:
        mined = miner.mine_combinatorial(collection, terms)
    stored_patterns = {
        term: list(mined_patterns)
        for term, mined_patterns in engine._patterns.items()
        if mined_patterns
    }
    if stored_patterns != mined:
        diverging = sorted(
            term
            for term in set(stored_patterns) | set(mined)
            if stored_patterns.get(term) != mined.get(term)
        )
        raise StoreError(
            f"stored patterns diverge from a cold re-mine for terms "
            f"{diverging[:5]} — the store does not match its own corpus"
        )
    checks.append(
        f"patterns: {sum(len(p) for p in mined.values())} across "
        f"{len(mined)} term(s) identical to cold re-mine"
    )

    cold = BurstySearchEngine(collection, mined)
    segment = engine._segments
    for term in segment.terms:
        ids, scores, ties = segment.columns(term)
        cold_list = cold._posting_list(term)
        cold_ids, cold_scores, cold_ties = cold_list.columns()
        if (
            ids != list(cold_ids)
            or _bits(scores) != _bits(cold_scores)
            or _bits(ties) != _bits(cold_ties)
        ):
            raise StoreError(
                f"posting columns for term {term!r} diverge from a cold "
                "rebuild (ids, score bits or tiebreak order)"
            )
    checks.append(
        f"postings: {len(segment.terms)} term column(s) byte-identical "
        "to cold rebuild"
    )

    queries = list(segment.terms[:8])
    if len(segment.terms) >= 2:
        queries.append(" ".join(segment.terms[:2]))
    for query in queries:
        for strategy in ("ta", "blockmax", "scan"):
            loaded = _ranking(engine.search(query, k=k, strategy=strategy))
            rebuilt = _ranking(cold.search(query, k=k, strategy=strategy))
            if loaded != rebuilt:
                raise StoreError(
                    f"top-{k} ranking for query {query!r} under strategy "
                    f"{strategy!r} diverges between the loaded store and "
                    "a cold rebuild"
                )
    checks.append(
        f"top-{k}: {len(queries)} query(ies) x 3 strategies byte-identical"
    )
    return checks


def _verify_live_store(store: SegmentReader, k: int) -> List[str]:
    from repro.core.stlocal import STLocal
    from repro.live.engine import LiveSearchEngine
    from repro.pipeline.batch import BatchMiner
    from repro.search.engine import BurstySearchEngine
    from repro.streams.collection import SpatiotemporalCollection

    engine = LiveSearchEngine.from_checkpoint(store)
    live = engine.live
    cold = SpatiotemporalCollection(live.timeline)
    for sid, point in live.locations().items():
        cold.add_stream(sid, point)
    for document in live.ingested_documents():
        cold.add_document(document)
    # Cold-mine under the checkpoint's own STLocal settings (restore
    # just decoded them into engine.config).
    mined = BatchMiner(stlocal=STLocal(engine.config)).mine_regional(cold)
    batch_engine = BurstySearchEngine(cold, mined)
    terms = [
        state["term"] for state in store.json("live/meta.json")["states"]
    ] or sorted(live.vocabulary)
    checks: List[str] = []
    for term in terms:
        lively = _ranking(engine.search(term, k=k))
        coldly = _ranking(batch_engine.search(term, k=k))
        if lively != coldly:
            raise StoreError(
                f"restored live top-{k} for {term!r} diverges from a cold "
                "batch rebuild"
            )
    checks.append(
        f"live checkpoint: top-{k} for {len(terms)} term(s) identical to "
        "cold batch rebuild"
    )
    return checks


# ----------------------------------------------------------------------
# Live checkpoints
# ----------------------------------------------------------------------
def save_live_checkpoint(path: str, engine, codec: str = "raw") -> None:
    """Persist a :class:`LiveSearchEngine` checkpoint (see module doc)."""
    live = engine.live
    config = engine.config
    if config is None:
        from repro.core.config import STLocalConfig

        config = STLocalConfig()
    config_payload = encode_config(config)

    writer = SegmentWriter(path)
    write_document_columns(
        writer,
        "documents",
        live.timeline,
        live.locations(),
        live.document_columns(),
    )
    states = engine._states
    patterns = {term: list(state.patterns) for term, state in states.items()}
    encode_patterns(writer, "patterns", patterns, "regional")
    encode_posting_lists(writer, "postings", engine.postings, codec=codec)
    writer.add_json(
        "live/meta.json",
        {
            "watermark": live.watermark,
            "epoch": live.epoch,
            "config": config_payload,
            "states": [
                {"term": term, "version": state.version}
                for term, state in states.items()
            ],
        },
    )
    writer.commit(
        "live",
        {
            "documents": live.document_count,
            "streams": len(live.locations()),
            "watermark": live.watermark,
            "epoch": live.epoch,
            "terms": list(states),
            "scoring": {
                "relevance": _callable_fingerprint(engine.relevance),
                "aggregate": _callable_fingerprint(engine.aggregate),
            },
        },
    )


def _check_live_columns(
    store: SegmentReader,
    timeline: int,
    streams: int,
    columns: DocumentColumns,
    watermark: int,
) -> None:
    """Refuse a checkpoint whose document columns contradict each other.

    Restore adopts the columns without re-ingesting a document, so
    every invariant ingest would have enforced is checked here, one
    vectorised pass per column: offsets and codes in range, timestamps
    inside the timeline and in arrival (non-decreasing) order, unique
    document ids, and a watermark at or past the last document.  Order
    is checked by comparing neighbours, never by ``np.diff``, which
    wraps instead of going negative on the unsigned columns of a v3
    store.

    Raises:
        StoreCorruptionError: naming the offending file.
    """

    def refuse(name: str, problem: str) -> NoReturn:
        raise StoreCorruptionError(
            f"live checkpoint {store.path!r}: {name} {problem}"
        )

    rows = len(columns.doc_ids)
    indptr = np.asarray(columns.term_indptr)
    codes = np.asarray(columns.term_codes)
    counts = np.asarray(columns.term_counts)
    timestamps = np.asarray(columns.timestamps)
    stream_codes = np.asarray(columns.stream_codes)
    terms = len(columns.vocabulary)
    if timeline < 1:
        refuse("documents/meta.json", f"has timeline {timeline}")
    if len(timestamps) != rows or len(stream_codes) != rows:
        refuse("documents/", f"columns disagree on {rows} document rows")
    if (
        len(indptr) != rows + 1
        or indptr[0] != 0
        or indptr[-1] != len(codes)
        or (indptr[1:] < indptr[:-1]).any()
    ):
        refuse(
            "documents/term_indptr.npy",
            "is not a non-decreasing offset column over term_codes",
        )
    if len(counts) != len(codes):
        refuse("documents/term_counts.npy", "is not parallel to term_codes")
    if len(codes) and (codes.min() < 0 or codes.max() >= terms):
        refuse(
            "documents/term_codes.npy",
            f"holds a code outside the vocabulary [0, {terms})",
        )
    if len(counts) and counts.min() < 1:
        refuse("documents/term_counts.npy", "holds a count below 1")
    if len(set(columns.vocabulary)) != terms:
        refuse("documents/meta.json", "lists a vocabulary term twice")
    if rows and (stream_codes.min() < 0 or stream_codes.max() >= streams):
        refuse(
            "documents/stream_codes.npy",
            f"holds a code outside the stream table [0, {streams})",
        )
    if rows and (timestamps.min() < 0 or timestamps.max() >= timeline):
        refuse(
            "documents/timestamps.npy",
            f"holds a timestamp outside the timeline [0, {timeline})",
        )
    if (timestamps[1:] < timestamps[:-1]).any():
        refuse(
            "documents/timestamps.npy",
            "decreases, but a checkpoint stores documents in arrival order",
        )
    if len(set(columns.doc_ids)) != rows:
        ids = "documents/doc_ids.npy"
        if not store.has(ids):
            ids = "documents/doc_ids.json"
        refuse(ids, "repeats a document id")
    last = int(timestamps[-1]) if rows else -1
    if not last <= watermark < timeline:
        refuse(
            "live/meta.json",
            f"has watermark {watermark}, outside [{last}, {timeline})",
        )


def restore_live_checkpoint(path: StoreLike, engine) -> None:
    """Load a ``live`` checkpoint into an existing engine (in place).

    Replaces the engine's collection, posting lists and per-term sync
    state with the persisted snapshot.  The collection adopts the
    stored ``documents/`` columns in bulk — no document is re-ingested,
    and a stored row becomes a :class:`~repro.streams.Document` only
    when a caller asks for it — after one vectorised consistency check
    of the columns (:class:`~repro.errors.StoreCorruptionError` on any
    contradiction).  Each term's patterns stay in the stored segment
    until first read (:class:`~repro.store.collection.LazyPatternMap`:
    ``patterns_for`` or a re-checkpoint decodes them, a stale sync
    re-mines without them).  Restore then starts a fresh tracker feeder (each
    term's tracker is rebuilt from the documents on its first stale
    sync), resets the serving statistics and clears the result cache —
    counters and cached rankings describe the *previous* backing index,
    and surviving a restore would report stale hit-rates for an index
    they never measured.  What older checkpoints wrote and this version
    no longer reads — a ``trackers/`` segment, ``live/meta.json`` keys
    such as ``doc_cursor`` — is ignored.
    """
    from repro.live.collection import LiveCollection
    from repro.live.engine import _TermState, ServingStats
    from repro.store.collection import DocumentTable, LazyPatternMap

    store = open_store(path)
    if store.kind != "live":
        raise StoreError(
            f"store {store.path!r} is a {store.kind!r} store, not a "
            "'live' checkpoint"
        )
    # Persisted posting lists embed the checkpoint engine's scoring
    # callables; merging in postings scored by different ones would mix
    # two scoring models in one list.
    _check_scoring_fingerprints(store, engine)
    live_meta = store.json("live/meta.json")
    watermark = int(live_meta["watermark"])
    table = DocumentTable(store, "documents")
    columns = table.columns()
    _check_live_columns(
        store, table.timeline, len(table.locations), columns, watermark
    )
    live = LiveCollection.from_columns(
        table.timeline, table.locations, columns, table.document_at
    )
    if watermark > live.watermark:
        live.advance_to(watermark)
    # The epoch counts every historical mutation (including empty
    # advance ticks the document table cannot reproduce); restore the
    # persisted value so cache keys continue the same sequence.
    live._epoch = int(live_meta["epoch"])

    config = decode_config(live_meta["config"])
    if engine.config is not None:
        if encode_config(engine.config) != live_meta["config"]:
            raise StoreError(
                "checkpoint was written with different STLocal settings "
                "than this engine's config — construct the engine with a "
                "matching config (or config=None) before restoring"
            )
    engine.config = config

    segment = PostingSegment(store, "postings")
    postings = {term: segment.posting_array(term) for term in segment.terms}

    patterns = LazyPatternMap(store, "patterns")
    states = {}
    for state in live_meta["states"]:
        term = state["term"]
        states[term] = _TermState(
            patterns=patterns.term_patterns(term),
            version=int(state["version"]),
        )

    engine.live = live
    engine._feeder = None  # rebuilt for the restored streams on first use
    engine.postings = postings
    engine._states = states
    engine._cache.clear()
    engine.stats = ServingStats()
