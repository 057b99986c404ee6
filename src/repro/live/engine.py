"""Live bursty-document search over a continuously-ingesting collection.

:class:`LiveSearchEngine` is the serving-path counterpart of the static
:class:`~repro.search.engine.BurstySearchEngine`: same scoring model
(Eq. 10/11 — relevance × aggregated overlapping-pattern burstiness,
top-k via the Threshold Algorithm), but every derived structure is
maintained incrementally:

* **patterns** are lazily re-mined per term through an
  :class:`~repro.pipeline.incremental.IncrementalFeeder` — a term's
  first sync builds its durable
  :class:`~repro.core.stlocal.STLocalTermTracker` with the batch
  miner's columnar sweep, later syncs sweep the newly sealed
  snapshots into it, and the open snapshot is previewed on a fork;
* **posting lists** are one columnar
  :class:`~repro.columnar.postings.PostingArray` per term, rebuilt
  whenever the term is stale by the same vectorised Eq. 10/11 kernel
  the batch engine uses
  (:func:`~repro.columnar.scoring.columnar_postings`), over the
  per-term columns the collection appends on ingest; custom relevance
  or aggregate callables fall back to
  :func:`~repro.search.engine.score_posting`;
* **consistency** is tracked per term with
  :meth:`~repro.live.collection.LiveCollection.term_version`: a term's
  cached state is provably current unless a document *containing the
  term* arrived, because documents without it cannot move the term's
  snapshots, patterns or postings;
* **results** are memoised in a bounded LRU keyed on
  ``(query terms, k, epoch)`` — any ingest bumps the epoch, so a stale
  entry can never be served, and old-epoch entries age out of the
  bounded cache.

Every answer is byte-identical to rebuilding a fresh collection, batch
mining it, and querying a static engine — the differential harness in
``tests/test_live_differential.py`` is the acceptance oracle.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.columnar.postings import PostingArray
from repro.columnar.scoring import columnar_postings, vectorizable_relevance
from repro.core.config import STLocalConfig
from repro.core.patterns import RegionalPattern
from repro.errors import SearchError
from repro.live.collection import LiveCollection
from repro.pipeline.incremental import IncrementalFeeder
from repro.search.engine import SearchResult, _default_aggregate, score_posting
from repro.search.relevance import RelevanceFunction, log_relevance
from repro.search.threshold_algorithm import positive_k
from repro.search.topk import STRATEGIES, normalize_query_terms, topk
from repro.streams.document import tokenize

__all__ = ["LiveSearchEngine", "ServingStats"]


@dataclasses.dataclass
class ServingStats:
    """Serving-path counters (observability for the live layer).

    Attributes:
        cache_hits: Queries answered from the LRU result cache.
        cache_misses: Queries that ran the Threshold Algorithm.
        rebuilds: Per-term syncs: re-mine and rescore a stale term.
        delta_updates: Always 0 — every stale sync rebuilds; the field
            stays for readers of the serving counters.
        served_current: Terms served from an already-current state.
    """

    cache_hits: int = 0
    cache_misses: int = 0
    rebuilds: int = 0
    delta_updates: int = 0
    served_current: int = 0


@dataclasses.dataclass
class _TermState:
    """Per-term sync point between collection, patterns and postings.

    A restored term's patterns are a view of the checkpoint's
    ``patterns/`` segment, decoded when first read.
    """

    patterns: Sequence[RegionalPattern]
    version: int  # LiveCollection.term_version at last sync


class LiveSearchEngine:
    """Incrementally-maintained top-k serving over regional patterns.

    Args:
        live: The ingesting collection to serve from.
        relevance: Per-term relevance function (default log).
        aggregate: Aggregation of overlapping-pattern scores (default
            max, the paper's best setting).
        config: STLocal settings for the live miners.
        cache_size: Capacity of the LRU result cache.
        strategy: Default top-k execution strategy (``auto`` runs
            ``scan``; see :mod:`repro.search.topk`).  Strategies are
            byte-identical in output, so the result cache is shared
            across them.
    """

    def __init__(
        self,
        live: LiveCollection,
        relevance: RelevanceFunction = log_relevance,
        aggregate: Callable[[Sequence[float]], float] = _default_aggregate,
        config: Optional[STLocalConfig] = None,
        cache_size: int = 128,
        strategy: str = "auto",
    ) -> None:
        if cache_size < 1:
            raise SearchError("cache_size must be >= 1")
        if strategy not in STRATEGIES:
            raise SearchError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        self.strategy = strategy
        self.live = live
        self.relevance = relevance
        self.aggregate = aggregate
        self.config = config
        self._feeder: Optional[IncrementalFeeder] = None
        self.postings: Dict[str, PostingArray] = {}
        self.stats = ServingStats()
        self._states: Dict[str, _TermState] = {}
        self._cache: "OrderedDict[Tuple, List[SearchResult]]" = OrderedDict()
        self._cache_size = cache_size

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def search(
        self, query: str, k: int = 10, strategy: Optional[str] = None
    ) -> List[SearchResult]:
        """Top-k bursty documents for a text query, served live.

        Query terms are normalised (deduplicated, sorted) before both
        the posting-list lookup and the LRU cache key, so a repeated
        term is never double-counted and ``"a b"`` / ``"b a"`` /
        ``"a a b"`` share one cache entry.  The key deliberately omits
        the strategy — every strategy returns the identical ranking.

        The returned list is always a fresh copy, and the
        :class:`~repro.search.engine.SearchResult` /
        :class:`~repro.streams.document.Document` elements are frozen
        dataclasses: callers can sort, slice or drop entries — and
        cannot rebind result fields — without corrupting the LRU cache
        that later hits are served from.  This is a regression-tested
        contract (``tests/test_live.py``).

        Raises:
            SearchError: on an empty query, a ``k`` that is not a
                positive integer, or an unknown strategy.
        """
        if strategy is not None and strategy not in STRATEGIES:
            # Validated before the cache lookup: a typoed strategy must
            # fail identically whether or not the query is cached.
            raise SearchError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        # So is k: a cache hit must not serve k=3.0 (which hashes like
        # k=3) where a miss would refuse it.
        k = positive_k(k)
        terms = normalize_query_terms(tokenize(query))
        if not terms:
            raise SearchError("empty query")
        key = (terms, k, self.live.epoch)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.stats.cache_hits += 1
            return list(cached)
        self.stats.cache_misses += 1
        lists = [self._term_list(term) for term in terms]
        ranked, _ = topk(lists, k, strategy or self.strategy)
        results = [
            SearchResult(
                document=self.live.document(result.doc_id), score=result.score
            )
            for result in ranked
        ]
        self._cache[key] = results
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return list(results)

    def patterns_for(self, term: str) -> List[RegionalPattern]:
        """The term's current regional patterns (re-mined if stale)."""
        self._sync_term(term)
        return list(self._states[term].patterns)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self, path: str, codec: str = "raw") -> None:
        """Persist this engine's full serving state as a ``live`` store.

        Captures the arrival-ordered document table, every synced
        term's patterns, posting list and version, and the collection's
        watermark and epoch — everything :meth:`restore` needs to
        resume ingestion and serving without replaying the feed.  The
        durable trackers are not written: a restored engine rebuilds a
        term's tracker from the stored documents, with the columnar
        sweep, on the term's first stale sync.

        ``codec`` picks the posting-column layout (``"raw"`` or
        ``"packed"``), exactly as ``repro save --codec`` does for index
        stores; restore is codec-agnostic.

        Raises:
            StoreError: when the target directory is not empty, or the
                engine state has no stable binary encoding (custom
                expectation models).
        """
        from repro.store import save_live_checkpoint

        save_live_checkpoint(path, self, codec=codec)

    def restore(self, path: str) -> None:
        """Replace this engine's state with a persisted checkpoint.

        The backing index identity changes wholesale, so the serving
        statistics are reset and the result cache cleared: counters
        carried across a restore would report hit-rates for an index
        they never measured.

        Raises:
            StoreError: for a missing/corrupted store, a non-``live``
                store, or STLocal settings that contradict this
                engine's ``config``.
        """
        from repro.store import restore_live_checkpoint

        restore_live_checkpoint(path, self)

    @classmethod
    def from_checkpoint(cls, path, **engine_kwargs) -> "LiveSearchEngine":
        """Construct an engine directly from a ``live`` checkpoint.

        Accepts the constructor's keyword arguments except ``live``
        (the collection is rebuilt from the checkpoint).
        """
        engine = cls(LiveCollection(1), **engine_kwargs)
        engine.restore(path)
        return engine

    @property
    def cached_queries(self) -> int:
        """Entries currently held by the LRU result cache."""
        return len(self._cache)

    @property
    def feeder(self) -> IncrementalFeeder:
        """The per-term tracker feeder, bound to the final stream set.

        Streams are frozen once ingestion starts, so the feeder is
        (re)created while the collection is still empty and stable from
        the first ingest on — discarding a pre-ingest feeder loses
        nothing, its trackers can only ever have seen empty prefixes.
        """
        if self._feeder is None or len(self._feeder.locations) != len(self.live):
            # A length mismatch proves the feeder predates stream
            # registration (streams freeze at the first ingest), so its
            # trackers can only have seen empty prefixes.
            self._feeder = IncrementalFeeder(self.live.locations(), self.config)
        return self._feeder

    # ------------------------------------------------------------------
    # Per-term maintenance
    # ------------------------------------------------------------------
    def _term_list(self, term: str) -> PostingArray:
        self._sync_term(term)
        return self.postings[term]

    def _sync_term(self, term: str) -> None:
        """Bring one term's patterns + postings up to the current epoch."""
        state = self._states.get(term)
        version = self.live.term_version(term)
        if state is not None and state.version == version:
            self.stats.served_current += 1
            return

        patterns = self._mine(term)
        self.postings[term] = self._score(term, patterns)
        self._states[term] = _TermState(patterns=patterns, version=version)
        self.stats.rebuilds += 1

    def _mine(self, term: str) -> List[RegionalPattern]:
        return self.feeder.mine_term(
            term,
            self.live.term_snapshots(term),
            sealed=self.live.sealed,
            through=self.live.watermark + 1,
        )

    def _score(
        self, term: str, patterns: Sequence[RegionalPattern]
    ) -> PostingArray:
        """Eq. 10/11 postings of every document containing the term."""
        if not patterns:
            return PostingArray([], [])
        if self.aggregate is _default_aggregate and vectorizable_relevance(
            self.relevance
        ):
            scored = columnar_postings(
                self.live.term_columns(term), patterns, self.relevance
            )
            if scored is not None:
                return scored
        postings = [
            score_posting(
                document, term, patterns, self.relevance, self.aggregate
            )
            for document in self.live.documents_with(term)
        ]
        return PostingArray.from_postings(
            [posting for posting in postings if posting is not None]
        )
