"""Bursty-document search engines (Section 5).

``score(q, d) = Σ_{t∈q} relevance(d, t) × burstiness(d, t)``  (Eq. 10)

where ``burstiness(d, t)`` is an aggregate (max by default — the
paper's best setting) of the scores of the term-``t`` patterns that
overlap the document, and ``−∞`` when none does (Eq. 11) — i.e. the
document is excluded for that term.

Three engines are provided, matching the evaluation of Section 6.3:

* :class:`BurstySearchEngine` over STComb patterns (combinatorial);
* :class:`BurstySearchEngine` over STLocal patterns (regional) — the
  engine is pattern-type-agnostic, "it only handles one type at a
  time";
* :class:`TemporalSearchEngine` (TB) — the authors' earlier KDD'09
  engine: all streams merged into one, patterns are purely temporal
  bursty intervals.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Hashable, List, Optional, Sequence

from repro.errors import (
    SearchError,
    StoreCorruptionError,
    StoreError,
    StoreIOError,
)
from repro.intervals.interval import Interval
from repro.search.inverted_index import InvertedIndex, Posting
from repro.search.relevance import RelevanceFunction, log_relevance
from repro.search.topk import (
    STRATEGIES,
    normalize_query_terms,
    topk,
    topk_many,
)
from repro.streams.collection import SpatiotemporalCollection
from repro.streams.document import Document, tokenize
from repro.temporal.lappas import LappasBurstDetector

__all__ = [
    "SearchResult",
    "BurstySearchEngine",
    "TemporalSearchEngine",
    "TemporalPattern",
    "score_posting",
]


@dataclasses.dataclass(frozen=True)
class SearchResult:
    """A retrieved document with its aggregate score."""

    document: Document
    score: float


@dataclasses.dataclass(frozen=True)
class TemporalPattern:
    """A purely temporal pattern (the TB baseline's unit).

    Overlap ignores the document's origin: "this approach disregards
    the origin of each document" (Section 6.3).
    """

    term: str
    timeframe: Interval
    score: float

    def overlaps(self, document: Document) -> bool:
        return document.timestamp in self.timeframe


def _default_aggregate(scores: Sequence[float]) -> float:
    """The paper's best-performing f(P_{t,d}): the maximum pattern score."""
    return max(scores)


def score_posting(
    document: Document,
    term: str,
    patterns: Sequence,
    relevance: RelevanceFunction,
    aggregate: Callable[[Sequence[float]], float],
) -> Optional[Posting]:
    """One document's per-term posting (Eq. 10/11), or ``None`` if excluded.

    The single source of truth for posting scores: the static engines
    and the live serving layer (:mod:`repro.live`) all call this, which
    is what keeps their outputs byte-identical — the contract the
    differential tests enforce.
    """
    overlapping = [
        pattern.score for pattern in patterns if pattern.overlaps(document)
    ]
    if not overlapping:
        return None  # burstiness = −∞ → excluded (Eq. 11)
    return Posting(
        doc_id=document.doc_id,
        score=relevance(document, term) * aggregate(overlapping),
    )


class _PatternEngineBase:
    """Shared machinery: postings construction + top-k querying."""

    def __init__(
        self,
        collection: SpatiotemporalCollection,
        relevance: RelevanceFunction = log_relevance,
        aggregate: Callable[[Sequence[float]], float] = _default_aggregate,
        strategy: str = "auto",
    ) -> None:
        if strategy not in STRATEGIES:
            raise SearchError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        self.collection = collection
        self.relevance = relevance
        self.aggregate = aggregate
        self.strategy = strategy
        self._index = InvertedIndex()
        self._doc_map: Optional[Dict[Hashable, Document]] = None
        self._built_version = collection.version
        #: term → quarantine reason; only ever populated under
        #: ``on_corruption="degrade"``.
        self._degraded: Dict[str, str] = {}
        self._on_corruption = "fail"

    # -- pattern access ------------------------------------------------
    def patterns_for(self, term: str) -> Sequence:
        raise NotImplementedError

    # -- staleness -----------------------------------------------------
    def _check_freshness(self) -> None:
        """Invalidate every derived view when the collection changed.

        Posting lists, the document map and pattern caches are all
        functions of the collection's contents; serving them across a
        mutation silently returns stale results.  The static engines
        rebuild from scratch on the next query — the incremental path
        lives in :mod:`repro.live`.
        """
        version = self.collection.version
        if version == self._built_version:
            return
        self._index.clear()
        self._doc_map = None
        self._invalidate_patterns()
        self._built_version = version

    def _invalidate_patterns(self) -> None:
        """Hook for engines with collection-derived pattern caches."""

    # -- degraded-mode serving -----------------------------------------
    def degraded_report(self) -> Dict[str, str]:
        """Quarantined posting columns: term → reason.

        Empty on a healthy engine.  Populated only when the engine was
        loaded with ``on_corruption="degrade"`` and damage was actually
        touched — quarantined terms serve empty posting lists (never a
        half-decoded column) and are reported per query through
        :attr:`~repro.search.topk.TopKStats.degraded_terms`.
        """
        return dict(self._degraded)

    # -- index construction --------------------------------------------
    def _posting_list(self, term: str):
        cached = self._index.get(term)
        if cached is not None:
            return cached
        patterns = self.patterns_for(term)
        postings: List[Posting] = []
        if patterns:
            for document in self.collection.documents():
                if document.frequency(term) == 0:
                    continue
                posting = score_posting(
                    document, term, patterns, self.relevance, self.aggregate
                )
                if posting is not None:
                    postings.append(posting)
        return self._index.add(term, postings)

    # -- querying --------------------------------------------------------
    def search(
        self, query: str, k: int = 10, strategy: Optional[str] = None
    ) -> List[SearchResult]:
        """Retrieve the top-k bursty documents for a text query.

        Args:
            query: Free text; tokenised into terms (so ``"air france"``
                becomes the two-term query ``{air, france}``).  Terms
                are deduplicated and sorted — repeating a term does not
                double-count its score.
            k: Number of documents.
            strategy: Top-k execution strategy for this query
                (``auto``/``ta``/``blockmax``/``scan``); defaults to
                the engine-level setting.  Every strategy returns the
                identical ranking.

        Raises:
            SearchError: on an empty query or unknown strategy.
        """
        results, _ = self.search_with_stats(query, k, strategy=strategy)
        return results

    def search_with_stats(
        self, query: str, k: int = 10, strategy: Optional[str] = None
    ):
        """:meth:`search` plus the :class:`~repro.search.topk.TopKStats`
        of the underlying execution (strategy run, sorted accesses,
        degraded terms)."""
        terms = normalize_query_terms(tokenize(query))
        if not terms:
            raise SearchError("empty query")
        self._check_freshness()
        lists = [self._posting_list(term) for term in terms]
        results, stats = topk(lists, k, strategy or self.strategy)
        if self._degraded:
            affected = tuple(
                term for term in terms if term in self._degraded
            )
            if affected:
                stats = dataclasses.replace(stats, degraded_terms=affected)
        documents = self._documents_by_id_map()
        return [
            SearchResult(document=documents[result.doc_id], score=result.score)
            for result in results
        ], stats

    def search_many(
        self,
        queries: Sequence[str],
        k: int = 10,
        strategy: Optional[str] = None,
    ) -> List[List[SearchResult]]:
        """Batched :meth:`search` over a query workload.

        Posting lists are resolved once per distinct term and their
        columnar views are shared across the whole batch (see
        :func:`repro.search.topk.topk_many`), so a workload touching
        overlapping vocabularies pays each term's materialisation cost
        once.  The batch executes against a single collection snapshot.

        Raises:
            SearchError: when any query is empty.
        """
        per_query = []
        for query in queries:
            terms = normalize_query_terms(tokenize(query))
            if not terms:
                raise SearchError("empty query")
            per_query.append(terms)
        self._check_freshness()
        lists_by_term = {
            term: self._posting_list(term)
            for terms in per_query
            for term in terms
        }
        outcomes = topk_many(
            [[lists_by_term[term] for term in terms] for terms in per_query],
            k,
            strategy=strategy or self.strategy,
        )
        documents = self._documents_by_id_map()
        return [
            [
                SearchResult(
                    document=documents[result.doc_id], score=result.score
                )
                for result in results
            ]
            for results, _ in outcomes
        ]

    def _documents_by_id_map(self) -> Dict[Hashable, Document]:
        if self._doc_map is None:
            self._doc_map = {
                document.doc_id: document
                for document in self.collection.documents()
            }
        return self._doc_map


class BurstySearchEngine(_PatternEngineBase):
    """Search engine backed by mined spatiotemporal patterns.

    Works with either pattern type, one type per instance ("a separate
    instance is required for each type").

    Posting lists for every pattern-bearing term are precomputed in a
    *single* pass over the collection at construction (each document is
    visited once, scored only against the pattern terms it contains),
    instead of one full document scan per queried term.  Pass
    ``precompute=False`` to fall back to lazy per-term construction.

    Args:
        collection: The document collection to search.
        patterns: Map of term → its mined patterns (from
            :meth:`repro.core.STComb.mine`, :meth:`repro.core.STLocal.mine`
            or :meth:`repro.pipeline.BatchMiner`).
        relevance: Per-term relevance function (default log).
        aggregate: Aggregation of overlapping-pattern scores
            (default max, the paper's best).
        precompute: Build all posting lists up front (default).
        strategy: Default top-k execution strategy (``auto`` runs
            ``scan``; see :mod:`repro.search.topk`).
    """

    def __init__(
        self,
        collection: SpatiotemporalCollection,
        patterns: Dict[str, Sequence],
        relevance: RelevanceFunction = log_relevance,
        aggregate: Callable[[Sequence[float]], float] = _default_aggregate,
        precompute: bool = True,
        strategy: str = "auto",
    ) -> None:
        super().__init__(
            collection,
            relevance=relevance,
            aggregate=aggregate,
            strategy=strategy,
        )
        self._patterns = dict(patterns)
        self._segments = None
        if precompute:
            self.precompute()

    @classmethod
    def from_store(cls, path, **engine_kwargs) -> "BurstySearchEngine":
        """Cold-start an engine from a saved ``index`` segment store.

        The collection, mined patterns and per-term posting columns are
        served from the on-disk segments (posting columns stay
        memory-mapped and materialise lazily per queried term), so no
        mining or posting construction runs — the store *is* the
        serving state.  Accepts the keyword arguments of the
        constructor except ``patterns``/``precompute``, plus
        ``mmap``/``verify`` for the store open and
        ``on_corruption`` (``"fail"``, the default, or ``"degrade"``:
        damaged posting columns are quarantined per term and serving
        continues over the healthy ones — see :meth:`degraded_report`).

        Raises:
            StoreError: for a missing, corrupted or non-``index`` store.
        """
        from repro.store import load_search_engine

        return load_search_engine(path, **engine_kwargs)

    def save(self, path, pattern_type: str = "regional", **kwargs) -> None:
        """Persist this engine as an ``index`` segment store.

        See :func:`repro.store.save_search_index` for the layout and
        the optional ``terms``/``trackers``/``metadata`` arguments.
        """
        from repro.store import save_search_index

        save_search_index(path, self, pattern_type, **kwargs)

    def patterns_for(self, term: str) -> Sequence:
        return self._patterns.get(term, ())

    def _invalidate_patterns(self) -> None:
        # Any mutation invalidates the posting lists together with any
        # attached store segments, which describe the pre-mutation
        # corpus.  The quarantine list goes with them: it describes
        # segment columns that no longer back anything.
        self._segments = None
        self._degraded = {}

    def _quarantine(self, term: str, reason: str) -> None:
        self._degraded[term] = reason

    def _segment_term(self, term: str):
        """Load one term's column from the attached segments.

        In the default ``"fail"`` policy every store error propagates.
        Under ``"degrade"``: a transient read failure
        (:class:`~repro.errors.StoreIOError`) is retried exactly once;
        corruption, decode failures and a failed retry quarantine the
        term (``None`` return) — it then serves an empty posting list
        and is reported, rather than raising mid-query or silently
        serving damaged scores.
        """
        try:
            return self._segments.posting_array(term)
        except StoreIOError:
            if self._on_corruption != "degrade":
                raise
            try:
                return self._segments.posting_array(term)
            except StoreError as retried:
                self._quarantine(
                    term, f"io error (after one retry): {retried}"
                )
                return None
        except StoreCorruptionError as exc:
            if self._on_corruption != "degrade":
                raise
            self._quarantine(term, str(exc))
            return None
        except StoreError as exc:
            if self._on_corruption != "degrade":
                raise
            self._quarantine(term, f"decode failure: {exc}")
            return None
        except (ValueError, IndexError, KeyError, OverflowError) as exc:
            # A corrupted packed payload can fail inside the decoder
            # before any CRC audit sees it.  In degrade mode that is
            # quarantine-worthy damage, not a crash; otherwise it is
            # store corruption and must surface as the typed error the
            # serving layers are contracted to raise, never as a bare
            # decoder exception.
            if self._on_corruption != "degrade":
                raise StoreCorruptionError(
                    f"posting decode failed for term {term!r}: {exc}"
                ) from exc
            self._quarantine(term, f"decode failure: {exc}")
            return None

    def _posting_list(self, term: str):
        if self._segments is not None:
            cached = self._index.get(term)
            if cached is not None:
                return cached
            if term not in self._degraded:
                loaded = self._segment_term(term)
                if loaded is not None:
                    return self._index.add_built(term, loaded)
            if term in self._degraded:
                # Quarantined: the empty column — never a half-decoded
                # one, never a silent rescore of the damaged store.
                return self._index.add(term, [])
        return super()._posting_list(term)

    def precompute(self, terms: Optional[Sequence[str]] = None) -> int:
        """Build posting lists for many terms in one document sweep.

        With the default scoring configuration the sweep is columnar:
        the collection's :class:`~repro.columnar.collection.
        ColumnarCollection` snapshot (the one mining and the store
        writer read) serves every term's postings from its term-major index
        (vectorized overlap masks, cached log-relevance, one stable
        ``lexsort``), byte-identical to the per-document
        :func:`score_posting` loop, which remains the path for custom
        relevance/aggregate callables and pattern types.

        Args:
            terms: Terms to index; defaults to every term with at least
                one mined pattern.

        Returns:
            Number of posting lists built (terms already indexed are
            skipped).
        """
        self._check_freshness()
        if terms is None:
            terms = [term for term, mined in self._patterns.items() if mined]
        pending = {
            term for term in terms if self._index.get(term) is None
        }
        if not pending:
            return 0
        remaining = set(pending)
        if self._segments is not None:
            # Attached store segments already hold these terms' columns;
            # loading them is both faster than rescoring and exactly the
            # bytes the store was verified against.
            for term in sorted(remaining, key=repr):
                if term in self._degraded:
                    self._index.add(term, [])
                    remaining.discard(term)
                    continue
                loaded = self._segment_term(term)
                if loaded is not None:
                    self._index.add_built(term, loaded)
                    remaining.discard(term)
                elif term in self._degraded:
                    self._index.add(term, [])
                    remaining.discard(term)
            if not remaining:
                return len(pending)
        from repro.columnar.scoring import (
            columnar_postings,
            vectorizable_relevance,
        )

        if self.aggregate is _default_aggregate and vectorizable_relevance(
            self.relevance
        ):
            store = self.collection.columnar()
            for term in pending:
                posting_list = columnar_postings(
                    store.term_columns(term),
                    self._patterns.get(term, ()),
                    self.relevance,
                )
                if posting_list is not None:
                    self._index.add_built(term, posting_list)
                    remaining.discard(term)
        if remaining:
            postings: Dict[str, List[Posting]] = {
                term: [] for term in remaining
            }
            for document in self.collection.documents():
                for term in set(document.terms) & remaining:
                    posting = score_posting(
                        document,
                        term,
                        self._patterns.get(term, ()),
                        self.relevance,
                        self.aggregate,
                    )
                    if posting is not None:
                        postings[term].append(posting)
            for term in remaining:
                self._index.add(term, postings[term])
        return len(pending)


class TemporalSearchEngine(_PatternEngineBase):
    """The TB baseline: temporal-burstiness-only retrieval (KDD'09).

    "Since this approach disregards the origin of each document, the
    streams from the various countries were merged to a single stream."
    Patterns are the Lappas bursty intervals of the merged frequency
    sequence.

    Args:
        collection: The document collection to search.
        detector: Temporal burst detector for the merged sequences.
        relevance: Per-term relevance function.
        aggregate: Aggregation over overlapping temporal patterns.
        strategy: Default top-k execution strategy (``auto`` runs
            ``scan``).
    """

    def __init__(
        self,
        collection: SpatiotemporalCollection,
        detector: Optional[LappasBurstDetector] = None,
        relevance: RelevanceFunction = log_relevance,
        aggregate: Callable[[Sequence[float]], float] = _default_aggregate,
        strategy: str = "auto",
    ) -> None:
        super().__init__(
            collection,
            relevance=relevance,
            aggregate=aggregate,
            strategy=strategy,
        )
        self.detector = detector if detector is not None else LappasBurstDetector()
        self._cache: Dict[str, List[TemporalPattern]] = {}

    def _invalidate_patterns(self) -> None:
        # Merged frequency sequences change with every appended
        # document, so the detected temporal patterns do too.
        self._cache.clear()

    def patterns_for(self, term: str) -> Sequence[TemporalPattern]:
        self._check_freshness()
        cached = self._cache.get(term)
        if cached is not None:
            return cached
        merged = self.collection.merged_frequency_sequence(term)
        patterns = [
            TemporalPattern(term=term, timeframe=segment.interval, score=segment.score)
            for segment in self.detector.detect(merged)
        ]
        self._cache[term] = patterns
        return patterns
