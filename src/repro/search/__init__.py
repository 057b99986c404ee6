"""Bursty-document search (Section 5): index, TA, engines."""

from repro.search.relevance import (
    RelevanceFunction,
    binary_relevance,
    log_relevance,
    raw_relevance,
)
from repro.search.inverted_index import InvertedIndex, Posting
from repro.search.threshold_algorithm import (
    TopKResult,
    exhaustive_topk,
    threshold_topk,
)
from repro.search.topk import (
    STRATEGIES,
    TopKStats,
    blockmax_topk,
    normalize_query_terms,
    scan_topk,
    topk,
    topk_many,
)
from repro.search.engine import (
    BurstySearchEngine,
    SearchResult,
    TemporalPattern,
    TemporalSearchEngine,
)
from repro.search.ensemble import EnsembleResult, EnsembleSearchEngine

__all__ = [
    "BurstySearchEngine",
    "EnsembleResult",
    "EnsembleSearchEngine",
    "InvertedIndex",
    "Posting",
    "RelevanceFunction",
    "STRATEGIES",
    "SearchResult",
    "TemporalPattern",
    "TemporalSearchEngine",
    "TopKResult",
    "TopKStats",
    "binary_relevance",
    "blockmax_topk",
    "exhaustive_topk",
    "log_relevance",
    "normalize_query_terms",
    "raw_relevance",
    "scan_topk",
    "threshold_topk",
    "topk",
    "topk_many",
]
