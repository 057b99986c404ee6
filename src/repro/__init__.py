"""repro — reproduction of "On the Spatiotemporal Burstiness of Terms".

Lappas, Vieira, Gunopulos, Tsotras — PVLDB 5(9), 2012 (arXiv:1205.6695).

The package mines *spatiotemporal burstiness patterns* from geostamped
document streams and uses them for bursty-document retrieval:

* :class:`repro.STComb` — combinatorial patterns: per-stream temporal
  bursts combined via maximum-weight cliques on interval graphs
  (Section 3 of the paper);
* :class:`repro.STLocal` — regional patterns: streaming maximal
  spatiotemporal windows over discrepancy-bursty map rectangles
  (Section 4);
* :class:`repro.BurstySearchEngine` — pattern-aware document search
  with Fagin's Threshold Algorithm (Section 5);
* :mod:`repro.datagen` — the Topix-style corpus and the distGen /
  randGen artificial-data generators of the evaluation (Section 6);
* :mod:`repro.eval` — one runner per table/figure of the paper.

Quickstart::

    from repro import SpatiotemporalCollection, Document, Point, STComb

    collection = SpatiotemporalCollection(timeline=30)
    collection.add_stream("amsterdam", Point(4.9, 52.4))
    collection.add_document(
        Document.from_text(0, "amsterdam", 12, "flood warning flood")
    )
    pattern = STComb().top_pattern(collection, "flood")
"""

from repro._version import __version__
from repro.columnar import ColumnarCollection, PostingArray
from repro.core import (
    BaseConfig,
    BaseDetector,
    CombinatorialPattern,
    RegionalPattern,
    STComb,
    STCombConfig,
    STLocal,
    STLocalConfig,
    SpatiotemporalWindow,
    r_bursty,
)
from repro.errors import ReproError
from repro.intervals import Interval
from repro.live import LiveCollection, LiveSearchEngine
from repro.pipeline import BatchMiner, IncrementalFeeder
from repro.search import BurstySearchEngine, SearchResult, TemporalSearchEngine
from repro.spatial import Point, Rectangle
from repro.store import (
    load_patterns,
    load_search_engine,
    save_patterns,
    save_search_index,
    verify_store,
)
from repro.streams import (
    Document,
    DocumentStream,
    FrequencyTensor,
    SpatiotemporalCollection,
)
from repro.temporal import (
    KleinbergBurstDetector,
    LappasBurstDetector,
    OnlineMaxSegments,
    maximal_segments,
)

__all__ = [
    "BaseConfig",
    "BaseDetector",
    "BatchMiner",
    "BurstySearchEngine",
    "ColumnarCollection",
    "CombinatorialPattern",
    "Document",
    "DocumentStream",
    "FrequencyTensor",
    "IncrementalFeeder",
    "Interval",
    "KleinbergBurstDetector",
    "LappasBurstDetector",
    "LiveCollection",
    "LiveSearchEngine",
    "OnlineMaxSegments",
    "Point",
    "PostingArray",
    "Rectangle",
    "RegionalPattern",
    "ReproError",
    "STComb",
    "STCombConfig",
    "STLocal",
    "STLocalConfig",
    "SearchResult",
    "SpatiotemporalCollection",
    "SpatiotemporalWindow",
    "TemporalSearchEngine",
    "__version__",
    "load_patterns",
    "load_search_engine",
    "maximal_segments",
    "r_bursty",
    "save_patterns",
    "save_search_index",
    "verify_store",
]
