"""Live ingestion + serving layer (append-only, incrementally indexed).

The static stack (:class:`~repro.streams.SpatiotemporalCollection` →
:class:`~repro.pipeline.BatchMiner` →
:class:`~repro.search.BurstySearchEngine`) is build-once: appending a
document after construction used to serve stale results.  This package
is the online counterpart:

* :class:`LiveCollection` — append-only ingestion with an epoch
  counter, a sealed/open snapshot watermark, and per-term views
  maintained in ``O(|terms(d)|)`` per document;
* :class:`LiveSearchEngine` — one columnar posting list per term,
  rebuilt lazily by the vectorised Eq. 10/11 kernel when a document
  containing the term arrives, a bounded LRU result cache keyed on the
  epoch, and lazily re-mined STLocal patterns: the batch sweep builds
  a term's tracker on first touch and
  :class:`~repro.pipeline.IncrementalFeeder` extends it with the same
  sweep as snapshots seal.

The correctness contract — live state is byte-identical to a cold
batch rebuild after any ingestion schedule — is enforced by the
differential harness in ``tests/test_live_differential.py``.
"""

from repro.live.collection import LiveCollection
from repro.live.engine import LiveSearchEngine, ServingStats

__all__ = [
    "LiveCollection",
    "LiveSearchEngine",
    "ServingStats",
]
