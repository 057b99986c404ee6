"""Batch mining pipeline: snapshot-major sweeps and term sharding.

:class:`BatchMiner` mines every term of a corpus off one shared
frequency tensor — a single pass over the timeline feeds all STLocal
trackers — and optionally shards terms across worker processes for
STComb and STLocal alike.  :meth:`repro.core.STLocal.mine` and
:meth:`repro.core.STComb.mine` delegate here.

:class:`IncrementalFeeder` is the live counterpart: per-term durable
trackers built by the columnar sweep on first touch and extended by
the same sweep as snapshots seal, with fork-based previews over
still-open snapshots (see :mod:`repro.live`).
"""

from repro.pipeline.batch import BatchMiner
from repro.pipeline.incremental import IncrementalFeeder
from repro.pipeline.sharding import mine_shards, split_terms

__all__ = ["BatchMiner", "IncrementalFeeder", "mine_shards", "split_terms"]
