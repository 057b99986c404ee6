"""Durable segment store: mmap-backed index persistence.

Process restarts used to pay a full corpus rebuild — mine, columnar
precompute, posting construction — before the first query could be
served.  This package persists every serving structure as immutable
little-endian segments under a crash-safe manifest (write-temp +
``fsync`` + atomic rename, CRC-32 per file, format and library version
stamps), and loads them back through zero-copy ``np.memmap`` views, so
a saved index cold-starts in milliseconds instead of re-mining.

Entry points:

* :func:`save_search_index` / :func:`load_search_engine` — full
  serving snapshots (also reachable as
  :meth:`repro.search.BurstySearchEngine.from_store`);
* :func:`save_patterns` / :func:`load_patterns` — mining output
  (written by ``BatchMiner.mine_*(save_to=...)``);
* :meth:`repro.live.LiveSearchEngine.checkpoint` / ``restore`` — live
  serving checkpoints (implemented here);
* :func:`verify_store` — byte-compares a store against a cold rebuild
  of its own corpus (``repro load --verify``).
"""

from repro.store.format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    SegmentReader,
    SegmentWriter,
)
from repro.store.store import (
    load_patterns,
    load_search_engine,
    open_store,
    save_patterns,
    save_search_index,
    verify_store,
)
from repro.store.store import (  # noqa: F401  (live wiring helpers)
    restore_live_checkpoint,
    save_live_checkpoint,
)

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "SegmentReader",
    "SegmentWriter",
    "load_patterns",
    "load_search_engine",
    "open_store",
    "restore_live_checkpoint",
    "save_live_checkpoint",
    "save_patterns",
    "save_search_index",
    "verify_store",
]
