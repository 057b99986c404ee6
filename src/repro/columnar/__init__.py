"""NumPy-backed columnar storage kernel.

The paper's pipeline — burstiness scoring, maximal-segment discovery,
spatial discrepancy over term streams — is expressed everywhere else in
this repository as pure-Python loops over dicts and object lists.  On
the single-core target that caps throughput well below what the
hardware allows, and the wins available are algorithmic/vectorized, not
parallel.  This package is the hardware-conscious storage layer the
rest of the system delegates to:

* :mod:`repro.columnar.kernels` — numerical kernels (burst sweeps,
  prefix-sum maximal segments, spatial discrepancy grids) that are
  *byte-identical* to the pure-Python reference implementations they
  replace: NumPy's sequential ``cumsum``/``minimum.accumulate`` and
  elementwise arithmetic perform the same IEEE-754 operations in the
  same order, and an adaptive scalar path takes over below the array
  sizes where NumPy's per-call overhead dominates;
* :mod:`repro.columnar.collection` — :class:`ColumnarCollection`, a
  struct-of-arrays document store (int-coded terms, timestamps,
  stream coordinates, a term-major CSR index) replacing dict-of-lists
  traversals in the search layer;
* :mod:`repro.columnar.postings` — :class:`PostingArray`, the one
  posting-list type: sorted ``(doc, score)`` ndarrays with a vectorized
  sort, read directly by the top-k kernels;
* :mod:`repro.columnar.sweep` — the burst sweep that advances every
  :class:`~repro.core.stlocal.STLocalTermTracker`, for the batch miner
  and the live feeder alike; its result is byte-identical to a
  snapshot-by-snapshot replay of Algorithm 2.

The differential tests (``tests/test_columnar_differential.py``) hold
each kernel byte-equal to a pure-Python reference on random corpora;
references that serve no shipped path live under ``tests/oracles/``.

Submodule attributes are resolved lazily (PEP 562) so that low-level
modules (e.g. :mod:`repro.temporal.max_segments`) can import
:mod:`repro.columnar.kernels` without dragging the whole package — and
its higher-layer dependencies — into their import graph.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columnar.collection import ColumnarCollection
    from repro.columnar.postings import PostingArray

__all__ = [
    "ColumnarCollection",
    "PostingArray",
]

_EXPORTS = {
    "ColumnarCollection": ("repro.columnar.collection", "ColumnarCollection"),
    "PostingArray": ("repro.columnar.postings", "PostingArray"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)
