"""Snapshot-major batch mining over a shared frequency tensor.

The paper presents STLocal (Algorithm 2) as a *streaming* algorithm,
yet the natural batch usage — mine every term of a corpus — replays the
whole timeline once per term.  For a multi-term workload that is
term-major order: ``for term: for timestamp: process``.  This module
provides the snapshot-major pipeline instead: one columnar sweep
(:mod:`repro.columnar.sweep`) over the shared
:class:`~repro.streams.FrequencyTensor` — a view of the collection's
column snapshot — advances every term's
:class:`~repro.core.stlocal.STLocalTermTracker` at once, with three
structural savings over the term-major loop:

* **shared slicing** — the per-term ``{timestamp: {stream: count}}``
  views are summed from the term's slice of the snapshot's term-major
  CSR in ``O(nnz(term))``, only for the terms being mined, instead of
  ``O(timeline × streams)`` `slice_at` scans per term;
* **quiet-prefix skip** — a tracker is fast-forwarded to its term's
  first active snapshot (a strict no-op prefix, see
  :meth:`~repro.core.stlocal.STLocalTermTracker.fast_forward`);
* **tail truncation** — after a term's last active snapshot no new
  window can appear, so the sweep stops there (see
  :func:`~repro.columnar.sweep.sweep_terms`).

Every baseline runs through the same sweep: the paper-default running
mean as one vectorized pass, any other ``baseline_factory`` as one
expectation-model object per stream.  The snapshot-at-a-time replay the
sweep is held byte-equal to is the test oracle
``tests/oracles/stlocal.py``.

The pipeline also shards terms across processes (``workers=N``) for
STLocal and STComb alike; results are bit-identical to the serial sweep
because the trackers evaluate streams in a fixed sorted order.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.columnar.sweep import LocationStore, sweep_terms
from repro.core.patterns import CombinatorialPattern, RegionalPattern
from repro.core.stcomb import STComb
from repro.core.stlocal import (
    STLocal,
    STLocalTermTracker,
    _resolve,
    _term_snapshots,
)
from repro.spatial.geometry import Point
from repro.streams.collection import SpatiotemporalCollection
from repro.streams.frequency import FrequencyTensor

__all__ = ["BatchMiner"]

TensorLike = Union[SpatiotemporalCollection, FrequencyTensor]


class BatchMiner:
    """Multi-term mining pipeline over one shared frequency tensor.

    Args:
        stlocal: The regional miner whose configuration to use
            (default: a fresh :class:`~repro.core.STLocal`).
        stcomb: The combinatorial miner whose detector/configuration to
            use (default: a fresh :class:`~repro.core.STComb`).
        workers: Shard terms over this many processes; ``None``/``0``/
            ``1`` mine serially in-process (``0`` is the documented
            serial fast path — on single-CPU hosts the vectorized
            serial sweep beats oversubscribed workers).

    Example::

        from repro import FrequencyTensor
        from repro.pipeline import BatchMiner

        tensor = FrequencyTensor(collection)
        miner = BatchMiner(workers=4)
        regional = miner.mine_regional(tensor, locations=collection.locations())
        combinatorial = miner.mine_combinatorial(tensor)
    """

    def __init__(
        self,
        stlocal: Optional[STLocal] = None,
        stcomb: Optional[STComb] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.stlocal = stlocal if stlocal is not None else STLocal()
        self.stcomb = stcomb if stcomb is not None else STComb()
        self.workers = max(1, int(workers)) if workers else 1

    # ------------------------------------------------------------------
    # Regional (STLocal) pipeline
    # ------------------------------------------------------------------
    def regional_trackers(
        self,
        data: TensorLike,
        terms: Optional[Sequence[str]] = None,
        locations: Optional[Dict[Hashable, Point]] = None,
    ) -> Dict[str, STLocalTermTracker]:
        """Snapshot-major sweep: one tracker per term, all fed together.

        Returns every requested term's tracker (terms with no activity
        get a pristine tracker).  Each tracker stops after its term's
        last active snapshot, so its per-snapshot history series
        (``rectangle_history`` / ``open_history``) end there.
        """
        tensor, locations = _resolve(data, locations)
        return sweep_terms(
            {
                term: _term_snapshots(tensor, term)
                for term in self._term_list(tensor, terms)
            },
            LocationStore(locations),
            self.stlocal.config,
        )

    def mine_regional(
        self,
        data: TensorLike,
        terms: Optional[Sequence[str]] = None,
        locations: Optional[Dict[Hashable, Point]] = None,
        save_to: Optional[str] = None,
    ) -> Dict[str, List[RegionalPattern]]:
        """Regional patterns for many terms in one timeline sweep.

        Args:
            save_to: Optionally persist the mining result as a
                ``patterns`` segment store (see :mod:`repro.store`).

        Returns:
            Map of term → its maximal windows, identical to per-term
            :meth:`repro.core.STLocal.mine` output (terms with none
            omitted), in the requested term order.
        """
        tensor, locations = _resolve(data, locations)
        terms = self._term_list(tensor, terms)
        if self.workers > 1:
            results = self._mine_sharded("regional", tensor, terms, locations)
        else:
            trackers = self.regional_trackers(tensor, terms, locations)
            results = {}
            for term in terms:
                patterns = trackers[term].patterns(term)
                if patterns:
                    results[term] = patterns
        if save_to is not None:
            from repro.store import save_patterns

            save_patterns(save_to, results, "regional", terms=terms)
        return results

    # ------------------------------------------------------------------
    # Combinatorial (STComb) pipeline
    # ------------------------------------------------------------------
    def mine_combinatorial(
        self,
        data: TensorLike,
        terms: Optional[Sequence[str]] = None,
        save_to: Optional[str] = None,
    ) -> Dict[str, List[CombinatorialPattern]]:
        """Combinatorial patterns for many terms off one shared tensor.

        A raw collection is indexed into a tensor exactly once, so the
        per-term stage only touches the streams that actually contain
        the term (the collection path scanned every stream per term).
        Pass ``save_to`` to persist the result as a ``patterns``
        segment store.
        """
        tensor = self._as_tensor(data)
        terms = self._term_list(tensor, terms)
        if self.workers > 1:
            results = self._mine_sharded("combinatorial", tensor, terms, None)
        else:
            results = {}
            for term in terms:
                patterns = self.stcomb.patterns_for_term(tensor, term)
                if patterns:
                    results[term] = patterns
        if save_to is not None:
            from repro.store import save_patterns

            save_patterns(save_to, results, "combinatorial", terms=terms)
        return results

    # ------------------------------------------------------------------
    # Term-sharded multiprocessing
    # ------------------------------------------------------------------
    def _mine_sharded(
        self,
        kind: str,
        tensor,
        terms: Sequence[str],
        locations: Optional[Dict[Hashable, Point]],
    ) -> Dict:
        from repro.pipeline.sharding import mine_shards

        merged = mine_shards(
            kind=kind,
            miner=self,
            tensor=tensor,
            terms=terms,
            locations=locations,
            workers=self.workers,
        )
        # Preserve the requested term order across shard boundaries.
        return {term: merged[term] for term in terms if term in merged}

    # ------------------------------------------------------------------
    @staticmethod
    def _term_list(tensor, terms: Optional[Sequence[str]]) -> List[str]:
        if terms is None:
            return sorted(tensor.terms)
        # Deduplicate (keeping first occurrence): a repeated term would
        # otherwise be fed every snapshot once per occurrence, at
        # misaligned clocks, silently corrupting its tracker.
        return list(dict.fromkeys(terms))

    @staticmethod
    def _as_tensor(data: TensorLike):
        if isinstance(data, SpatiotemporalCollection):
            return FrequencyTensor(data)
        return data
