"""Snapshot-major batch mining over a shared frequency tensor.

The paper presents STLocal (Algorithm 2) as a *streaming* algorithm,
yet the natural batch usage — mine every term of a corpus — replays the
whole timeline once per term.  For a multi-term workload that is
term-major order: ``for term: for timestamp: process``.  This module
provides the snapshot-major pipeline instead: one sweep over the shared
:class:`~repro.streams.FrequencyTensor` — a view of the collection's
column snapshot — feeds every term's
:class:`~repro.core.stlocal.STLocalTermTracker` from per-snapshot
sparse slices, with three structural savings over the term-major loop:

* **shared slicing** — the per-term ``{timestamp: {stream: count}}``
  views are summed from the term's slice of the snapshot's term-major
  CSR in ``O(nnz(term))``, only for the terms being mined, instead of
  ``O(timeline × streams)`` `slice_at` scans per term;
* **quiet-prefix skip** — a tracker is fast-forwarded to its term's
  first active snapshot (a strict no-op prefix, see
  :meth:`~repro.core.stlocal.STLocalTermTracker.fast_forward`);
* **tail truncation** — after a term's last active snapshot, every
  stream's burstiness is ``observed − expected = −expected ≤ 0``, so no
  new rectangle, no new maximal segment and no new window can appear;
  the sweep stops feeding the tracker there.  (Valid for any baseline
  with non-negative expectations — true of every model in
  :mod:`repro.temporal.baselines`; disable with ``truncate_tails=False``
  when plugging in an exotic baseline.)

One spatial index over the stream locations is shared by all trackers.

On top of the snapshot-major order, the regional sweep itself runs on
the columnar kernel whenever :func:`~repro.columnar.sweep.
columnar_supported` accepts the configuration: each term's whole
burstiness matrix is vectorized in one pass and the per-snapshot
R-Bursty stage runs scalar off that matrix
(:mod:`repro.columnar.sweep`), producing byte-identical trackers.  The
kernel only understands the paper-default running-mean baseline; a
custom ``baseline_factory`` runs :func:`replay_trackers`, the
per-snapshot replay, which the differential tests and benchmarks also
call directly as the reference oracle.

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
    Tuple,
    Union,
)

from repro.columnar.sweep import columnar_supported
from repro.core.config import STLocalConfig
from repro.core.patterns import CombinatorialPattern, RegionalPattern
from repro.core.stcomb import STComb
from repro.core.stlocal import STLocal, STLocalTermTracker, _resolve
from repro.spatial.geometry import Point
from repro.spatial.index import IntervalSpatialIndex, SpatialIndex
from repro.streams.collection import SpatiotemporalCollection
from repro.streams.frequency import FrequencyTensor

__all__ = ["BatchMiner", "replay_trackers"]

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
        truncate_tails: Stop feeding a term's tracker after its last
            active snapshot (see module docstring).  Patterns are
            identical either way for non-negative baselines; only the
            trackers' per-snapshot history series end earlier.

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
        truncate_tails: bool = True,
    ) -> None:
        self.stlocal = stlocal if stlocal is not None else STLocal()
        self.stcomb = stcomb if stcomb is not None else STComb()
        self.workers = max(1, int(workers)) if workers else 1
        self.truncate_tails = truncate_tails

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
        get a pristine tracker).  Note the per-snapshot history series
        (``rectangle_history`` / ``open_history``) cover only the
        processed prefix when ``truncate_tails`` is on.
        """
        tensor, locations = _resolve(data, locations)
        terms = self._term_list(tensor, terms)
        if columnar_supported(self.stlocal.config):
            return self._columnar_trackers(tensor, terms, locations)
        return replay_trackers(
            tensor,
            terms,
            locations,
            self.stlocal.config,
            truncate_tails=self.truncate_tails,
        )

    def _columnar_trackers(
        self,
        tensor,
        terms: Sequence[str],
        locations: Dict[Hashable, Point],
    ) -> Dict[str, STLocalTermTracker]:
        """Vectorized regional sweep: one columnar pass over all terms."""
        from repro.columnar.sweep import LocationStore, sweep_terms

        store = LocationStore(locations)
        return sweep_terms(
            {term: _term_snapshots(tensor, term) for term in terms},
            store,
            self.stlocal.config,
            tensor.timeline,
            truncate_tails=self.truncate_tails,
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
                The mined tracker state rides along whenever it is
                persistable — serial mining with the default baseline;
                sharded runs save patterns only (workers return
                patterns, not trackers).

        Returns:
            Map of term → its maximal windows, identical to per-term
            :meth:`repro.core.STLocal.mine` output (terms with none
            omitted), in the requested term order.
        """
        tensor, locations = _resolve(data, locations)
        terms = self._term_list(tensor, terms)
        trackers: Optional[Dict[str, STLocalTermTracker]] = None
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

            save_patterns(
                save_to,
                results,
                "regional",
                terms=terms,
                trackers=trackers,
                locations=locations,
            )
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


def _term_snapshots(tensor, term: str) -> Dict[int, Dict[Hashable, float]]:
    """Per-timestamp slices of one term, via the fast tensor path.

    Falls back to per-timestamp ``slice_at`` for duck-typed frequency
    sources (e.g. the synthetic generators) that lack
    :meth:`~repro.streams.FrequencyTensor.term_snapshots`.
    """
    fast = getattr(tensor, "term_snapshots", None)
    if fast is not None:
        return fast(term)
    snapshots: Dict[int, Dict[Hashable, float]] = {}
    for timestamp in range(tensor.timeline):
        snapshot = tensor.slice_at(term, timestamp)
        if snapshot:
            snapshots[timestamp] = snapshot
    return snapshots


def replay_trackers(
    tensor,
    terms: Sequence[str],
    locations: Dict[Hashable, Point],
    config: STLocalConfig,
    truncate_tails: bool = True,
) -> Dict[str, STLocalTermTracker]:
    """Per-snapshot replay: every term's tracker fed one snapshot at a time.

    The snapshot-major loop over :meth:`STLocalTermTracker.process`:
    each tracker is fast-forwarded to its term's first active snapshot
    and, with ``truncate_tails``, retired after its last.  It is the
    only path for baselines the columnar sweep does not support, and
    the reference the differential tests and benchmarks compare the
    sweep against.

    Args:
        tensor: The frequency tensor (or any source with ``timeline``
            and ``slice_at``).
        terms: Terms to track, each once.
        locations: Stream locations.
        config: The STLocal configuration.
        truncate_tails: Stop feeding a term after its last active
            snapshot (see the module docstring).

    Returns:
        One tracker per term, in ``terms`` order.
    """
    index: Optional[SpatialIndex] = None
    if len(locations) > STLocalTermTracker.INDEX_THRESHOLD:
        index = IntervalSpatialIndex(list(locations.items()))
    # One immutable location map (and one spatial index) shared by
    # every tracker — per-tracker copies would cost
    # O(|terms| × |streams|) memory over a full vocabulary.
    shared_locations = dict(locations)
    trackers = {
        term: STLocalTermTracker(
            shared_locations,
            config=config,
            index=index,
            copy_locations=False,
        )
        for term in terms
    }

    snapshots: Dict[str, Dict[int, Dict[Hashable, float]]] = {}
    spans: Dict[str, Tuple[int, int]] = {}
    starting: Dict[int, List[str]] = {}
    for term in terms:
        snaps = _term_snapshots(tensor, term)
        if not snaps:
            continue
        first, last = min(snaps), max(snaps)
        snapshots[term] = snaps
        spans[term] = (first, last)
        starting.setdefault(first, []).append(term)

    timeline = tensor.timeline
    live: List[str] = []
    for timestamp in range(timeline):
        for term in starting.get(timestamp, ()):
            trackers[term].fast_forward(timestamp)
            live.append(term)
        if not live:
            continue
        survivors: List[str] = []
        for term in live:
            trackers[term].process(snapshots[term].get(timestamp, {}))
            if truncate_tails and timestamp >= spans[term][1]:
                # Nothing after the last activity can score; release
                # the term's slices as it retires from the sweep.
                del snapshots[term]
                continue
            survivors.append(term)
        live = survivors
    return trackers
