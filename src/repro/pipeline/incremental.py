"""Incremental snapshot feed for live STLocal mining.

The batch pipeline (:mod:`repro.pipeline.batch`) replays a *finished*
timeline; the live serving layer (:mod:`repro.live`) instead receives
documents continuously and must keep per-term trackers current without
rescanning history.  This module provides that feed path:

* one durable :class:`~repro.core.stlocal.STLocalTermTracker` per term,
  advanced through the *sealed* prefix of the timeline (timestamps no
  future document can touch);
* a term's first advance — its tracker is still pristine — runs the
  batch miner's columnar sweep (:func:`repro.columnar.sweep.sweep_term`)
  over the term's sealed slices, the same kernel and the same shared
  :class:`~repro.columnar.sweep.LocationStore` for every term, so a
  term first touched hundreds of snapshots in costs one vectorised
  pass instead of one ``process`` call per snapshot.  Later advances
  cover only the few snapshots sealed since and replay them with
  ``process``; a custom ``baseline_factory`` (which the sweep does not
  reproduce) always replays, skipping the quiet prefix with
  :meth:`~repro.core.stlocal.STLocalTermTracker.fast_forward`;
* :meth:`IncrementalFeeder.preview` — a fork of the durable tracker fed
  through the still-open snapshots, so queries see patterns that
  include the freshest data while the durable tracker stays rewindable
  at its sealed checkpoint (open snapshots can still gain documents,
  and a tracker cannot reprocess a snapshot).

Because a pristine tracker is rebuilt from the term's slices alone, the
durable trackers are derived state: a live checkpoint does not persist
them, and a restored engine rebuilds each on the term's first stale
re-sync.  Patterns read off a preview are identical to a cold batch
rebuild of the same collection — the differential tests
(``tests/test_live_differential.py``) hold the two paths byte-equal.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional

from repro.columnar.sweep import LocationStore, columnar_supported, sweep_term
from repro.core.config import STLocalConfig
from repro.core.patterns import RegionalPattern
from repro.core.stlocal import STLocalTermTracker
from repro.errors import StreamError
from repro.spatial.geometry import Point

__all__ = ["IncrementalFeeder"]

#: term → timestamp → stream → frequency (the live tensor slice shape).
TermSnapshots = Mapping[int, Mapping[Hashable, float]]


class IncrementalFeeder:
    """Per-term durable trackers: swept on first touch, then advanced
    snapshot-by-snapshot.

    Args:
        locations: Geostamp of every stream; fixed for the feeder's
            lifetime (trackers share one immutable map).
        config: STLocal settings shared by all trackers.
    """

    def __init__(
        self,
        locations: Dict[Hashable, Point],
        config: Optional[STLocalConfig] = None,
    ) -> None:
        # One location store (coordinate columns, spatial index,
        # membership memo) shared by every tracker and every sweep.
        self._store = LocationStore(locations)
        self.locations = self._store.locations
        self.config = config if config is not None else STLocalConfig()
        self._sweep = columnar_supported(self.config)
        self._trackers: Dict[str, STLocalTermTracker] = {}

    # ------------------------------------------------------------------
    def tracker(self, term: str) -> STLocalTermTracker:
        """The durable tracker of a term (created pristine on demand)."""
        tracker = self._trackers.get(term)
        if tracker is None:
            tracker = STLocalTermTracker(
                self.locations,
                config=self.config,
                index=self._store.index,
                copy_locations=False,
            )
            self._trackers[term] = tracker
        return tracker

    def terms(self) -> List[str]:
        """Terms with a durable tracker."""
        return list(self._trackers)

    # ------------------------------------------------------------------
    def advance(
        self, term: str, snapshots: TermSnapshots, through: int
    ) -> STLocalTermTracker:
        """Feed the durable tracker every snapshot in ``[clock, through)``.

        Only *sealed* timestamps belong here: once processed, a snapshot
        cannot be amended.  ``through`` therefore must not exceed the
        caller's sealed watermark.  A pristine tracker with activity
        before ``through`` is replaced by a sweep-built one (see the
        module docstring); any other advance replays the new snapshots.

        Args:
            term: The term being advanced.
            snapshots: The term's sparse per-timestamp slices (absent
                timestamps are empty snapshots).
            through: Advance the clock to this timestamp (exclusive).

        Returns:
            The durable tracker, at ``clock >= through``.

        Raises:
            StreamError: when ``through`` is behind the tracker's clock
                by way of a snapshot map that rewrites history (the
                tracker itself rejects backwards feeds).
        """
        tracker = self.tracker(term)
        if self._sweep and tracker.pristine:
            sealed = _active_slices(snapshots, tracker.clock, through)
            if sealed:
                tracker = sweep_term(
                    sealed,
                    self._store,
                    self.config,
                    timeline=through,
                    truncate_tails=False,
                )
                self._trackers[term] = tracker
                return tracker
        self._feed(tracker, term, snapshots, through)
        return tracker

    def preview(
        self, term: str, snapshots: TermSnapshots, through: int
    ) -> STLocalTermTracker:
        """Fork the durable tracker and feed it through open snapshots.

        The fork is advanced over ``[clock, through)`` — typically the
        single still-open snapshot at the ingestion watermark — and
        returned for pattern reads; the durable tracker is untouched.
        """
        fork = self.tracker(term).fork()
        self._feed(fork, term, snapshots, through)
        return fork

    def mine_term(
        self, term: str, snapshots: TermSnapshots, sealed: int, through: int
    ) -> List[RegionalPattern]:
        """Current patterns of a term: commit sealed, preview the rest.

        Args:
            term: The term to mine.
            snapshots: Its sparse per-timestamp slices.
            sealed: Sealed watermark — the durable tracker is committed
                through here (exclusive).
            through: Preview horizon (exclusive), covering the open
                snapshots; must be ``>= sealed``.
        """
        if through < sealed:
            raise StreamError(
                f"preview horizon {through} behind sealed watermark {sealed}"
            )
        self.advance(term, snapshots, sealed)
        if through == sealed:
            return self.tracker(term).patterns(term)
        return self.preview(term, snapshots, through).patterns(term)

    # ------------------------------------------------------------------
    @staticmethod
    def _feed(
        tracker: STLocalTermTracker,
        term: str,
        snapshots: TermSnapshots,
        through: int,
    ) -> None:
        if tracker.clock >= through:
            return
        if tracker.pristine:
            # Quiet-prefix skip, exactly as the batch sweep does it: an
            # empty snapshot before the first observation is a strict
            # no-op, so jump straight to the first active timestamp.
            active = _active_slices(snapshots, tracker.clock, through)
            tracker.fast_forward(min(active) if active else through)
        for timestamp in range(tracker.clock, through):
            tracker.process(dict(snapshots.get(timestamp, {})))


def _active_slices(
    snapshots: TermSnapshots, start: int, through: int
) -> Dict[int, Mapping[Hashable, float]]:
    """The non-empty slices at timestamps in ``[start, through)``."""
    return {
        timestamp: slice_
        for timestamp, slice_ in snapshots.items()
        if start <= timestamp < through and slice_
    }
