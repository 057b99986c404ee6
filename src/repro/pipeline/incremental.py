"""Incremental snapshot feed for live STLocal mining.

The batch pipeline (:mod:`repro.pipeline.batch`) mines a *finished*
timeline; the live serving layer (:mod:`repro.live`) instead receives
documents continuously and must keep per-term trackers current without
rescanning history.  This module provides that feed path:

* one durable tracker per term, advanced through the *sealed* prefix of
  the timeline (timestamps no future document can touch).  The term's
  first advance runs the batch miner's columnar sweep over its sealed
  slices (skipping the quiet prefix), and every later advance extends
  the same arrays — and, for a custom ``baseline_factory``, copies of
  the same expectation models — over the snapshots sealed since: one
  sweep per advance, for every configuration.  Every tracker shares
  the feeder's one :class:`~repro.columnar.sweep.LocationStore`;
* :meth:`IncrementalFeeder.preview` — a fork of the durable tracker
  advanced through the still-open snapshots, so queries see patterns
  that include the freshest data while the durable tracker stays
  rewindable at its sealed checkpoint (open snapshots can still gain
  documents, and a tracker cannot reprocess a snapshot).  A fork
  shares the durable tracker's arrays and models; the preview's
  advance builds its own.

Because a pristine tracker is rebuilt from the term's slices alone, the
durable trackers are derived state: a live checkpoint does not persist
them, and a restored engine rebuilds each on the term's first stale
re-sync.  Patterns read off a preview are identical to a cold batch
rebuild of the same collection — the differential tests
(``tests/test_live_differential.py``) hold the two paths byte-equal.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.columnar.sweep import LocationStore
from repro.core.config import STLocalConfig
from repro.core.patterns import RegionalPattern
from repro.core.stlocal import STLocalTermTracker, TermSnapshots
from repro.errors import StreamError
from repro.spatial.geometry import Point

__all__ = ["IncrementalFeeder"]


class IncrementalFeeder:
    """Per-term durable trackers, advanced as snapshots seal.

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
        # One location store (coordinate columns, membership memo)
        # shared by every tracker and every sweep.
        self._store = LocationStore(locations)
        self.locations = self._store.locations
        self.config = config if config is not None else STLocalConfig()
        self._trackers: Dict[str, STLocalTermTracker] = {}

    # ------------------------------------------------------------------
    def tracker(self, term: str) -> STLocalTermTracker:
        """The durable tracker of a term (created pristine on demand)."""
        tracker = self._trackers.get(term)
        if tracker is None:
            tracker = STLocalTermTracker(self._store, self.config)
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
        caller's sealed watermark.

        Args:
            term: The term being advanced.
            snapshots: The term's sparse per-timestamp slices (absent
                timestamps are empty snapshots).
            through: Advance the clock to this timestamp (exclusive).

        Returns:
            The durable tracker, at ``clock >= through``.
        """
        tracker = self.tracker(term)
        tracker.advance(snapshots, through)
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
        fork.advance(snapshots, through)
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
