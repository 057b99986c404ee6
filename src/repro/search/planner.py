"""Calibrated query planner: cost model + hot-combination mining.

Without a planner, ``auto`` runs ``scan`` (see :mod:`repro.search.topk`):
on the serving benchmarks it is the fastest strategy for nearly every
query.  This opt-in planner instead picks ``blockmax`` vs ``scan`` per
query from its own query log, for workloads where deep, selective
lists make ``blockmax``'s early termination pay.  No static function
of list lengths and ``k`` can make that call: anti-correlated lists
share the *feature* vector of ambient lists (same lengths, same
``k``) while having the opposite best strategy.  The planner decides
in three tiers (first applicable wins):

1. **term-set memory** — once both candidate strategies have timed
   samples for an exact (normalized) term set, pick the empirically
   faster one.  This is what fixes the ambient-vs-anti confound: the
   term set identifies the regime even when the features cannot.
2. **exploration** (opt-in) — deterministically run the least-sampled
   candidate for a term set so memory warms without an explicit
   calibration pass.  Off by default: production serving should never
   knowingly run a slower strategy.
3. **cost model** — per-strategy linear least squares over O(1)
   features (totals of true/visible lengths, shortest visible list,
   ``k``, term count) fitted from the log; predict each candidate's
   cost and take the argmin.  While the log is cold (fewer than
   ``min_samples`` timed rows per strategy) the planner falls back to
   ``scan``, the uncalibrated default.

Orthogonally, the planner mines the log for **hot term combinations**
(the TPF-log pattern-extraction insight: the query log is itself a
corpus).  A term set queried at least ``hot_support`` times gets its
full merged ranking pre-materialised once — by running the ``scan``
strategy to exhaustion, so the cached ranking is bit-identical to what
any strategy would return — and every later query over the same term
set at any ``k`` is served as a prefix slice without touching a
posting list.  The cache is keyed by a caller-supplied *version token*
(collection version for static engines, per-term version tuple for the
live engine) so mutation invalidates exactly the affected entries.

Determinism: all timing goes through an injected monotonic ``clock``
(the default is a *reference* to :func:`time.perf_counter`, called
only through the attribute) and timings only ever influence *which*
strategy runs — every strategy returns byte-identical rankings, so
planner decisions can never change query output, only query cost.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import OrderedDict
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import SearchError
from repro.search.inverted_index import PostingList
from repro.search.threshold_algorithm import TopKResult
from repro.search.topk import Ranking, scan_ranking, true_length

__all__ = [
    "CANDIDATES",
    "CalibratedPlanner",
    "CostModel",
    "QueryLog",
    "QueryRecord",
]

#: Strategies the planner chooses between.  ``ta`` is excluded by
#: design: it is the per-posting reference that ``blockmax`` strictly
#: dominates, kept only as the differential-testing oracle.
CANDIDATES: Tuple[str, ...] = ("blockmax", "scan")

#: Current schema version for persisted logs / models.
FORMAT_VERSION = 1


@dataclasses.dataclass(frozen=True)
class QueryRecord:
    """One timed query execution, as logged by :func:`topk`.

    ``visible`` and ``true`` are per-list lengths: the visible length
    is what sorted access can reach, the :func:`~repro.search.topk.
    true_length` is the full random-access relation (they differ for
    pruned lists, and the scan's cost follows the latter).
    """

    terms: Tuple[str, ...]
    k: int
    visible: Tuple[int, ...]
    true: Tuple[int, ...]
    strategy: str
    sorted_accesses: int
    elapsed: float
    source: str = "explicit"

    def to_json(self) -> Dict[str, Any]:
        return {
            "terms": list(self.terms),
            "k": self.k,
            "visible": list(self.visible),
            "true": list(self.true),
            "strategy": self.strategy,
            "sorted_accesses": self.sorted_accesses,
            "elapsed": self.elapsed,
            "source": self.source,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "QueryRecord":
        return cls(
            terms=tuple(payload["terms"]),
            k=int(payload["k"]),
            visible=tuple(int(v) for v in payload["visible"]),
            true=tuple(int(v) for v in payload["true"]),
            strategy=str(payload["strategy"]),
            sorted_accesses=int(payload["sorted_accesses"]),
            elapsed=float(payload["elapsed"]),
            source=str(payload.get("source", "explicit")),
        )


def _features(visible: Sequence[int], true: Sequence[int], k: int) -> List[float]:
    """O(1) feature vector for the linear cost model.

    ``[1, Σtrue, Σvisible, min(visible), k, n_terms]`` — the constant
    term absorbs fixed dispatch overhead, the totals model scan-like
    full passes, the shortest visible list and ``k`` model TA-style
    termination depth, and the term count models per-list overheads.
    """
    return [
        1.0,
        float(sum(true)),
        float(sum(visible)),
        float(min(visible)),
        float(k),
        float(len(visible)),
    ]


class QueryLog:
    """Append-only in-memory log of :class:`QueryRecord`, JSONL on disk.

    Bounded by ``capacity``: the oldest records are dropped first, so a
    long-lived server calibrates against its *recent* workload.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise SearchError("query-log capacity must be positive")
        self.capacity = capacity
        self._records: List[QueryRecord] = []

    def append(self, record: QueryRecord) -> None:
        self._records.append(record)
        if len(self._records) > self.capacity:
            del self._records[: len(self._records) - self.capacity]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[QueryRecord]:
        return iter(self._records)

    def save(self, path: str) -> None:
        """Write the log as one JSON object per line."""
        lines = [json.dumps({"format": FORMAT_VERSION})]
        lines.extend(
            json.dumps(record.to_json(), sort_keys=True)
            for record in self._records
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str, capacity: int = 4096) -> "QueryLog":
        log = cls(capacity=capacity)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = [line for line in handle.read().splitlines() if line]
        except OSError as exc:
            raise SearchError(f"cannot read query log {path!r}: {exc}") from None
        if not lines:
            raise SearchError(f"empty query log: {path}")
        try:
            header = json.loads(lines[0])
        except ValueError as exc:
            raise SearchError(
                f"corrupted query log {path!r}: {exc}"
            ) from None
        fmt = header.get("format")
        if fmt is None or int(fmt) > FORMAT_VERSION:
            raise SearchError(
                f"unsupported query-log format {fmt!r} in {path}; "
                f"this build reads format <= {FORMAT_VERSION}"
            )
        for line in lines[1:]:
            try:
                log.append(QueryRecord.from_json(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise SearchError(
                    f"corrupted query log {path!r}: {exc}"
                ) from None
        return log


class CostModel:
    """Per-strategy linear cost predictors fitted from a query log."""

    def __init__(self, min_samples: int = 8) -> None:
        if min_samples < 1:
            raise SearchError("min_samples must be positive")
        self.min_samples = min_samples
        self.weights: Dict[str, Optional[np.ndarray]] = {
            strategy: None for strategy in CANDIDATES
        }
        self.samples: Dict[str, int] = {strategy: 0 for strategy in CANDIDATES}

    @property
    def fitted(self) -> bool:
        """True when every candidate strategy has a fitted predictor."""
        return all(
            self.weights[strategy] is not None for strategy in CANDIDATES
        )

    def fit(self, records: Iterable[QueryRecord]) -> None:
        """Least-squares refit from scratch over ``records``.

        A strategy with fewer than ``min_samples`` timed rows keeps no
        predictor — and one unfitted candidate un-fits the whole model
        (``fitted`` is False), because an argmin between a calibrated
        and an uncalibrated prediction is meaningless.
        """
        rows: Dict[str, List[List[float]]] = {
            strategy: [] for strategy in CANDIDATES
        }
        targets: Dict[str, List[float]] = {
            strategy: [] for strategy in CANDIDATES
        }
        for record in records:
            if record.strategy not in rows:
                continue
            rows[record.strategy].append(
                _features(record.visible, record.true, record.k)
            )
            targets[record.strategy].append(record.elapsed)
        for strategy in CANDIDATES:
            self.samples[strategy] = len(rows[strategy])
            if len(rows[strategy]) < self.min_samples:
                self.weights[strategy] = None
                continue
            design = np.asarray(rows[strategy], dtype=float)
            target = np.asarray(targets[strategy], dtype=float)
            solution, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
            self.weights[strategy] = solution

    def predict(
        self, visible: Sequence[int], true: Sequence[int], k: int
    ) -> Dict[str, float]:
        """Predicted cost per candidate; requires ``fitted``."""
        if not self.fitted:
            raise SearchError("cost model is not fitted")
        feats = np.asarray(_features(visible, true, k), dtype=float)
        return {
            strategy: float(feats @ self.weights[strategy])
            for strategy in CANDIDATES
        }

    def choose(
        self, visible: Sequence[int], true: Sequence[int], k: int
    ) -> str:
        """Argmin of predicted cost (ties break in ``CANDIDATES`` order)."""
        predicted = self.predict(visible, true, k)
        best = CANDIDATES[0]
        for strategy in CANDIDATES[1:]:
            if predicted[strategy] < predicted[best]:
                best = strategy
        return best

    def to_payload(self) -> Dict[str, Any]:
        return {
            "min_samples": self.min_samples,
            "samples": dict(self.samples),
            "weights": {
                strategy: (
                    None if weights is None else [float(w) for w in weights]
                )
                for strategy, weights in self.weights.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "CostModel":
        model = cls(min_samples=int(payload["min_samples"]))
        for strategy in CANDIDATES:
            model.samples[strategy] = int(
                payload.get("samples", {}).get(strategy, 0)
            )
            weights = payload.get("weights", {}).get(strategy)
            model.weights[strategy] = (
                None if weights is None else np.asarray(weights, dtype=float)
            )
        return model


class CalibratedPlanner:
    """Query-log-driven strategy planner with hot-combination caching.

    Thread one instance through :func:`~repro.search.topk.topk` /
    :func:`~repro.search.topk.topk_many` (the engines do this when
    constructed with ``planner=``).  The planner only ever *selects*
    among byte-identical strategies or serves a scan-materialised
    merged ranking, so attaching it can never change a query's result.

    Args:
        min_samples: Timed rows per strategy before the cost model may
            be fitted (below this ``auto`` runs ``scan``).
        hot_support: Queries over the same term set before its merged
            ranking is pre-materialised.  ``0`` disables mining.
        max_merged: Bound on cached merged rankings (LRU eviction).
        refit_every: Auto-refit the cost model after this many new
            observations (``0`` disables auto-refit; :meth:`fit` stays
            available).
        explore: Opt in to tier 2 — deterministically run the
            least-sampled candidate while a term set's memory is cold.
        clock: Injected monotonic clock.  The default is a reference
            to :func:`time.perf_counter`; all calls go through this
            attribute so the kernel ``determinism`` rule (and tests,
            via a fake clock) stay in control of time.
        log: An existing :class:`QueryLog` to continue, e.g. one
            reloaded from disk.
    """

    def __init__(
        self,
        min_samples: int = 8,
        hot_support: int = 16,
        max_merged: int = 32,
        refit_every: int = 32,
        explore: bool = False,
        clock: Callable[[], float] = time.perf_counter,
        log: Optional[QueryLog] = None,
    ) -> None:
        if hot_support < 0:
            raise SearchError("hot_support must be >= 0")
        if max_merged < 1:
            raise SearchError("max_merged must be positive")
        self.hot_support = hot_support
        self.max_merged = max_merged
        self.refit_every = refit_every
        self.explore = explore
        self.clock = clock
        self.log = log if log is not None else QueryLog()
        self.model = CostModel(min_samples=min_samples)
        # terms -> strategy -> [count, total_elapsed]
        self._memory: Dict[Tuple[str, ...], Dict[str, List[float]]] = {}
        # terms -> times seen by the planner (hot-combination support)
        self._support: Dict[Tuple[str, ...], int] = {}
        # terms -> (version token, full merged ranking); LRU order
        self._merged: "OrderedDict[Tuple[str, ...], Tuple[Hashable, Ranking]]" = (
            OrderedDict()
        )
        self._since_fit = 0
        self.merged_hits = 0
        self.merged_builds = 0
        self.last_decision: Optional[Dict[str, Any]] = None

    # -- planning ------------------------------------------------------
    def plan(
        self,
        lists: Sequence[PostingList],
        k: int,
        terms: Tuple[str, ...] = (),
    ) -> Tuple[str, str]:
        """Choose a strategy; returns ``(strategy, source)``.

        ``source`` is the tier that decided: ``"memory"``,
        ``"explore"``, ``"model"`` or ``"default"`` (cold log:
        ``scan``).
        """
        strategy, source = self._decide(lists, k, terms)
        self.last_decision = {
            "terms": list(terms),
            "k": k,
            "strategy": strategy,
            "source": source,
        }
        return strategy, source

    def _decide(
        self,
        lists: Sequence[PostingList],
        k: int,
        terms: Tuple[str, ...],
    ) -> Tuple[str, str]:
        if terms:
            samples = self._memory.get(terms)
            if samples is not None:
                counts = [
                    samples.get(strategy, (0, 0.0))[0]
                    for strategy in CANDIDATES
                ]
                if all(count > 0 for count in counts):
                    return self._memory_best(samples), "memory"
                if self.explore:
                    least = CANDIDATES[0]
                    for strategy, count in zip(CANDIDATES, counts):
                        if count < samples.get(least, (0, 0.0))[0]:
                            least = strategy
                    return least, "explore"
            elif self.explore:
                return CANDIDATES[0], "explore"
        if self.model.fitted:
            visible = [len(posting_list) for posting_list in lists]
            true = [true_length(posting_list) for posting_list in lists]
            return self.model.choose(visible, true, k), "model"
        return "scan", "default"

    @staticmethod
    def _memory_best(samples: Dict[str, List[float]]) -> str:
        best = CANDIDATES[0]
        best_mean = samples[best][1] / samples[best][0]
        for strategy in CANDIDATES[1:]:
            count, total = samples[strategy]
            mean = total / count
            if mean < best_mean:
                best, best_mean = strategy, mean
        return best

    # -- observation ---------------------------------------------------
    def observe(
        self,
        lists: Sequence[PostingList],
        k: int,
        strategy: str,
        sorted_accesses: int,
        elapsed: float,
        terms: Tuple[str, ...] = (),
        source: str = "explicit",
    ) -> None:
        """Log one timed execution and fold it into memory/model state.

        Explicit-strategy runs (``repro search --strategy scan``, the
        bench's per-strategy passes) are observed too — they are free
        calibration data.
        """
        record = QueryRecord(
            terms=terms,
            k=k,
            visible=tuple(len(posting_list) for posting_list in lists),
            true=tuple(true_length(posting_list) for posting_list in lists),
            strategy=strategy,
            sorted_accesses=sorted_accesses,
            elapsed=float(elapsed),
            source=source,
        )
        self._absorb(record)
        self._since_fit += 1
        if self.refit_every and self._since_fit >= self.refit_every:
            self.fit()

    def _absorb(self, record: QueryRecord) -> None:
        self.log.append(record)
        if record.terms and record.strategy in CANDIDATES:
            samples = self._memory.setdefault(record.terms, {})
            bucket = samples.setdefault(record.strategy, [0, 0.0])
            bucket[0] += 1
            bucket[1] += record.elapsed

    def replay(self, records: Iterable[QueryRecord]) -> None:
        """Fold an existing log (e.g. reloaded from JSONL) into this
        planner: records join the bounded log and the term-set memory,
        and each term-bearing record counts toward hot-combination
        support — mining the log as a corpus, per the TPF-log pattern.
        Call :meth:`fit` afterwards to calibrate the cost model."""
        for record in records:
            self._absorb(record)
            if record.terms:
                self._support[record.terms] = (
                    self._support.get(record.terms, 0) + 1
                )

    def fit(self) -> bool:
        """Refit the cost model from the current log; True if fitted."""
        self.model.fit(self.log)
        self._since_fit = 0
        return self.model.fitted

    # -- hot-combination cache -----------------------------------------
    def serve_merged(
        self,
        terms: Tuple[str, ...],
        token: Hashable,
        lists: Sequence[PostingList],
        k: int,
    ) -> Optional[List[TopKResult]]:
        """Serve ``terms`` from the merged cache, mining support as we go.

        Every planned query bumps the term set's support count.  At
        ``hot_support`` the full merged ranking is materialised once by
        running the exhaustive ``scan`` strategy (bit-identical to any
        strategy's output by construction) and cached under ``token``;
        later calls at any ``k`` return a fresh prefix list.  A token
        mismatch (live mutation bumped a term version) drops the stale
        entry and re-materialises at the same support level.

        Returns the ranked prefix, or ``None`` when this query should
        run a strategy normally.
        """
        if self.hot_support <= 0 or not terms:
            return None
        support = self._support.get(terms, 0) + 1
        self._support[terms] = support
        entry = self._merged.get(terms)
        if entry is not None and entry[0] == token:
            self._merged.move_to_end(terms)
            self.merged_hits += 1
            doc_ids, scores = entry[1]
            return list(map(TopKResult, doc_ids[:k], scores[:k]))
        if entry is not None:
            del self._merged[terms]
        if support < self.hot_support:
            return None
        total_visible = sum(len(posting_list) for posting_list in lists)
        (doc_ids, scores), _ = scan_ranking(lists, max(1, total_visible))
        self._merged[terms] = (token, (doc_ids, scores))
        self._merged.move_to_end(terms)
        while len(self._merged) > self.max_merged:
            self._merged.popitem(last=False)
        self.merged_builds += 1
        return list(map(TopKResult, doc_ids[:k], scores[:k]))

    def invalidate_merged(self) -> None:
        """Drop every cached merged ranking (e.g. after a restore).

        Token keying already handles *observed* mutation; this is for
        wholesale index swaps where a fresh token could coincide with a
        stale one.
        """
        self._merged.clear()

    def hot_combinations(
        self, limit: int = 10
    ) -> List[Tuple[Tuple[str, ...], int]]:
        """The most-queried term sets, by support (deterministic order)."""
        ranked = sorted(
            self._support.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:limit]

    # -- introspection -------------------------------------------------
    def explain(
        self,
        lists: Sequence[PostingList],
        k: int,
        terms: Tuple[str, ...] = (),
    ) -> Dict[str, Any]:
        """Decision breakdown for ``repro search --explain`` (no side
        effects: support counters and the log are untouched)."""
        visible = [len(posting_list) for posting_list in lists]
        true = [true_length(posting_list) for posting_list in lists]
        strategy, source = self._decide(lists, k, terms)
        entry = self._merged.get(terms) if terms else None
        info: Dict[str, Any] = {
            "terms": list(terms),
            "k": k,
            "visible_lengths": visible,
            "true_lengths": true,
            "features": _features(visible, true, k),
            "strategy": strategy,
            "source": source,
            "model_fitted": self.model.fitted,
            "support": self._support.get(terms, 0),
            "merged_cached": entry is not None,
        }
        if self.model.fitted:
            info["predicted_cost"] = self.model.predict(visible, true, k)
        samples = self._memory.get(terms)
        if samples:
            info["memory"] = {
                strategy: {
                    "samples": int(bucket[0]),
                    "mean_elapsed": bucket[1] / bucket[0],
                }
                for strategy, bucket in sorted(samples.items())
            }
        return info

    def stats(self) -> Dict[str, Any]:
        """Aggregate counters for ``repro planner stats``."""
        by_strategy: Dict[str, int] = {}
        by_source: Dict[str, int] = {}
        for record in self.log:
            by_strategy[record.strategy] = (
                by_strategy.get(record.strategy, 0) + 1
            )
            by_source[record.source] = by_source.get(record.source, 0) + 1
        return {
            "log_records": len(self.log),
            "by_strategy": dict(sorted(by_strategy.items())),
            "by_source": dict(sorted(by_source.items())),
            "model_fitted": self.model.fitted,
            "model_samples": dict(self.model.samples),
            "term_sets_remembered": len(self._memory),
            "merged_cached": len(self._merged),
            "merged_hits": self.merged_hits,
            "merged_builds": self.merged_builds,
            "hot_combinations": [
                {"terms": list(terms), "support": support}
                for terms, support in self.hot_combinations()
            ],
        }

    # -- persistence ---------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the *calibration* state.

        Covers the fitted model, per-term-set memory and support
        counts — everything needed to reload a planner that makes the
        same choices.  The merged-ranking cache is deliberately
        excluded: it is bound to posting-list versions of the serving
        process and rebuilds cheaply (and safely) on first contact.
        """
        return {
            "format": FORMAT_VERSION,
            "hot_support": self.hot_support,
            "max_merged": self.max_merged,
            "refit_every": self.refit_every,
            "explore": self.explore,
            "model": self.model.to_payload(),
            "memory": [
                [
                    list(terms),
                    strategy,
                    int(bucket[0]),
                    float(bucket[1]),
                ]
                for terms, samples in sorted(self._memory.items())
                for strategy, bucket in sorted(samples.items())
            ],
            "support": [
                [list(terms), int(count)]
                for terms, count in sorted(self._support.items())
            ],
        }

    @classmethod
    def from_payload(
        cls,
        payload: Dict[str, Any],
        clock: Callable[[], float] = time.perf_counter,
    ) -> "CalibratedPlanner":
        fmt = payload.get("format")
        if fmt is None or int(fmt) > FORMAT_VERSION:
            raise SearchError(
                f"unsupported planner-model format {fmt!r}; "
                f"this build reads format <= {FORMAT_VERSION}"
            )
        model = CostModel.from_payload(payload["model"])
        planner = cls(
            min_samples=model.min_samples,
            hot_support=int(payload["hot_support"]),
            max_merged=int(payload["max_merged"]),
            refit_every=int(payload["refit_every"]),
            explore=bool(payload["explore"]),
            clock=clock,
        )
        planner.model = model
        for terms, strategy, count, total in payload.get("memory", []):
            samples = planner._memory.setdefault(tuple(terms), {})
            samples[str(strategy)] = [int(count), float(total)]
        for terms, count in payload.get("support", []):
            planner._support[tuple(terms)] = int(count)
        return planner

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_payload(), handle, sort_keys=True, indent=2)
            handle.write("\n")

    @classmethod
    def load(
        cls,
        path: str,
        clock: Callable[[], float] = time.perf_counter,
    ) -> "CalibratedPlanner":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SearchError(
                f"cannot read planner model {path!r}: {exc}"
            ) from None
        return cls.from_payload(payload, clock=clock)
