"""Vectorized posting construction over one term's document columns.

The engines score a term's postings as ``relevance(d, t) × max(overlapping
pattern scores)`` (Eq. 10/11).  :func:`repro.search.engine.score_posting`
does it one document object and one pattern at a time; over a term's
:class:`TermColumns` — which both the batch
:class:`~repro.columnar.collection.ColumnarCollection` and the live
:class:`~repro.live.collection.LiveCollection` hand out — the same
computation is a handful of array operations per pattern:

* pattern/document overlap becomes a per-stream ``[start, end]``
  bounds table indexed by the documents' stream codes — one vectorized
  comparison per pattern instead of a Python call per (document,
  pattern) pair;
* the paper's max-aggregation is an elementwise ``np.maximum`` (exact
  regardless of order);
* ``log(freq + 1)`` is computed once per *distinct* frequency with
  ``math.log`` — identical doubles, since ``np.log`` over an array may
  round differently by an ulp;
* the final posting order comes from one stable ``lexsort`` inside
  :class:`~repro.columnar.postings.PostingArray`.

Unsupported relevance callables or pattern types return ``None`` so the
engine can fall back to the per-document reference loop — which is also
the differential-test oracle for this module.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    Hashable,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.columnar.postings import PostingArray
from repro.core.patterns import CombinatorialPattern, RegionalPattern
from repro.search.relevance import (
    binary_relevance,
    log_relevance,
    raw_relevance,
)

__all__ = ["TermColumns", "columnar_postings", "vectorizable_relevance"]


class TermColumns(NamedTuple):
    """The documents containing one term, as parallel columns.

    Row order is the order equal-key postings keep (``PostingArray``
    sorts stably): collection order for the batch engine, arrival order
    for the live one.
    """

    timestamps: np.ndarray
    stream_codes: np.ndarray
    frequencies: np.ndarray
    tiebreaks: np.ndarray
    #: The collection's document ids; ``doc_ids[rows[i]]`` is the id of
    #: row ``i``, looked up only for the rows that score.
    doc_ids: Sequence[Hashable]
    rows: np.ndarray
    #: stream id → the code ``stream_codes`` holds for it.
    stream_code: Mapping[Hashable, int]


def vectorizable_relevance(relevance) -> bool:
    """True when :func:`columnar_postings` can vectorize this callable.

    Lets the engine gate the (O(corpus)) columnar snapshot build before
    paying for it.
    """
    return relevance in (log_relevance, raw_relevance, binary_relevance)

#: Sentinel bounds marking a stream as a non-member (empty interval).
_NO_MEMBER = (1, 0)


def _pattern_bounds(
    pattern, stream_code: Mapping[Hashable, int]
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Per-stream-code ``[start, end]`` overlap table of one pattern.

    Returns ``None`` for pattern types whose overlap semantics this
    module does not know — the caller then falls back to the reference
    scorer.
    """
    n_streams = len(stream_code)
    starts = np.full(n_streams, _NO_MEMBER[0], dtype=np.int64)
    ends = np.full(n_streams, _NO_MEMBER[1], dtype=np.int64)
    if isinstance(pattern, RegionalPattern):
        members = (
            pattern.bursty_streams if pattern.bursty_streams else pattern.streams
        )
        frame = pattern.timeframe
        for sid in members:
            code = stream_code.get(sid)
            if code is not None:
                starts[code] = frame.start
                ends[code] = frame.end
        return starts, ends
    if isinstance(pattern, CombinatorialPattern):
        assigned = set()
        for sid, interval, _ in pattern.member_intervals:
            if sid in assigned or sid not in pattern.streams:
                continue
            assigned.add(sid)
            code = stream_code.get(sid)
            if code is not None:
                starts[code] = interval.start
                ends[code] = interval.end
        frame = pattern.timeframe
        for sid in pattern.streams:
            if sid in assigned:
                continue
            code = stream_code.get(sid)
            if code is not None:
                starts[code] = frame.start
                ends[code] = frame.end
        return starts, ends
    from repro.search.engine import TemporalPattern

    if isinstance(pattern, TemporalPattern):
        # Origin-agnostic: the TB baseline's timeframe-only overlap.
        frame = pattern.timeframe
        starts[:] = frame.start
        ends[:] = frame.end
        return starts, ends
    return None  # unknown pattern type → reference path


def _relevance_column(
    relevance, frequencies: np.ndarray
) -> Optional[np.ndarray]:
    """Per-document relevance values, or ``None`` if not vectorizable."""
    if relevance is log_relevance:
        cache: Dict[int, float] = {}
        values = []
        for frequency in frequencies.tolist():
            cached = cache.get(frequency)
            if cached is None:
                cached = math.log(frequency + 1.0)
                cache[frequency] = cached
            values.append(cached)
        return np.asarray(values)
    if relevance is raw_relevance:
        return frequencies.astype(float)
    if relevance is binary_relevance:
        return (frequencies > 0).astype(float)
    return None


def columnar_postings(
    columns: TermColumns,
    patterns: Sequence,
    relevance,
) -> Optional[PostingArray]:
    """One term's posting list, built from its columns.

    Byte-identical to scoring every document with
    :func:`repro.search.engine.score_posting` and sorting the result;
    returns ``None`` when the relevance function or a pattern type is
    outside the vectorizable set.
    """
    n_rows = len(columns.timestamps)
    if not patterns or n_rows == 0:
        return PostingArray([], [])
    rel = _relevance_column(relevance, columns.frequencies)
    if rel is None:
        return None
    timestamps = columns.timestamps
    codes = columns.stream_codes
    aggregate = np.full(n_rows, -np.inf)
    included = np.zeros(n_rows, dtype=bool)
    for pattern in patterns:
        bounds = _pattern_bounds(pattern, columns.stream_code)
        if bounds is None:
            return None
        starts, ends = bounds
        mask = (timestamps >= starts[codes]) & (timestamps <= ends[codes])
        np.maximum(aggregate, pattern.score, out=aggregate, where=mask)
        included |= mask
    if not included.any():
        return PostingArray([], [])
    doc_ids = columns.doc_ids
    return PostingArray(
        [doc_ids[row] for row in columns.rows[included].tolist()],
        rel[included] * aggregate[included],
        tiebreaks=columns.tiebreaks[included],
    )
