"""Segment codecs: library objects ⇄ little-endian buffers + JSON skeletons.

Each codec pairs an ``encode_*`` (writes into a
:class:`~repro.store.format.SegmentWriter` under a name prefix) with a
``decode_*`` (reads from a :class:`~repro.store.format.SegmentReader`).
The split follows one rule everywhere: **numeric payloads** — scores,
tiebreaks, geometry, timestamps — live in binary NumPy buffers so every
float round-trips bit for bit (NaN payloads and subnormals included);
**structure** — term names, per-term counts, identifiers that are not
integers — lives in JSON skeletons whose list order preserves the
in-memory iteration order the algorithms depend on.  Integer codes and
ids are columns at their narrowest width.

Codecs:

* **documents** — a :class:`~repro.columnar.collection.
  DocumentColumns` table: doc-id table, stream codes, timestamps, and a
  CSR of int-coded per-document term counts.  Rows keep the writer's
  order — a batch collection's column snapshot (document iteration
  order), or a live checkpoint's arrival order (term multiplicity is
  preserved; intra-document token interleaving, which no algorithm
  observes, is not).
* **postings** — per-term :class:`~repro.columnar.postings.
  PostingArray` columns as one CSR over a shared doc-id table, plus a
  *shadow* CSR for random-access-only entries (documents a
  :meth:`~repro.columnar.postings.PostingArray.truncated` list still
  answers for but no longer exposes to sorted access).
* **patterns** — :class:`~repro.core.patterns.RegionalPattern` /
  :class:`~repro.core.patterns.CombinatorialPattern` maps; stream ids
  as a CSR of codes into one stream-id column (format v3; earlier
  stores spell them in the JSON skeleton and still decode).
* **config** — the STLocal settings of live checkpoints and of an
  index's ``miner_config``.

Stores written before tracker state became derived state also carry
``trackers/`` (and ``trackers_streams/``) segments; nothing reads them.
"""

from __future__ import annotations

import itertools
import os
import zlib
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.columnar.collection import DocumentColumns
from repro.columnar.postings import PackedPostingArray, PostingArray
from repro.core.config import STLocalConfig
from repro.core.patterns import CombinatorialPattern, RegionalPattern
from repro.errors import StoreCorruptionError, StoreError, StoreIOError
from repro.faults.io import store_io
from repro.intervals.interval import Interval
from repro.search.inverted_index import random_access_map
from repro.spatial.geometry import Point, Rectangle
from repro.store.format import (
    SegmentReader,
    SegmentWriter,
    decode_id_column,
    encode_id_column,
    narrowest_int_array,
)
from repro.temporal.baselines import RunningMeanBaseline

__all__ = [
    "decode_config",
    "decode_patterns",
    "decode_posting_list",
    "encode_config",
    "encode_patterns",
    "encode_posting_lists",
    "write_document_columns",
    "PostingSegment",
]


def _id_table(
    id_sets: Sequence[Iterable[Hashable]],
) -> Tuple[List[Hashable], Callable[[Hashable], int]]:
    """One stream-id column for many id sets, and each id's code in it.

    The column lists every distinct id once, sorted by ``repr``, so a
    set's codes in ascending order list its ids as
    ``sorted(ids, key=repr)`` does.  When every id is a ``str``, an
    ``int`` or ``None`` — the types whose equal values share one
    ``repr`` — ids are told apart by value.  Any other mix
    (``1 == 1.0 == True``, ``0.0 == -0.0``) is told apart by type and
    ``repr``, so each id decodes as the value it was, after every id is
    checked to be a JSON scalar: ids embedded in a store must survive
    the round trip (a tuple id would silently decode as a list and
    break frozenset reconstruction), so non-scalars are refused at save
    time — a store that commits must always load.
    """
    types = set()
    for ids in id_sets:
        types.update(map(type, ids))
    if types <= {str, int, type(None)}:
        distinct = dict.fromkeys(itertools.chain.from_iterable(id_sets))
        table = sorted(distinct, key=repr)
        return table, dict(zip(table, range(len(table)))).__getitem__
    keyed: Dict[Tuple[type, str], Hashable] = {}
    for value in itertools.chain.from_iterable(id_sets):
        key = (type(value), repr(value))
        if key not in keyed:
            _check_json_id(value)
            keyed[key] = value
    keys = sorted(keyed, key=lambda key: (key[1], key[0].__name__))
    code = dict(zip(keys, range(len(keys))))
    return [keyed[key] for key in keys], (
        lambda value: code[(type(value), repr(value))]
    )


def _check_json_id(value: Hashable) -> None:
    if value is not None and not isinstance(value, (str, int, float, bool)):
        raise StoreError(
            f"stream id {value!r} of type {type(value).__name__} is "
            "not persistable: ids must be ints, strings, floats, "
            "bools or None to survive a store round-trip"
        )


def _write_id_column(writer: SegmentWriter, prefix: str, name: str, ids) -> str:
    """Persist an id column, returning the kind recorded in the skeleton.

    Integer ids are stored at their narrowest width; the kind name
    stays ``int64`` for every width.
    """
    encoded = encode_id_column(ids)
    if encoded["kind"] == "int64":
        writer.add_array(
            f"{prefix}/{name}.npy", narrowest_int_array(encoded["array"])
        )
    else:
        writer.add_json(f"{prefix}/{name}.json", encoded["values"])
    return encoded["kind"]


def _read_int_column(reader: SegmentReader, name: str) -> np.ndarray:
    """An integer column as a plain ``ndarray`` view of the frozen map.

    (Indexing a ``np.memmap`` runs its Python-level ``__getitem__``.)

    Raises:
        StoreCorruptionError: naming the file, when its stored dtype is
            not an integer kind — a float code would index as garbage
            or fail far from the cause.
    """
    column = np.asarray(reader.array(name))
    if column.dtype.kind not in "iu":
        raise StoreCorruptionError(
            f"store {reader.path!r}: {name} holds {column.dtype} values, "
            "not integers — the store is corrupted; re-create it with "
            "`repro save`"
        )
    return column


def _read_id_column(
    reader: SegmentReader, prefix: str, name: str, kind: str
) -> List[Hashable]:
    if kind == "int64":
        return decode_id_column(
            kind, _read_int_column(reader, f"{prefix}/{name}.npy")
        )
    return decode_id_column(kind, reader.json(f"{prefix}/{name}.json"))


# ----------------------------------------------------------------------
# Documents / collection
# ----------------------------------------------------------------------
def write_document_columns(
    writer: SegmentWriter,
    prefix: str,
    timeline: int,
    locations: Dict[Hashable, Point],
    columns: DocumentColumns,
) -> None:
    """Persist a columnar document table plus the stream table.

    ``columns.stream_codes`` index ``locations`` in its iteration order.
    Every integer column, ids included, is stored at its narrowest
    width (:func:`~repro.store.format.narrowest_int_array`).
    """
    stream_ids = list(locations)
    streams_kind = _write_id_column(writer, prefix, "stream_ids", stream_ids)
    writer.add_array(
        f"{prefix}/stream_x.npy",
        np.asarray([locations[sid].x for sid in stream_ids], dtype="<f8"),
    )
    writer.add_array(
        f"{prefix}/stream_y.npy",
        np.asarray([locations[sid].y for sid in stream_ids], dtype="<f8"),
    )
    for event_id in columns.event_ids.values():
        if not isinstance(event_id, (str, int, float, bool)):
            raise StoreError(
                f"event id {event_id!r} is not a JSON scalar and cannot "
                "be persisted"
            )

    doc_kind = _write_id_column(writer, prefix, "doc_ids", columns.doc_ids)
    for name, column in (
        ("stream_codes", columns.stream_codes),
        ("timestamps", columns.timestamps),
        ("term_indptr", columns.term_indptr),
        ("term_codes", columns.term_codes),
        ("term_counts", columns.term_counts),
    ):
        writer.add_array(f"{prefix}/{name}.npy", narrowest_int_array(column))
    writer.add_json(
        f"{prefix}/meta.json",
        {
            "timeline": timeline,
            "documents": len(columns.doc_ids),
            "doc_id_kind": doc_kind,
            "stream_id_kind": streams_kind,
            "vocabulary": list(columns.vocabulary),
            "event_ids": dict(columns.event_ids),
        },
    )


# ----------------------------------------------------------------------
# Posting lists
# ----------------------------------------------------------------------
def _posting_term_crc(
    rows: np.ndarray, scores: np.ndarray, ties: np.ndarray
) -> int:
    """CRC-32 over one term's decoded posting columns.

    Computed over the canonical ``<i8`` row / ``<f8`` score-bit /
    ``<i8`` tie byte streams, so raw and packed encodings of the same
    term agree — the audit key of degraded-mode serving.
    """
    crc = zlib.crc32(np.ascontiguousarray(rows, dtype="<i8").tobytes())
    crc = zlib.crc32(np.ascontiguousarray(scores, dtype="<f8").tobytes(), crc)
    crc = zlib.crc32(np.ascontiguousarray(ties, dtype="<i8").tobytes(), crc)
    return crc & 0xFFFFFFFF


def encode_posting_lists(
    writer: SegmentWriter,
    prefix: str,
    lists: Dict[str, PostingArray],
    codec: str = "raw",
) -> None:
    """Persist per-term posting columns as one CSR over a doc-id table.

    The *visible* CSR holds each list's sorted-access columns (document
    rows, score bits, tiebreaks); the *shadow* CSR holds random-access
    entries beyond the visible prefix, which pruned
    (:meth:`~repro.columnar.postings.PostingArray.truncated`) lists
    carry — both sides round-trip, so a reloaded pruned list answers
    random access for exactly the documents the original did.

    ``codec`` picks the on-disk layout of the visible CSR: ``"raw"``
    writes plain ``<i8``/``<f8`` columns (byte-identical to format v1),
    ``"packed"`` writes the block-compressed layout of
    :mod:`repro.store.codec` (format v2).  Both decode to byte-identical
    posting lists; the shadow CSR stays raw either way (it only exists
    for pruned lists and is read whole).
    """
    table: Dict[Hashable, int] = {}
    terms = list(lists)
    indptr: List[int] = [0]
    rows: List[int] = []
    scores: List[float] = []
    ties: List[int] = []
    shadow_indptr: List[int] = [0]
    shadow_rows: List[int] = []
    shadow_scores: List[float] = []
    for term in terms:
        posting_list = lists[term]
        col_ids, col_scores, col_ties = posting_list.columns()
        visible_ids = list(col_ids)
        scores.extend(float(s) for s in np.asarray(col_scores, dtype="<f8"))
        ties.extend(int(t) for t in np.asarray(col_ties, dtype="<i8"))
        for doc_id in visible_ids:
            rows.append(table.setdefault(doc_id, len(table)))
        indptr.append(len(rows))
        seen = set(visible_ids)
        for doc_id, score in random_access_map(posting_list).items():
            if doc_id in seen:
                continue
            shadow_rows.append(table.setdefault(doc_id, len(table)))
            shadow_scores.append(score)
        shadow_indptr.append(len(shadow_rows))

    doc_kind = _write_id_column(writer, prefix, "doc_table", list(table))
    rows_arr = np.asarray(rows, dtype="<i8")
    scores_arr = np.asarray(scores, dtype="<f8")
    ties_arr = np.asarray(ties, dtype="<i8")
    meta: Dict[str, Any] = {
        "terms": terms,
        "doc_id_kind": doc_kind,
        "entries": len(rows),
        # CRC-32 per term over its decoded (rows, score bits, ties)
        # column slice — codec-independent, so a reader can audit one
        # term's postings without trusting the rest of the file.  The
        # key is additive: pre-existing stores without it still load.
        "term_crcs": [
            _posting_term_crc(
                rows_arr[indptr[i] : indptr[i + 1]],
                scores_arr[indptr[i] : indptr[i + 1]],
                ties_arr[indptr[i] : indptr[i + 1]],
            )
            for i in range(len(terms))
        ],
    }
    if codec == "packed":
        # Readers without the key default to "raw", so raw meta stays
        # byte-identical to format v1 skeletons.
        from repro.store.codec import (
            PACK_BLOCK,
            pack_int_lists,
            pack_score_lists,
        )

        meta["codec"] = "packed"
        meta["block"] = PACK_BLOCK
    elif codec != "raw":
        raise StoreError(f"unknown posting codec {codec!r}")
    writer.add_json(f"{prefix}/meta.json", meta)
    writer.add_array(f"{prefix}/indptr.npy", np.asarray(indptr, dtype="<i8"))
    if codec == "packed":
        packed_rows = pack_int_lists(rows, indptr)
        packed_ties = pack_int_lists(ties, indptr)
        packed_scores = pack_score_lists(scores, indptr)
        writer.add_array(f"{prefix}/rows_payload.npy", packed_rows["payload"])
        writer.add_array(f"{prefix}/rows_meta.npy", packed_rows["meta"])
        writer.add_array(
            f"{prefix}/rows_blocks.npy", packed_rows["block_indptr"]
        )
        writer.add_array(f"{prefix}/ties_payload.npy", packed_ties["payload"])
        writer.add_array(f"{prefix}/ties_meta.npy", packed_ties["meta"])
        writer.add_array(
            f"{prefix}/ties_blocks.npy", packed_ties["block_indptr"]
        )
        writer.add_array(f"{prefix}/scores_dict.npy", packed_scores["dict"])
        writer.add_array(
            f"{prefix}/scores_payload.npy", packed_scores["payload"]
        )
        writer.add_array(f"{prefix}/scores_meta.npy", packed_scores["meta"])
        writer.add_array(
            f"{prefix}/scores_residual.npy", packed_scores["residual"]
        )
        writer.add_array(
            f"{prefix}/scores_bounds.npy", packed_scores["bounds"]
        )
        writer.add_array(
            f"{prefix}/scores_blocks.npy", packed_scores["block_indptr"]
        )
    else:
        writer.add_array(f"{prefix}/rows.npy", rows_arr)
        writer.add_array(f"{prefix}/scores.npy", scores_arr)
        writer.add_array(f"{prefix}/ties.npy", ties_arr)
    writer.add_array(
        f"{prefix}/shadow_indptr.npy", np.asarray(shadow_indptr, dtype="<i8")
    )
    writer.add_array(
        f"{prefix}/shadow_rows.npy", np.asarray(shadow_rows, dtype="<i8")
    )
    writer.add_array(
        f"{prefix}/shadow_scores.npy", np.asarray(shadow_scores, dtype="<f8")
    )


class PostingSegment:
    """Lazy reader over a persisted posting segment.

    The score and tiebreak columns stay memory-mapped; a term's
    :class:`~repro.columnar.postings.PostingArray` is materialised only
    when that term is first requested (its doc-id list is gathered from
    the shared table; the numeric columns are served as zero-copy
    slices of the mapped buffers).
    """

    #: When ``True`` (degraded-mode loading), every first touch of a
    #: term audits its decoded columns against the per-term CRC before
    #: serving — a :class:`~repro.errors.StoreCorruptionError` names the
    #: damaged term instead of silently returning wrong postings.
    verify_terms = False

    def __init__(self, reader: SegmentReader, prefix: str) -> None:
        self._reader = reader
        self._prefix = prefix
        meta = reader.json(f"{prefix}/meta.json")
        self.terms: List[str] = list(meta["terms"])
        self.codec: str = str(meta.get("codec", "raw"))
        self._term_crcs: Optional[List[int]] = meta.get("term_crcs")
        self._term_index = {term: i for i, term in enumerate(self.terms)}
        self._table = _read_id_column(
            reader, prefix, "doc_table", meta["doc_id_kind"]
        )
        self._indptr = reader.array(f"{prefix}/indptr.npy")
        if self.codec == "packed":
            from repro.store.codec import PackedIntLists, PackedScoreLists

            self._rows_packed = PackedIntLists(
                reader.array(f"{prefix}/rows_payload.npy"),
                reader.array(f"{prefix}/rows_meta.npy"),
                reader.array(f"{prefix}/rows_blocks.npy"),
                self._indptr,
            )
            self._ties_packed = PackedIntLists(
                reader.array(f"{prefix}/ties_payload.npy"),
                reader.array(f"{prefix}/ties_meta.npy"),
                reader.array(f"{prefix}/ties_blocks.npy"),
                self._indptr,
            )
            self._scores_packed = PackedScoreLists(
                reader.array(f"{prefix}/scores_payload.npy"),
                reader.array(f"{prefix}/scores_meta.npy"),
                reader.array(f"{prefix}/scores_dict.npy"),
                reader.array(f"{prefix}/scores_residual.npy"),
                reader.array(f"{prefix}/scores_bounds.npy"),
                reader.array(f"{prefix}/scores_blocks.npy"),
                self._indptr,
            )
        elif self.codec == "raw":
            self._rows = reader.array(f"{prefix}/rows.npy")
            self._scores = reader.array(f"{prefix}/scores.npy")
            self._ties = reader.array(f"{prefix}/ties.npy")
        else:
            raise StoreError(
                f"posting segment {prefix!r} uses unknown codec "
                f"{self.codec!r}"
            )
        self._shadow_indptr = reader.array(f"{prefix}/shadow_indptr.npy")
        self._shadow_rows = reader.array(f"{prefix}/shadow_rows.npy")
        self._shadow_scores = reader.array(f"{prefix}/shadow_scores.npy")

    def __contains__(self, term: str) -> bool:
        return term in self._term_index

    def posting_array(self, term: str):
        """The term's reloaded posting list, or ``None`` when absent.

        Raises:
            StoreIOError: on a (possibly transient) read failure of the
                term's backing column file — callers may retry once.
            StoreCorruptionError: in ``verify_terms`` mode, when the
                term's decoded columns fail their stored CRC.
        """
        index = self._term_index.get(term)
        if index is None:
            return None
        probe = os.path.join(
            self._reader.path,
            self._prefix,
            "scores_payload.npy" if self.codec == "packed" else "scores.npy",
        )
        try:
            store_io().check_read(probe)
        except OSError as exc:
            raise StoreIOError(
                f"I/O error reading posting column for term {term!r} at "
                f"{probe!r}: {exc}"
            ) from None
        if self.verify_terms:
            self.check_term(term)
        return decode_posting_list(self, index)

    def check_term(self, term: str) -> None:
        """Audit one term's decoded columns against its stored CRC.

        A full decode-and-checksum pass — the degraded-serving audit
        surface, not the hot path.  Raises
        :class:`~repro.errors.StoreCorruptionError` naming the term and
        segment when the columns fail to decode or mismatch.
        """
        index = self._term_index[term]
        where = (
            f"posting column for term {term!r} in segment "
            f"{self._prefix!r} of store {self._reader.path!r}"
        )
        if self._term_crcs is None:
            raise StoreCorruptionError(
                f"cannot audit {where}: the store predates per-term "
                "checksums (no 'term_crcs' in postings meta) — re-save "
                "it to enable per-term damage isolation"
            )
        try:
            if self.codec == "packed":
                rows = self._rows_packed.decode_list(index)
                scores = self._scores_packed.decode_list(index)
                ties = self._ties_packed.decode_list(index)
            else:
                lo = int(self._indptr[index])
                hi = int(self._indptr[index + 1])
                rows = self._rows[lo:hi]
                scores = self._scores[lo:hi]
                ties = self._ties[lo:hi]
            crc = _posting_term_crc(
                np.asarray(rows), np.asarray(scores), np.asarray(ties)
            )
        except StoreCorruptionError:
            raise
        except (
            StoreError,
            ValueError,
            IndexError,
            KeyError,
            OverflowError,
        ) as exc:
            raise StoreCorruptionError(
                f"{where} fails to decode: {exc}"
            ) from None
        expected = int(self._term_crcs[index])
        if crc != expected:
            raise StoreCorruptionError(
                f"checksum mismatch in {where}: expected crc32 "
                f"{expected:#010x}, found {crc:#010x}"
            )

    # -- raw column access (verification) ------------------------------
    def columns(self, term: str):
        """Raw ``(doc_ids, scores, ties)`` of a stored term's visible CSR.

        On a packed segment this decodes the term's blocks in full —
        it is the verification/audit surface, not the serving path.
        """
        index = self._term_index[term]
        if self.codec == "packed":
            rows = self._rows_packed.decode_list(index)
            ids = [self._table[row] for row in rows.tolist()]
            return (
                ids,
                self._scores_packed.decode_list(index),
                self._ties_packed.decode_list(index),
            )
        lo, hi = int(self._indptr[index]), int(self._indptr[index + 1])
        ids = [self._table[row] for row in self._rows[lo:hi].tolist()]
        return ids, self._scores[lo:hi], self._ties[lo:hi]


class _PackedTermSource:
    """Block-lazy column access for one term of a packed segment.

    The contract :class:`~repro.columnar.postings.PackedPostingArray`
    and the top-k kernel program against: full-column reads
    (:meth:`ids`, :meth:`scores`, :meth:`ties`) decode once and cache;
    the granular reads (:meth:`score_at`, the slice/take methods)
    touch only the covering blocks until a full decode has happened.
    """

    def __init__(self, segment: PostingSegment, index: int) -> None:
        self._segment = segment
        self._index = index
        self.length = segment._rows_packed.length(index)
        self._ids_cache: Optional[List[Hashable]] = None
        self._scores_cache: Optional[np.ndarray] = None
        self._ties_cache: Optional[np.ndarray] = None

    def ids(self) -> List[Hashable]:
        if self._ids_cache is None:
            rows = self._segment._rows_packed.decode_list(self._index)
            table = self._segment._table
            self._ids_cache = [table[row] for row in rows.tolist()]
        return self._ids_cache

    def ids_prefix(self, k: int) -> List[Hashable]:
        """The first ``k`` doc ids, decoding only the covering blocks."""
        if self._ids_cache is not None:
            return self._ids_cache[:k]
        rows = self._segment._rows_packed.decode_range(self._index, 0, k)
        table = self._segment._table
        return [table[row] for row in rows.tolist()]

    def scores(self) -> np.ndarray:
        if self._scores_cache is None:
            self._scores_cache = self._segment._scores_packed.decode_list(
                self._index
            )
        return self._scores_cache

    def ties(self) -> np.ndarray:
        if self._ties_cache is None:
            self._ties_cache = self._segment._ties_packed.decode_list(
                self._index
            )
        return self._ties_cache

    def score_at(self, rank: int) -> float:
        if self._scores_cache is not None:
            return float(self._scores_cache[rank])
        return self._segment._scores_packed.value_at(self._index, rank)

    def scores_slice(self, lo: int, hi: int) -> np.ndarray:
        if self._scores_cache is not None:
            return self._scores_cache[lo:hi]
        return self._segment._scores_packed.decode_range(self._index, lo, hi)

    def ties_slice(self, lo: int, hi: int) -> np.ndarray:
        if self._ties_cache is not None:
            return self._ties_cache[lo:hi]
        return self._segment._ties_packed.decode_range(self._index, lo, hi)

    def scores_take(self, slots: np.ndarray) -> np.ndarray:
        if self._scores_cache is not None:
            return self._scores_cache[slots]
        return self._segment._scores_packed.take(self._index, slots)


def decode_posting_list(segment: PostingSegment, index: int):
    """Materialise one term's :class:`PostingArray` from a segment.

    Raw segments serve score/tiebreak slices as zero-copy views of the
    mapped buffers; packed segments return a
    :class:`~repro.columnar.postings.PackedPostingArray` whose columns
    decode block-by-block on first touch.  A term with shadow entries
    (a pruned list) decodes its visible columns eagerly to seed the
    random-access map — exactly what the raw path materialises too.
    """
    s_lo = int(segment._shadow_indptr[index])
    s_hi = int(segment._shadow_indptr[index + 1])
    if segment.codec == "packed":
        source = _PackedTermSource(segment, index)
        by_doc = None
        if s_hi > s_lo:
            by_doc = dict(zip(source.ids(), source.scores().tolist()))
            for row, score in zip(
                segment._shadow_rows[s_lo:s_hi].tolist(),
                segment._shadow_scores[s_lo:s_hi].tolist(),
            ):
                by_doc[segment._table[row]] = score
        packed_array = PackedPostingArray(source, random_access=by_doc)
        # The save input is a one-entry-per-document relation, so the
        # single-list scan shortcut may trust the columns.
        packed_array.ids_unique = True
        return packed_array

    lo, hi = int(segment._indptr[index]), int(segment._indptr[index + 1])
    ids = [segment._table[row] for row in segment._rows[lo:hi].tolist()]
    by_doc = None
    if s_hi > s_lo:
        by_doc = dict(zip(ids, segment._scores[lo:hi].tolist()))
        for row, score in zip(
            segment._shadow_rows[s_lo:s_hi].tolist(),
            segment._shadow_scores[s_lo:s_hi].tolist(),
        ):
            by_doc[segment._table[row]] = score
    array = PostingArray.from_columns(
        ids,
        segment._scores[lo:hi],
        segment._ties[lo:hi],
        random_access=by_doc,
    )
    array.ids_unique = True
    return array


# ----------------------------------------------------------------------
# Patterns
# ----------------------------------------------------------------------
def encode_patterns(
    writer: SegmentWriter,
    prefix: str,
    patterns: Dict[str, Sequence],
    pattern_type: str,
) -> None:
    """Persist a term → patterns map (``regional`` or ``combinatorial``).

    Stream ids are stored once, in one stream-id column
    (``stream_ids``, ranked by ``repr``; see :func:`_id_table`).  Each
    pattern owns two consecutive entries of one CSR of codes into it
    (``sets_indptr``/``set_codes``): its stream set, ascending, then
    its bursty set (regional; ``bursty_none`` flags a ``None``) or its
    members' ids in member order (combinatorial).  ``meta.json`` keeps
    the pattern type, the terms in map order and each term's pattern
    count; frames, scores, geometry and member intervals are columns
    in pattern order, as before.
    """
    if pattern_type not in ("regional", "combinatorial"):
        raise StoreError(f"unknown pattern type {pattern_type!r}")
    writer.require_version(3)
    regional = pattern_type == "regional"
    geometry: List[Tuple[float, float, float, float]] = []
    frames: List[Tuple[int, int]] = []
    scores: List[float] = []
    member_frames: List[Tuple[int, int]] = []
    member_scores: List[float] = []
    counts: List[int] = []
    set_indptr: List[int] = [0]
    set_codes: List[int] = []
    bursty_none: List[bool] = []
    table, code_of = _id_table(
        [
            ids
            for term_patterns in patterns.values()
            for pattern in term_patterns
            for ids in (
                (pattern.streams, pattern.bursty_streams or ())
                if regional
                else (
                    pattern.streams,
                    [member[0] for member in pattern.member_intervals],
                )
            )
        ]
    )
    for term_patterns in patterns.values():
        counts.append(len(term_patterns))
        for pattern in term_patterns:
            frames.append((pattern.timeframe.start, pattern.timeframe.end))
            scores.append(pattern.score)
            set_codes.extend(sorted(map(code_of, pattern.streams)))
            set_indptr.append(len(set_codes))
            if regional:
                region = pattern.region
                geometry.append(
                    (region.min_x, region.min_y, region.max_x, region.max_y)
                )
                bursty = pattern.bursty_streams
                bursty_none.append(bursty is None)
                if bursty is not None:
                    set_codes.extend(sorted(map(code_of, bursty)))
            else:
                for sid, interval, score in pattern.member_intervals:
                    set_codes.append(code_of(sid))
                    member_frames.append((interval.start, interval.end))
                    member_scores.append(score)
            set_indptr.append(len(set_codes))
    stream_kind = _write_id_column(writer, prefix, "stream_ids", table)
    writer.add_json(
        f"{prefix}/meta.json",
        {
            "type": pattern_type,
            "stream_id_kind": stream_kind,
            "terms": list(patterns),
            "counts": counts,
        },
    )
    writer.add_array(
        f"{prefix}/sets_indptr.npy", narrowest_int_array(set_indptr)
    )
    writer.add_array(f"{prefix}/set_codes.npy", narrowest_int_array(set_codes))
    writer.add_array(f"{prefix}/frames.npy", np.asarray(frames, dtype="<i8"))
    writer.add_array(f"{prefix}/scores.npy", np.asarray(scores, dtype="<f8"))
    if regional:
        writer.add_array(
            f"{prefix}/bursty_none.npy", np.asarray(bursty_none, dtype="|u1")
        )
        writer.add_array(
            f"{prefix}/geometry.npy", np.asarray(geometry, dtype="<f8")
        )
    else:
        writer.add_array(
            f"{prefix}/member_frames.npy",
            np.asarray(member_frames, dtype="<i8"),
        )
        writer.add_array(
            f"{prefix}/member_scores.npy",
            np.asarray(member_scores, dtype="<f8"),
        )


#: Each pattern's term (as ``(term, pattern count)`` pairs), its stream
#: ids, and its bursty ids (``None`` when flagged) or member ids.
_PatternIdSets = Tuple[List[Tuple[str, int]], List[List[Hashable]], List[Any]]


def _skeleton_id_sets(meta: Dict[str, Any]) -> _PatternIdSets:
    """A v1/v2 segment's id sets, spelled in its JSON skeleton."""
    regional = meta["type"] == "regional"
    terms: List[Tuple[str, int]] = []
    streams: List[List[Hashable]] = []
    others: List[Any] = []
    for term_entry in meta["terms"]:
        entries = term_entry["patterns"]
        terms.append((term_entry["term"], len(entries)))
        for entry in entries:
            streams.append(entry["streams"])
            others.append(entry.get("bursty") if regional else entry["members"])
    return terms, streams, others


def _code_id_sets(
    reader: SegmentReader, prefix: str, meta: Dict[str, Any]
) -> _PatternIdSets:
    """A v3 segment's id sets, from its code columns.

    Raises:
        StoreCorruptionError: naming the file, when the code columns
            contradict each other or the stream-id column.
    """

    def refuse(name: str, problem: str) -> NoReturn:
        raise StoreCorruptionError(
            f"store {reader.path!r}: {prefix}/{name} {problem}"
        )

    if len(meta["terms"]) != len(meta["counts"]):
        refuse("meta.json", "lists terms and pattern counts of different lengths")
    terms = list(zip(meta["terms"], meta["counts"]))
    count = sum(meta["counts"])
    table = _read_id_column(reader, prefix, "stream_ids", meta["stream_id_kind"])
    indptr = _read_int_column(reader, f"{prefix}/sets_indptr.npy")
    codes = _read_int_column(reader, f"{prefix}/set_codes.npy")
    if (
        len(indptr) != 2 * count + 1
        or indptr[0] != 0
        or indptr[-1] != len(codes)
        or (indptr[1:] < indptr[:-1]).any()
    ):
        refuse(
            "sets_indptr.npy",
            "is not a non-decreasing offset column of two sets for each "
            f"of {count} patterns over set_codes",
        )
    if len(codes) and (codes.min() < 0 or codes.max() >= len(table)):
        refuse(
            "set_codes.npy",
            f"holds a code outside the stream-id column [0, {len(table)})",
        )
    ids = list(map(table.__getitem__, codes.tolist()))
    bounds = indptr.tolist()
    sets = [ids[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    others: List[Any] = sets[1::2]
    if meta["type"] == "regional":
        flags = _read_int_column(reader, f"{prefix}/bursty_none.npy")
        if len(flags) != count:
            refuse("bursty_none.npy", f"does not flag {count} patterns")
        others = [
            None if flag else bursty
            for flag, bursty in zip(flags.tolist(), others)
        ]
    return terms, sets[0::2], others


def decode_patterns(
    reader: SegmentReader, prefix: str
) -> Tuple[str, Dict[str, List]]:
    """Rebuild ``(pattern_type, term → patterns)`` from a segment.

    Reads both layouts: the code columns of format v3 and the JSON
    skeleton of earlier stores (see :func:`encode_patterns`).
    """
    meta = reader.json(f"{prefix}/meta.json")
    pattern_type: str = meta["type"]
    regional = pattern_type == "regional"
    # One bulk conversion per column: per-element indexing of a memmap
    # re-enters NumPy on every scalar and dominates cold-start time.
    frames = _read_int_column(reader, f"{prefix}/frames.npy").tolist()
    scores = reader.array(f"{prefix}/scores.npy").tolist()
    if regional:
        geometry = reader.array(f"{prefix}/geometry.npy").tolist()
    else:
        member_frames = _read_int_column(
            reader, f"{prefix}/member_frames.npy"
        ).tolist()
        member_scores = reader.array(f"{prefix}/member_scores.npy").tolist()
    if "stream_id_kind" in meta:
        terms, streams, others = _code_id_sets(reader, prefix, meta)
    else:
        terms, streams, others = _skeleton_id_sets(meta)
    columns = [("frames.npy", frames), ("scores.npy", scores)]
    if regional:
        columns.append(("geometry.npy", geometry))
    for name, column in columns:
        if len(column) != len(streams):
            raise StoreCorruptionError(
                f"store {reader.path!r}: {prefix}/{name} has {len(column)} "
                f"rows for {len(streams)} patterns"
            )
    patterns: Dict[str, List] = {}
    cursor = 0
    member_cursor = 0
    for term, pattern_count in terms:
        decoded = []
        for _ in range(pattern_count):
            frame = Interval(int(frames[cursor][0]), int(frames[cursor][1]))
            score = float(scores[cursor])
            if regional:
                bounds = geometry[cursor]
                bursty = others[cursor]
                decoded.append(
                    RegionalPattern(
                        term=term,
                        region=Rectangle(*(float(v) for v in bounds)),
                        streams=frozenset(streams[cursor]),
                        timeframe=frame,
                        score=score,
                        bursty_streams=(
                            None if bursty is None else frozenset(bursty)
                        ),
                    )
                )
            else:
                members = []
                for sid in others[cursor]:
                    members.append(
                        (
                            sid,
                            Interval(
                                int(member_frames[member_cursor][0]),
                                int(member_frames[member_cursor][1]),
                            ),
                            float(member_scores[member_cursor]),
                        )
                    )
                    member_cursor += 1
                decoded.append(
                    CombinatorialPattern(
                        term=term,
                        streams=frozenset(streams[cursor]),
                        timeframe=frame,
                        score=score,
                        member_intervals=tuple(members),
                    )
                )
            cursor += 1
        patterns[term] = decoded
    return pattern_type, patterns


# ----------------------------------------------------------------------
# STLocal configuration
# ----------------------------------------------------------------------
def encode_config(config: STLocalConfig) -> Dict[str, Any]:
    """STLocal settings as a JSON-safe dict (baseline must be default)."""
    try:
        probe = config.baseline_factory()
    except (TypeError, ValueError):
        # A factory the no-argument probe call cannot construct is not
        # the persistable paper default; fall through to the StoreError
        # below.  Other exception types are factory bugs and surface.
        probe = None
    if type(probe) is not RunningMeanBaseline:
        raise StoreError(
            "only the paper-default RunningMeanBaseline expectation model "
            "has a persistable state representation; a custom "
            "baseline_factory cannot be checkpointed"
        )
    return {
        "warmup": config.warmup,
        "key_by_geometry": config.key_by_geometry,
        "min_window_score": config.min_window_score,
        "track_history": config.track_history,
        "baseline_prior": probe._prior,
    }


def decode_config(payload: Dict[str, Any]) -> STLocalConfig:
    prior = payload.get("baseline_prior", 0.0)
    if prior == 0.0:
        factory = RunningMeanBaseline
    else:  # pragma: no cover - non-zero priors are a config edge case
        def factory(prior=prior):
            return RunningMeanBaseline(prior)

    return STLocalConfig(
        baseline_factory=factory,
        key_by_geometry=bool(payload["key_by_geometry"]),
        min_window_score=float(payload["min_window_score"]),
        warmup=int(payload["warmup"]),
        track_history=bool(payload["track_history"]),
    )
