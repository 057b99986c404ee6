"""Lazy document materialisation over stored collection segments.

Cold-starting a serving engine must not pay for objects the first
query never touches: a 50k-document corpus reconstructed eagerly costs
hundreds of milliseconds of pure ``Document``/dict churn, which is the
difference between a milliseconds cold start and one that merely
shaves the mining.  This module keeps the loaded document table in its
columnar (memory-mapped) form and materialises:

* **single documents on demand** — :class:`LazyDocumentMap` backs the
  engine's doc-id → document map; serving a top-k result materialises
  exactly ``k`` documents;
* **the full collection only when something genuinely needs it** —
  :class:`StoredCollection` answers scalar queries (``vocabulary``,
  ``document_count``, ``locations``) straight from the segment
  metadata and inflates the underlying
  :class:`~repro.streams.SpatiotemporalCollection` the first time a
  caller iterates documents, reads frequencies, or mutates it.  After
  inflation it *is* a plain collection (same iteration order as the
  one that was saved), so the mutation-staleness machinery of the
  engines behaves identically.

Opening a table walks neither the corpus nor the vocabulary in Python
beyond what the id columns need (one ``tolist`` each): the numeric
columns are plain ``ndarray`` views of the frozen maps, a row is cut
from slices of them, and an int doc id is found by binary search over
the id list when it ascends, else over one stable argsort of it (JSON
ids build a doc-id → row dict on the first lookup).  A live restore
adopts the same columns (:meth:`DocumentTable.columns`).

Materialisation is not a mutation: the documents were always logically
present, so the collection's ``version`` counter is restored afterwards
— otherwise the first query after a cold start would look like a
corpus change and throw the freshly-loaded posting segments away.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping, Sequence
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.columnar.collection import DocumentColumns
from repro.errors import StoreCorruptionError, StoreError
from repro.spatial.geometry import Point
from repro.streams.collection import SpatiotemporalCollection
from repro.streams.document import Document

__all__ = [
    "DocumentTable",
    "LazyDocumentMap",
    "LazyPatternMap",
    "StoredCollection",
]


class LazyPatternMap(Mapping):
    """term → patterns mapping that decodes its segment on first read.

    Pure serving never touches the mined patterns — posting columns are
    already scored — so a cold start or a live restore defers the
    (potentially many-thousand-dataclass) pattern decode until something
    actually asks for them (``patterns_for``, a posting rebuild, a
    re-save or re-checkpoint).  A segment that does not decode raises
    :class:`~repro.errors.StoreCorruptionError` at that first read.
    """

    def __init__(self, reader, prefix: str) -> None:
        self._reader = reader
        self._prefix = prefix
        self._decoded: Optional[Dict[str, list]] = None

    def _load(self) -> Dict[str, list]:
        if self._decoded is None:
            from repro.store.segments import decode_patterns

            try:
                _, self._decoded = decode_patterns(self._reader, self._prefix)
            except StoreError:
                raise
            except (
                AttributeError,
                IndexError,
                KeyError,
                TypeError,
                ValueError,
            ) as exc:
                raise StoreCorruptionError(
                    f"store {self._reader.path!r}: {self._prefix}/ segment "
                    f"does not decode: {exc!r}"
                ) from exc
        return self._decoded

    def __getitem__(self, term: str):
        return self._load()[term]

    def __iter__(self):
        return iter(self._load())

    def __len__(self) -> int:
        return len(self._load())

    def term_patterns(self, term: str) -> Sequence:
        """One term's patterns (empty when it has none), decoded when
        first read."""
        return _TermPatterns(self, term)


class _TermPatterns(Sequence):
    """A read-only view of one term's entry in a :class:`LazyPatternMap`."""

    __slots__ = ("_source", "_term")

    def __init__(self, source: LazyPatternMap, term: str) -> None:
        self._source = source
        self._term = term

    def _patterns(self) -> Sequence:
        return self._source._load().get(self._term, ())

    def __getitem__(self, index):
        return self._patterns()[index]

    def __len__(self) -> int:
        return len(self._patterns())

    def __iter__(self):
        return iter(self._patterns())


class DocumentTable:
    """Columnar document table with per-row materialisation.

    Wraps the decoded segment columns; :meth:`document_at` builds (and
    caches) one :class:`Document`, so the collection view and the
    lazy doc-id map hand out the *same* object per row.
    """

    def __init__(self, reader, prefix: str) -> None:
        meta = reader.json(f"{prefix}/meta.json")
        from repro.store.segments import _read_id_column, _read_int_column

        self.timeline: int = int(meta["timeline"])
        stream_ids = _read_id_column(
            reader, prefix, "stream_ids", meta["stream_id_kind"]
        )
        xs = reader.array(f"{prefix}/stream_x.npy").tolist()
        ys = reader.array(f"{prefix}/stream_y.npy").tolist()
        self.locations: Dict[Hashable, Point] = {
            sid: Point(x, y) for sid, x, y in zip(stream_ids, xs, ys)
        }
        self._stream_ids = stream_ids
        #: The stored integer id column, or ``None`` for JSON ids.
        self._id_column: Optional[np.ndarray] = None
        if meta["doc_id_kind"] == "int64":
            self._id_column = _read_int_column(reader, f"{prefix}/doc_ids.npy")
            self.doc_ids: List[Hashable] = self._id_column.tolist()
        else:
            self.doc_ids = _read_id_column(
                reader, prefix, "doc_ids", meta["doc_id_kind"]
            )

        def column(name: str) -> np.ndarray:
            return _read_int_column(reader, f"{prefix}/{name}.npy")

        self._stream_codes = column("stream_codes")
        self._timestamps = column("timestamps")
        self._indptr = column("term_indptr")
        self._term_codes = column("term_codes")
        self._term_counts = column("term_counts")
        self.vocabulary: List[str] = list(meta["vocabulary"])
        self._event_ids: Dict[str, Hashable] = meta.get("event_ids", {})
        self._cache: Dict[int, Document] = {}
        self._row_of: Optional[Dict[Hashable, int]] = None
        #: The int ids ascending and their rows (``None`` when the
        #: column already ascends), built on the first lookup by ``int``.
        self._sorted_ids: Optional[Tuple[List[Any], Optional[List[int]]]] = None

    def __len__(self) -> int:
        return len(self.doc_ids)

    def columns(self) -> DocumentColumns:
        """The stored columns as they are: mapped, neither copied nor
        checked."""
        return DocumentColumns(
            doc_ids=self.doc_ids,
            stream_codes=self._stream_codes,
            timestamps=self._timestamps,
            term_indptr=self._indptr,
            term_codes=self._term_codes,
            term_counts=self._term_counts,
            vocabulary=self.vocabulary,
            event_ids=self._event_ids,
        )

    def row_of(self, doc_id: Hashable) -> Optional[int]:
        """The row of ``doc_id`` (the last one, if stored twice), or
        ``None``: a dict lookup's answer.

        A Python ``int`` is looked up in the int id column by binary
        search — over the id list itself when the column ascends, as
        saved collections' ids usually do, else over one stable argsort
        of it — so no per-id dict is built.  Any other id (a JSON id,
        or a float equal to an int id) goes through the dict.
        """
        if self._id_column is not None and type(doc_id) is int:
            if self._sorted_ids is None:
                ids = self._id_column
                if (ids[1:] > ids[:-1]).all():
                    self._sorted_ids = (self.doc_ids, None)
                else:
                    order = np.argsort(ids, kind="stable")
                    self._sorted_ids = (ids[order].tolist(), order.tolist())
            ascending, rows = self._sorted_ids
            place = bisect_right(ascending, doc_id) - 1
            if place < 0 or ascending[place] != doc_id:
                return None
            return place if rows is None else rows[place]
        if self._row_of is None:
            self._row_of = dict(zip(self.doc_ids, range(len(self.doc_ids))))
        return self._row_of.get(doc_id)

    def document_at(self, row: int) -> Document:
        document = self._cache.get(row)
        if document is None:
            start, end = self._indptr[row : row + 2].tolist()
            terms: List[str] = []
            vocabulary = self.vocabulary
            for code, count in zip(
                self._term_codes[start:end].tolist(),
                self._term_counts[start:end].tolist(),
            ):
                terms.extend([vocabulary[code]] * count)
            document = Document(
                doc_id=self.doc_ids[row],
                stream_id=self._stream_ids[int(self._stream_codes[row])],
                timestamp=int(self._timestamps[row]),
                terms=tuple(terms),
                event_id=self._event_ids.get(str(row)),
            )
            self._cache[row] = document
        return document

    def all_documents(self) -> Iterator[Document]:
        """Materialise every row, in stored (save-time) order."""
        # Bulk path: plain Python lists beat per-row memmap indexing.
        indptr = self._indptr.tolist()
        codes = self._term_codes.tolist()
        counts = self._term_counts.tolist()
        stream_codes = self._stream_codes.tolist()
        timestamps = self._timestamps.tolist()
        vocabulary = self.vocabulary
        cache = self._cache
        for row, doc_id in enumerate(self.doc_ids):
            document = cache.get(row)
            if document is None:
                terms: List[str] = []
                for position in range(indptr[row], indptr[row + 1]):
                    terms.extend([vocabulary[codes[position]]] * counts[position])
                document = Document(
                    doc_id=doc_id,
                    stream_id=self._stream_ids[stream_codes[row]],
                    timestamp=timestamps[row],
                    terms=tuple(terms),
                    event_id=self._event_ids.get(str(row)),
                )
                cache[row] = document
            yield document


class LazyDocumentMap(dict):
    """doc-id → :class:`Document` map materialising entries on miss.

    A drop-in for the dict the engines build from
    ``collection.documents()``: serving a query touches only the
    result documents, so a cold start materialises ``k`` rows, not the
    corpus.
    """

    def __init__(self, table: DocumentTable) -> None:
        super().__init__()
        self._table = table

    def __missing__(self, doc_id: Hashable) -> Document:
        row = self._table.row_of(doc_id)
        if row is None:
            raise KeyError(doc_id)
        document = self._table.document_at(row)
        self[doc_id] = document
        return document


class StoredCollection(SpatiotemporalCollection):
    """A collection view over a document segment, inflated on demand.

    Scalar reads (``vocabulary``, ``document_count``, ``locations``,
    ``stream_ids``) come straight from the segment metadata; anything
    that walks or mutates documents triggers one full materialisation,
    after which the instance behaves exactly like the collection it was
    saved from (same ``documents()`` order, same per-stream state).
    """

    def __init__(self, table: DocumentTable) -> None:
        super().__init__(table.timeline if table.timeline > 0 else 1)
        self._table = table
        self._materialised = False
        for sid, point in table.locations.items():
            self.add_stream(sid, point)
        self._vocabulary.update(table.vocabulary)

    # -- materialisation ------------------------------------------------
    def _materialise(self) -> None:
        if self._materialised:
            return
        self._materialised = True
        version = self._version
        for document in self._table.all_documents():
            super().add_document(document)
        # Loading is not a mutation: derived views (posting segments,
        # doc maps) built against the store remain exactly current.
        self._version = version

    # -- mutations ------------------------------------------------------
    def add_document(self, document: Document) -> None:
        self._materialise()
        super().add_document(document)

    # -- document-backed reads ------------------------------------------
    # Every other read (snapshots, frequencies, the column snapshot)
    # goes through one of these three.
    def documents(self):
        self._materialise()
        return super().documents()

    def stream(self, stream_id):
        self._materialise()
        return super().stream(stream_id)

    def streams(self):
        self._materialise()
        return super().streams()

    # -- scalar reads served from metadata ------------------------------
    @property
    def document_count(self) -> int:
        if not self._materialised:
            return len(self._table)
        return self._document_count
