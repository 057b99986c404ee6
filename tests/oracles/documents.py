"""The per-document ``documents/`` encoder: the reference for the
column writers.

Walks ``Document`` objects one by one, counting each document's terms
with a ``Counter``, and hands the resulting columns to
:func:`~repro.store.segments.write_document_columns`.  An index save
(the collection's column snapshot) and a live checkpoint (the
arrival-order table) must write exactly these bytes.
"""

from typing import Dict, Hashable, List, Sequence

import numpy as np

from repro.columnar.collection import DocumentColumns
from repro.spatial.geometry import Point
from repro.store.format import SegmentWriter
from repro.store.segments import write_document_columns
from repro.streams.document import Document


def encode_documents(
    writer: SegmentWriter,
    prefix: str,
    timeline: int,
    locations: Dict[Hashable, Point],
    documents: Sequence[Document],
) -> None:
    """Persist ``documents`` (in the given order) plus the stream table."""
    stream_code = {sid: code for code, sid in enumerate(locations)}
    vocabulary: Dict[str, int] = {}
    doc_ids: List[Hashable] = []
    stream_codes: List[int] = []
    timestamps: List[int] = []
    indptr: List[int] = [0]
    term_codes: List[int] = []
    term_counts: List[int] = []
    event_ids: Dict[str, Hashable] = {}
    for row, document in enumerate(documents):
        doc_ids.append(document.doc_id)
        stream_codes.append(stream_code[document.stream_id])
        timestamps.append(document.timestamp)
        for term, count in document.term_counts().items():
            term_codes.append(vocabulary.setdefault(term, len(vocabulary)))
            term_counts.append(count)
        indptr.append(len(term_codes))
        if document.event_id is not None:
            event_ids[str(row)] = document.event_id
    write_document_columns(
        writer,
        prefix,
        timeline,
        locations,
        DocumentColumns(
            doc_ids=doc_ids,
            stream_codes=np.asarray(stream_codes, dtype="<i8"),
            timestamps=np.asarray(timestamps, dtype="<i8"),
            term_indptr=np.asarray(indptr, dtype="<i8"),
            term_codes=np.asarray(term_codes, dtype="<i8"),
            term_counts=np.asarray(term_counts, dtype="<i8"),
            vocabulary=list(vocabulary),
            event_ids=event_ids,
        ),
    )
