"""The object posting list: the cold reference for ``PostingArray``.

A list of ``Posting`` objects sorted by ``(-score, crc32(doc))`` with
Python's stable ``sorted``, plus a dict for random access.  The shipped
:class:`~repro.columnar.postings.PostingArray` must read exactly like
it: same ``(doc_id, score)`` sequence, same random-access map, same
pruning semantics.
"""

from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.columnar.postings import Posting, PostingArray, rank_tiebreak
from repro.search.inverted_index import random_access_map
from repro.search.relevance import log_relevance
from repro.store.format import SegmentReader, SegmentWriter
from repro.store.segments import PostingSegment, encode_posting_lists


class PostingList:
    """A term's postings, sorted by score descending.

    Supports both access modes TA needs: *sorted access* (iteration in
    score order) and *random access* (score lookup by document).
    """

    def __init__(self, postings: Sequence[Posting]) -> None:
        self._sorted: List[Posting] = sorted(
            postings, key=lambda p: (-p.score, rank_tiebreak(p.doc_id))
        )
        self._by_doc: Dict[Hashable, float] = {
            posting.doc_id: posting.score for posting in self._sorted
        }

    def __len__(self) -> int:
        return len(self._sorted)

    def __iter__(self):
        return iter(self._sorted)

    def sorted_access(self, rank: int) -> Optional[Posting]:
        """The posting at a given rank, or ``None`` past the end."""
        if rank < len(self._sorted):
            return self._sorted[rank]
        return None

    def random_access(self, doc_id: Hashable) -> Optional[float]:
        """Score of a document in this list, or ``None`` if absent."""
        return self._by_doc.get(doc_id)

    def top(self, k: int) -> List[Posting]:
        """The ``k`` best postings."""
        return self._sorted[:k]

    def truncated(self, depth: int) -> "PostingList":
        """Keep the top ``depth`` postings for sorted access; random
        access still resolves every original document."""
        clone = PostingList(self._sorted[:depth])
        clone._by_doc = dict(self._by_doc)
        return clone


def as_posting_array(posting_list) -> PostingArray:
    """The ``PostingArray`` serving exactly what ``posting_list`` does.

    Arrays pass through; an oracle list becomes an array over its
    sorted sequence, with its random-access map (a pruned list's
    included) carried over.  The vectorized top-k kernels read only
    arrays.
    """
    if isinstance(posting_list, PostingArray):
        return posting_list
    ids = [posting.doc_id for posting in posting_list]
    return PostingArray.from_columns(
        ids,
        [posting.score for posting in posting_list],
        [rank_tiebreak(doc_id) for doc_id in ids],
        random_access=random_access_map(posting_list),
    )


def pairs(posting_list):
    """The sorted-access sequence as ``(doc_id, score)`` pairs."""
    return [(posting.doc_id, posting.score) for posting in posting_list]


def assert_serves_like_oracle(posting_list, postings, tmp_path) -> None:
    """``posting_list`` is a ``PostingArray`` that reads like the oracle
    over ``postings``, and survives a store round-trip byte-identically
    under both codecs."""
    oracle = PostingList(postings)
    assert isinstance(posting_list, PostingArray)
    assert pairs(posting_list) == pairs(oracle)
    assert random_access_map(posting_list) == random_access_map(oracle)
    ids, scores, ties = posting_list.columns()
    for codec in ("raw", "packed"):
        path = str(tmp_path / f"postings-{codec}")
        writer = SegmentWriter(path)
        encode_posting_lists(writer, "postings", {"t": posting_list}, codec)
        writer.commit("index")
        reloaded = PostingSegment(SegmentReader(path), "postings")
        out_ids, out_scores, out_ties = reloaded.posting_array("t").columns()
        assert list(out_ids) == list(ids)
        assert (
            np.asarray(out_scores, dtype="<f8").tobytes()
            == np.asarray(scores, dtype="<f8").tobytes()
        )
        assert (
            np.asarray(out_ties, dtype="<i8").tobytes()
            == np.asarray(ties, dtype="<i8").tobytes()
        )


def reference_log_relevance(document, term) -> float:
    """``log_relevance`` behind a callable the engine cannot vectorize.

    An engine built with it scores every posting through the reference
    :func:`~repro.search.engine.score_posting` loop.
    """
    return log_relevance(document, term)
