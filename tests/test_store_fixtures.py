"""Stores written in the v1/v2 formats keep opening, serving, restoring.

The stores under ``tests/fixtures/stores/`` are committed bytes, written
by the library at commit 5cb7884 — the last one whose saves stamped
format v1/v2 — from the corpus :func:`build_documents` makes.  Running
this module as a script on a checkout of that commit writes them::

    PYTHONPATH=src:tests python tests/test_store_fixtures.py \\
        tests/fixtures/stores

* ``index_raw`` — a raw index store (format v1);
* ``index_packed`` — a packed index store (format v2);
* ``live_packed`` — a packed live checkpoint taken at
  ``FEED_SPLIT`` (format v2);
* ``patterns_comb`` — a combinatorial ``save_patterns`` store with
  integer stream ids (format v1).

The corpus comes from one seeded ``random.Random`` walked over lists,
so it does not depend on ``PYTHONHASHSEED``.  Each fixture must open
verified, audit clean, serve and decode exactly what a fresh build of
the same corpus does, and re-save as a v3 store whose decoded data
equals the fixture's.
"""

import os
import random
import shutil
import sys

import numpy as np
import pytest

from repro import (
    BatchMiner,
    BurstySearchEngine,
    Document,
    LiveCollection,
    LiveSearchEngine,
    Point,
    SpatiotemporalCollection,
    load_patterns,
    save_patterns,
    save_search_index,
)

TIMELINE = 24
FEED_SPLIT = 13
QUERIES = ("quake", "storm flood", "filler", "quake rain")
BURSTS = (
    ("quake", 5, 10, (0, 1, 3)),
    ("storm", 12, 17, (2, 4, 5)),
    ("flood", 15, 20, (0, 3)),
)
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "stores")
VERSIONS = {
    "index_raw": 1,
    "index_packed": 2,
    "live_packed": 2,
    "patterns_comb": 1,
}


def build_documents(int_streams=False):
    """The fixture corpus: ``(streams, documents)`` in timestamp order."""
    rng = random.Random(20120830)
    streams = [
        (code if int_streams else f"s{code}",
         Point(float(code % 3), float(code // 3)))
        for code in range(6)
    ]
    documents = []
    for t in range(TIMELINE):
        for code, (stream_id, _) in enumerate(streams):
            for _ in range(rng.randint(1, 2)):
                terms = []
                for term, start, end, members in BURSTS:
                    if start <= t < end and code in members:
                        terms += [term] * rng.randint(1, 3)
                if rng.random() < 0.6:
                    terms.append("filler")
                if rng.random() < 0.3:
                    terms.append(rng.choice(("rain", "wind", "quake")))
                if not terms:
                    continue
                event = rng.choice((None, None, f"ev{t % 4}", t % 3))
                documents.append(
                    Document(
                        1000 + 7 * len(documents),
                        stream_id,
                        t,
                        tuple(terms),
                        event_id=event,
                    )
                )
    return streams, documents


def build_collection(int_streams=False):
    streams, documents = build_documents(int_streams)
    collection = SpatiotemporalCollection(TIMELINE)
    for stream_id, point in streams:
        collection.add_stream(stream_id, point)
    for document in documents:
        collection.add_document(document)
    return collection


def feed(engine, documents, start, stop):
    """Ingest timestamps ``[start, stop)`` of the corpus, querying every
    fourth timestamp."""
    for document in documents:
        if start <= document.timestamp < stop:
            engine.live.ingest(document)
    for t in range(start, stop):
        if t % 4 == 3:
            engine.search(QUERIES[t // 4 % len(QUERIES)], k=5)


def new_live_engine():
    streams, documents = build_documents()
    live = LiveCollection(TIMELINE)
    for stream_id, point in streams:
        live.add_stream(stream_id, point)
    return LiveSearchEngine(live), documents


def write_fixtures(root):
    """Write the four fixture stores under ``root``."""
    collection = build_collection()
    terms = sorted(collection.vocabulary)
    mined = BatchMiner().mine_regional(collection, terms)
    engine = BurstySearchEngine(collection, mined)
    for codec in ("raw", "packed"):
        save_search_index(
            os.path.join(root, f"index_{codec}"),
            engine,
            "regional",
            terms=terms,
            codec=codec,
        )
    live_engine, documents = new_live_engine()
    feed(live_engine, documents, 0, FEED_SPLIT)
    live_engine.checkpoint(os.path.join(root, "live_packed"), codec="packed")
    BatchMiner().mine_combinatorial(
        build_collection(int_streams=True),
        save_to=os.path.join(root, "patterns_comb"),
    )


# ----------------------------------------------------------------------
def ranking(results):
    return [(r.document.doc_id, r.score) for r in results]


@pytest.fixture
def fixture_copy(tmp_path):
    """A private copy of one committed fixture store."""

    def copy(name):
        target = str(tmp_path / name)
        shutil.copytree(os.path.join(FIXTURES, name), target)
        return target

    return copy


@pytest.fixture(scope="module")
def fresh_index():
    collection = build_collection()
    terms = sorted(collection.vocabulary)
    mined = BatchMiner().mine_regional(collection, terms)
    return BurstySearchEngine(collection, mined), mined


def decoded_store(path):
    """Everything a store decodes to, in comparable form."""
    from repro.search.inverted_index import random_access_map
    from repro.store import SegmentReader
    from repro.store.collection import DocumentTable
    from repro.store.segments import PostingSegment, decode_patterns

    reader = SegmentReader(path, verify=True)
    out = {"kind": reader.kind, "patterns": decode_patterns(reader, "patterns")}
    if reader.has("documents/meta.json"):
        table = DocumentTable(reader, "documents")
        columns = table.columns()
        out["documents"] = (
            table.timeline,
            table.locations,
            [(type(doc_id), doc_id) for doc_id in columns.doc_ids],
            [np.asarray(column).tolist() for column in columns[1:6]],
            list(columns.vocabulary),
            dict(columns.event_ids),
        )
    if reader.has("postings/meta.json"):
        segment = PostingSegment(reader, "postings")
        postings = {}
        for term in segment.terms:
            ids, scores, ties = segment.columns(term)
            array = segment.posting_array(term)
            postings[term] = (
                [(type(doc_id), doc_id) for doc_id in ids],
                np.asarray(scores, dtype="<f8").tobytes(),
                np.asarray(ties, dtype="<i8").tobytes(),
                sorted(
                    (repr(doc_id), np.float64(score).tobytes())
                    for doc_id, score in random_access_map(array).items()
                ),
            )
        out["postings"] = postings
    if reader.has("live/meta.json"):
        out["live"] = reader.json("live/meta.json")
        out["metadata"] = reader.metadata
    return out


class TestCommittedFixtures:
    @pytest.mark.parametrize("name", sorted(VERSIONS))
    def test_opens_verified_and_audits_clean(self, fixture_copy, name):
        from repro.store import SegmentReader
        from repro.store.fsck import fsck_store

        path = fixture_copy(name)
        assert SegmentReader(path, verify=True).format_version == VERSIONS[name]
        report = fsck_store(path)
        assert report.clean, report.render()

    @pytest.mark.parametrize("codec", ["raw", "packed"])
    def test_index_serves_like_a_fresh_build(
        self, fixture_copy, fresh_index, codec
    ):
        from repro import verify_store

        engine, mined = fresh_index
        path = fixture_copy(f"index_{codec}")
        loaded = BurstySearchEngine.from_store(path)
        queries = sorted(mined) + ["quake storm", "flood filler rain"]
        for query in queries:
            for strategy in ("ta", "blockmax", "scan", "auto"):
                for k in (3, 10):
                    assert ranking(
                        loaded.search(query, k=k, strategy=strategy)
                    ) == ranking(engine.search(query, k=k, strategy=strategy))
        assert load_patterns(path) == mined
        verify_store(path)

    def test_patterns_store_decodes_like_a_fresh_mine(self, fixture_copy):
        path = fixture_copy("patterns_comb")
        mined = BatchMiner().mine_combinatorial(
            build_collection(int_streams=True)
        )
        assert any(
            pattern.member_intervals
            for patterns in mined.values()
            for pattern in patterns
        )
        assert load_patterns(path) == mined

    def test_checkpoint_restores_and_keeps_ingesting(self, fixture_copy):
        path = fixture_copy("live_packed")
        restored = LiveSearchEngine.from_checkpoint(path)
        uninterrupted, documents = new_live_engine()
        feed(uninterrupted, documents, 0, FEED_SPLIT)
        terms = sorted(uninterrupted.live.vocabulary)
        assert sorted(restored.live.vocabulary) == terms
        for term in terms:
            assert ranking(restored.search(term, k=10)) == ranking(
                uninterrupted.search(term, k=10)
            )
        for engine in (uninterrupted, restored):
            feed(engine, documents, FEED_SPLIT, TIMELINE)
        assert restored.live.document_count == len(documents)
        for query in sorted(uninterrupted.live.vocabulary) + list(QUERIES):
            for k in (3, 10):
                assert ranking(restored.search(query, k=k)) == ranking(
                    uninterrupted.search(query, k=k)
                )

    @pytest.mark.parametrize("name", sorted(VERSIONS))
    def test_resave_writes_v3_with_equal_decoded_data(
        self, fixture_copy, tmp_path, name
    ):
        from repro.store import FORMAT_VERSION, SegmentReader

        path = fixture_copy(name)
        again = str(tmp_path / "again")
        if name.startswith("index_"):
            codec = name.split("_", 1)[1]
            BurstySearchEngine.from_store(path).save(again, codec=codec)
        elif name == "live_packed":
            LiveSearchEngine.from_checkpoint(path).checkpoint(
                again, codec="packed"
            )
        else:
            reader = SegmentReader(path)
            save_patterns(
                again,
                load_patterns(reader),
                reader.metadata["pattern_type"],
                terms=reader.metadata["terms"],
            )
        assert SegmentReader(again).format_version == FORMAT_VERSION == 3
        assert decoded_store(again) == decoded_store(path)


if __name__ == "__main__":
    write_fixtures(sys.argv[1])
