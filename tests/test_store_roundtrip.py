"""Round-trip differential suite: a loaded store equals a cold rebuild.

The acceptance oracle of the persistence layer: saving any serving
state and loading it back must be *byte*-faithful —

* posting columns keep their document ids, score float bits (NaN
  payloads and subnormals included) and crc32 tiebreak order;
* pruned (truncated) lists keep answering random access for documents
  their sorted prefix no longer exposes;
* non-integer document ids ride the JSON id table and the query
  kernel's dict-gather fallback, unchanged;
* reloaded engines return rankings identical to the engine they were
  saved from — and to a cold re-mine of the reloaded corpus — across
  every top-k strategy;
* live checkpoints resume ingestion and serving mid-stream, with
  serving statistics reset (counters must not describe an index they
  never measured).

Seeded workloads pin the known regimes; Hypothesis sweeps random
collections through the full save → load → compare cycle.
"""

import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BatchMiner,
    BurstySearchEngine,
    Document,
    LiveCollection,
    Point,
    SpatiotemporalCollection,
    load_patterns,
    save_patterns,
    save_search_index,
    verify_store,
)
from repro.columnar.postings import PostingArray, rank_tiebreak
from repro.errors import StoreError
from repro.live import LiveSearchEngine
from repro.search import InvertedIndex, Posting
from repro.store import FORMAT_VERSION, SegmentReader, SegmentWriter
from repro.store.format import rewrite_manifest
from repro.store.segments import (
    PostingSegment,
    decode_patterns,
    encode_config,
    encode_patterns,
    encode_posting_lists,
)

from oracles.documents import encode_documents
from oracles.postings import PostingList
from oracles.stlocal import add_legacy_tracker_segment


def ranking(results):
    return [(r.document.doc_id, r.score) for r in results]


def build_collection(seed=0, streams=5, timeline=24, doc_ids="int"):
    """Small synthetic corpus with one localized burst per term."""
    rng = random.Random(seed)
    collection = SpatiotemporalCollection(timeline=timeline)
    sids = [f"s{i}" for i in range(streams)]
    for i, sid in enumerate(sids):
        collection.add_stream(sid, Point(float(i % 3), float(i // 3)))
    counter = 0

    def next_id():
        nonlocal counter
        counter += 1
        if doc_ids == "int":
            return counter
        if doc_ids == "str":
            return f"doc-{counter}"
        return counter if counter % 2 else f"doc-{counter}"

    for term in ("quake", "storm"):
        start = rng.randint(4, timeline - 8)
        members = rng.sample(sids, k=min(3, streams))
        for t in range(start, start + 5):
            for sid in members:
                for _ in range(rng.randint(1, 3)):
                    collection.add_document(
                        Document(next_id(), sid, t, (term, term))
                    )
    for t in range(timeline):
        for sid in sids:
            if rng.random() < 0.5:
                collection.add_document(
                    Document(next_id(), sid, t, ("filler",))
                )
    return collection


@pytest.fixture(scope="module", params=["raw", "packed"])
def saved(request, tmp_path_factory):
    """One saved index per posting codec — every round-trip invariant in
    this module must hold identically for raw and packed columns."""
    codec = request.param
    collection = build_collection(seed=3)
    terms = sorted(collection.vocabulary)
    mined = BatchMiner().mine_regional(collection, terms)
    engine = BurstySearchEngine(collection, mined)
    path = str(tmp_path_factory.mktemp("store") / "index")
    save_search_index(path, engine, "regional", terms=terms, codec=codec)
    return path, engine, mined, codec


class TestIndexRoundTrip:
    def test_rankings_identical_across_strategies(self, saved):
        path, engine, mined, _ = saved
        loaded = BurstySearchEngine.from_store(path)
        for query in list(mined) + ["quake storm", "quake filler storm"]:
            for strategy in ("ta", "blockmax", "scan", "auto"):
                assert ranking(
                    loaded.search(query, k=10, strategy=strategy)
                ) == ranking(engine.search(query, k=10, strategy=strategy))

    def test_single_term_search_many_leaves_ids_undecoded(self, saved):
        """A lone term is answered from its column prefix, so the batch
        warm-up must not build its columnar view: on a packed list that
        would decode (and argsort) every doc id."""
        path, engine, mined, codec = saved
        loaded = BurstySearchEngine.from_store(path)
        term = next(iter(mined))
        batched = loaded.search_many([term], k=3, strategy="scan")
        assert [ranking(results) for results in batched] == [
            ranking(engine.search(term, k=3, strategy="scan"))
        ]
        source = getattr(loaded._posting_list(term), "packed", None)
        assert (source is not None) == (codec == "packed")
        if source is not None:
            assert source._ids_cache is None

    def test_posting_columns_bit_identical(self, saved):
        path, engine, mined, _ = saved
        loaded = BurstySearchEngine.from_store(path)
        for term in mined:
            ids_a, scores_a, ties_a = engine._posting_list(term).columns()
            ids_b, scores_b, ties_b = loaded._posting_list(term).columns()
            assert list(ids_a) == list(ids_b)
            assert np.asarray(scores_a).tobytes() == np.asarray(scores_b).tobytes()
            assert np.asarray(ties_a).tobytes() == np.asarray(ties_b).tobytes()

    def test_patterns_and_documents_round_trip(self, saved):
        path, engine, mined, _ = saved
        loaded = BurstySearchEngine.from_store(path)
        assert {t: list(p) for t, p in loaded._patterns.items()} == {
            t: list(p) for t, p in engine._patterns.items() if p
        }
        original = list(engine.collection.documents())
        reloaded = list(loaded.collection.documents())
        assert [d.doc_id for d in original] == [d.doc_id for d in reloaded]
        assert [d.stream_id for d in original] == [d.stream_id for d in reloaded]
        assert [d.timestamp for d in original] == [d.timestamp for d in reloaded]
        assert [d.term_counts() for d in original] == [
            d.term_counts() for d in reloaded
        ]
        assert engine.collection.locations() == loaded.collection.locations()

    def test_posting_columns_stay_memory_mapped(self, saved, monkeypatch):
        # Fixture stores are tiny, so force every array through the
        # mmap path: the zero-copy serving property this guards applies
        # to columns at production sizes (above the small-file cutoff).
        monkeypatch.setattr(SegmentReader, "SMALL_ARRAY_BYTES", 0)
        path, _, mined, codec = saved
        loaded = BurstySearchEngine.from_store(path)
        if codec == "packed":
            # Packed columns decode into fresh arrays on touch; the
            # zero-copy property lives one level down, in the packed
            # byte payloads the decoder slices from.
            payload = loaded._segments._scores_packed._payload
            assert isinstance(payload, np.memmap)
            return
        term = next(iter(mined))
        _, scores, ties = loaded._posting_list(term).columns()
        assert isinstance(scores.base if scores.base is not None else scores, np.memmap)
        assert isinstance(ties.base if ties.base is not None else ties, np.memmap)

    def test_verify_store_passes(self, saved):
        path, _, _, _ = saved
        checks = verify_store(path)
        assert any("patterns" in line for line in checks)
        assert any("postings" in line for line in checks)

    def test_verify_store_detects_divergence(self, saved, tmp_path):
        import json
        import os
        import shutil

        path, _, _, codec = saved
        broken = str(tmp_path / "broken")
        shutil.copytree(path, broken)
        # Flip one stored posting score and re-stamp its checksum so
        # open() succeeds: --verify must still catch the divergence
        # against the cold rebuild.  Packed stores hold scores as dict
        # codes, so corrupt the dictionary they decode through.
        name = (
            "postings/scores.npy"
            if codec == "raw"
            else "postings/scores_dict.npy"
        )
        target = os.path.join(broken, *name.split("/"))
        scores = np.load(target)
        scores[0] += 1.0
        with open(target, "wb") as handle:
            np.save(handle, scores)
        from repro.store.format import MANIFEST_NAME, _file_crc32

        manifest_path = os.path.join(broken, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        crc, size = _file_crc32(target)
        manifest["files"][name].update(crc32=crc, size=size)
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(StoreError, match="diverge"):
            verify_store(broken)

    def test_mutating_loaded_collection_detaches_segments(self, saved):
        path, _, _, _ = saved
        loaded = BurstySearchEngine.from_store(path)
        before = ranking(loaded.search("quake", k=5))
        doc = Document("late-arrival", "s0", 2, ("filler",))
        loaded.collection.add_document(doc)
        # Stored segments describe the pre-mutation corpus; the engine
        # must fall back to rebuilding rather than serve stale columns.
        after = ranking(loaded.search("quake", k=5))
        assert loaded._segments is None
        assert after == before  # 'filler' doc cannot affect 'quake'


class TestVerifyMinerConfig:
    def test_non_default_miner_config_verifies(self, tmp_path):
        """Regression: --verify used to re-mine with default settings,
        false-failing any store mined under a tuned configuration."""
        from repro.core import STComb, STCombConfig

        collection = build_collection(seed=13)
        config = STCombConfig(min_interval_score=0.2, min_pattern_streams=1)
        miner = BatchMiner(stcomb=STComb(config=config))
        terms = sorted(collection.vocabulary)
        mined = miner.mine_combinatorial(collection, terms)
        default_mined = BatchMiner().mine_combinatorial(collection, terms)
        assert mined != default_mined  # the tuning really changes output
        engine = BurstySearchEngine(collection, mined)
        path = str(tmp_path / "idx")
        save_search_index(
            path,
            engine,
            "combinatorial",
            terms=terms,
            miner_config=config,
        )
        verify_store(path)  # must not false-fail

    def test_scoring_callable_mismatch_rejected(self, tmp_path):
        """Posting scores embed the relevance function; loading them
        into a differently-scored engine must fail loudly."""
        from repro.search.relevance import binary_relevance

        collection = build_collection(seed=14)
        mined = BatchMiner().mine_regional(collection)
        engine = BurstySearchEngine(
            collection, mined, relevance=binary_relevance
        )
        path = str(tmp_path / "idx")
        save_search_index(path, engine, "regional")
        with pytest.raises(StoreError, match="scoring callables"):
            BurstySearchEngine.from_store(path)
        loaded = BurstySearchEngine.from_store(path, relevance=binary_relevance)
        assert ranking(loaded.search("quake", k=5)) == ranking(
            engine.search("quake", k=5)
        )


class TestNonIntDocIds:
    @pytest.mark.parametrize("kind", ["str", "mixed"])
    def test_round_trip(self, tmp_path, kind):
        collection = build_collection(seed=11, doc_ids=kind)
        mined = BatchMiner().mine_regional(collection)
        engine = BurstySearchEngine(collection, mined)
        path = str(tmp_path / "index")
        save_search_index(path, engine, "regional")
        loaded = BurstySearchEngine.from_store(path)
        for term in mined:
            for strategy in ("ta", "blockmax", "scan"):
                assert ranking(
                    loaded.search(term, k=8, strategy=strategy)
                ) == ranking(engine.search(term, k=8, strategy=strategy))
        verify_store(path)


class TestIntIdColumns:
    """Stored int ids come back as Python ``int``, never NumPy scalars:
    ``rank_tiebreak`` hashes ``repr(doc_id)``, and NumPy 2 spells a
    scalar ``np.int64(5)``, which would move every tiebreak."""

    @staticmethod
    def assert_python_ints(ids):
        assert ids and {type(doc_id) for doc_id in ids} == {int}

    def test_decode_id_column(self):
        from repro.store.format import decode_id_column, encode_id_column

        ids = [5, -3, 2**62, 0]
        encoded = encode_id_column(ids)
        assert encoded["kind"] == "int64"
        decoded = decode_id_column("int64", encoded["array"])
        self.assert_python_ints(decoded)
        assert decoded == ids
        assert list(map(rank_tiebreak, decoded)) == list(
            map(rank_tiebreak, ids)
        )

    @pytest.mark.parametrize("codec", ["raw", "packed"])
    def test_document_and_posting_tables(self, tmp_path, codec):
        from repro.store.collection import DocumentTable

        collection = build_collection(seed=3)
        engine = BurstySearchEngine(
            collection, BatchMiner().mine_regional(collection)
        )
        path = str(tmp_path / "index")
        engine.save(path, codec=codec)
        reader = SegmentReader(path)
        doc_ids = DocumentTable(reader, "documents").doc_ids
        self.assert_python_ints(doc_ids)
        assert doc_ids == [d.doc_id for d in collection.documents()]
        table = PostingSegment(reader, "postings")._table
        self.assert_python_ints(table)
        assert set(table) <= set(doc_ids)


class TestNarrowIdColumns:
    """Int id columns are stored at their narrowest width; every width
    boundary decodes to the same Python ``int``s, so ``rank_tiebreak``
    and every ranking are unchanged."""

    BOUNDARIES = [
        (-1, "<i8"),
        (0, "|u1"),
        (255, "|u1"),
        (256, "<u2"),
        (65535, "<u2"),
        (65536, "<u4"),
        (2**32 - 1, "<u4"),
        (2**32, "<i8"),
        (2**63 - 1, "<i8"),
    ]

    @pytest.mark.parametrize("value, dtype", BOUNDARIES)
    def test_id_column_round_trips_at_each_width(self, tmp_path, value, dtype):
        from repro.store.segments import _read_id_column, _write_id_column

        ids = [value, 0] if value else [0]
        path = str(tmp_path / "ids")
        writer = SegmentWriter(path)
        assert _write_id_column(writer, "t", "ids", ids) == "int64"
        writer.commit("index")
        reader = SegmentReader(path)
        assert reader.files()["t/ids.npy"]["dtype"] == dtype
        decoded = _read_id_column(reader, "t", "ids", "int64")
        assert [(type(v), v) for v in decoded] == [(int, v) for v in ids]
        assert list(map(rank_tiebreak, decoded)) == list(
            map(rank_tiebreak, ids)
        )

    @pytest.mark.parametrize("codec", ["raw", "packed"])
    def test_boundary_doc_ids_serve_identically(self, tmp_path, codec):
        ids = iter(value for value, _ in self.BOUNDARIES)
        collection = SpatiotemporalCollection(timeline=8)
        for i in range(3):
            collection.add_stream(f"s{i}", Point(float(i), 0.0))
        for t, sid, terms in (
            (1, "s0", ("quake",)),
            (2, "s1", ("quake", "quake")),
            (2, "s2", ("quake", "storm")),
            (3, "s0", ("storm",)),
            (4, "s1", ("quake", "storm", "storm")),
            (5, "s2", ("storm",)),
            (5, "s0", ("quake",)),
            (6, "s1", ("filler",)),
            (7, "s2", ("quake", "filler")),
        ):
            collection.add_document(Document(next(ids), sid, t, terms))
        engine = BurstySearchEngine(
            collection, BatchMiner().mine_regional(collection)
        )
        path = str(tmp_path / "index")
        engine.save(path, codec=codec)
        files = SegmentReader(path).files()
        assert files["documents/doc_ids.npy"]["dtype"] == "<i8"
        loaded = BurstySearchEngine.from_store(path)
        for query in ("quake", "storm", "filler", "quake storm"):
            got = loaded.search(query, k=9)
            assert ranking(got) == ranking(engine.search(query, k=9))
            assert all(type(r.document.doc_id) is int for r in got)


class TestDocumentTableRowOf:
    """``row_of`` answers what a doc-id → row dict answers, without
    building one for int ids."""

    @staticmethod
    def table(tmp_path, doc_ids):
        from repro.columnar.collection import DocumentColumns
        from repro.store.collection import DocumentTable
        from repro.store.segments import write_document_columns

        path = str(tmp_path / f"table{len(os.listdir(tmp_path))}")
        rows = len(doc_ids)
        writer = SegmentWriter(path)
        write_document_columns(
            writer,
            "documents",
            4,
            {"s0": Point(0.0, 0.0)},
            DocumentColumns(
                doc_ids=doc_ids,
                stream_codes=np.zeros(rows, dtype=np.int64),
                timestamps=np.zeros(rows, dtype=np.int64),
                term_indptr=np.arange(rows + 1, dtype=np.int64),
                term_codes=np.zeros(rows, dtype=np.int64),
                term_counts=np.ones(rows, dtype=np.int64),
                vocabulary=["t"],
                event_ids={},
            ),
        )
        writer.commit("documents")
        return DocumentTable(SegmentReader(path), "documents")

    @given(
        ids=st.lists(
            st.one_of(
                st.integers(-5, 300),
                st.integers(-(2**63), 2**63 - 1),
            ),
            max_size=30,
        ),
        probes=st.lists(
            st.one_of(
                st.integers(-(2**64), 2**64),
                st.integers(-6, 301),
                st.floats(-10, 310),
                st.booleans(),
                st.text(max_size=2),
                st.none(),
            ),
            max_size=20,
        ),
        ordering=st.sampled_from(["as drawn", "ascending", "descending"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_answers_like_the_dict(self, tmp_path_factory, ids, probes, ordering):
        if ordering != "as drawn":
            ids = sorted(ids, reverse=ordering == "descending")
        table = self.table(tmp_path_factory.mktemp("rows"), ids)
        expected = dict(zip(ids, range(len(ids))))
        for probe in probes + ids + [max(ids, default=0) + 1]:
            assert table.row_of(probe) == expected.get(probe), probe

    def test_json_ids_keep_the_dict(self, tmp_path):
        table = self.table(tmp_path, ["b", 3, "a", None])
        assert [table.row_of(v) for v in ("a", 3, None, "c", 3.0)] == [
            2, 1, 3, None, 1,
        ]


class TestStoredCodeColumns:
    """A code column stored with a float dtype, or a pattern code
    outside the stream-id column (CRCs re-stamped, so only the reader's
    own checks can refuse them), is refused typed, naming the file, on
    cold open and on pattern decode."""

    @staticmethod
    def as_float(path, name):
        reader = SegmentReader(path)
        manifest = dict(reader.manifest)
        writer = SegmentWriter(path, fresh=False)
        writer.add_array(name, np.asarray(reader.array(name), dtype="<f8"))
        manifest["files"] = {**manifest["files"], **writer._files}
        rewrite_manifest(path, manifest)
        SegmentReader(path, verify=True)  # the CRCs hold

    @pytest.mark.parametrize(
        "name",
        [
            "documents/term_codes.npy",
            "documents/term_indptr.npy",
            "documents/timestamps.npy",
            "documents/doc_ids.npy",
        ],
    )
    def test_cold_open_refuses(self, tmp_path, name):
        from repro.errors import StoreCorruptionError

        collection = build_collection(seed=3)
        engine = BurstySearchEngine(
            collection, BatchMiner().mine_regional(collection)
        )
        path = str(tmp_path / "index")
        engine.save(path)
        self.as_float(path, name)
        with pytest.raises(StoreCorruptionError, match=name):
            BurstySearchEngine.from_store(path)

    @staticmethod
    def combinatorial_store(path):
        collection = SpatiotemporalCollection(timeline=12)
        for i in range(3):
            collection.add_stream(i, Point(float(i), 0.0))
        doc = 0
        for t in range(12):
            for i in range(3):
                terms = ("quake",) * 4 if t in (6, 7, 8) and i < 2 else ()
                collection.add_document(Document(doc, i, t, terms + ("x",)))
                doc += 1
        mined = BatchMiner().mine_combinatorial(collection, save_to=path)
        assert load_patterns(path) == mined and mined
        return path

    @pytest.mark.parametrize(
        "name",
        [
            "patterns/set_codes.npy",
            "patterns/sets_indptr.npy",
            "patterns/frames.npy",
            "patterns/member_frames.npy",
            "patterns/stream_ids.npy",
        ],
    )
    def test_pattern_decode_refuses(self, tmp_path, name):
        from repro.errors import StoreCorruptionError

        path = self.combinatorial_store(str(tmp_path / "comb"))
        self.as_float(path, name)
        with pytest.raises(StoreCorruptionError, match=name):
            load_patterns(path)

    @pytest.mark.parametrize("past", [0, -1])
    def test_code_outside_the_stream_table_is_refused(self, tmp_path, past):
        from repro.errors import StoreCorruptionError

        path = self.combinatorial_store(str(tmp_path / "comb"))
        reader = SegmentReader(path)
        name = "patterns/set_codes.npy"
        table = len(reader.array("patterns/stream_ids.npy"))
        codes = np.array(reader.array(name), dtype="<i8")
        codes[-1] = table + past if past == 0 else past
        manifest = dict(reader.manifest)
        writer = SegmentWriter(path, fresh=False)
        writer.add_array(name, codes)
        manifest["files"] = {**manifest["files"], **writer._files}
        rewrite_manifest(path, manifest)
        with pytest.raises(StoreCorruptionError, match=name):
            load_patterns(path)

    def test_set_codes_ascend_within_each_set(self, tmp_path):
        # Sets are stored as ascending codes (ids in repr order), so a
        # set's bytes do not depend on its iteration order: here 2, 4,
        # 10 and 33 iterate in another order than their reprs sort.
        from repro.core.patterns import RegionalPattern
        from repro.intervals.interval import Interval
        from repro.spatial.geometry import Rectangle

        streams = frozenset({33, 10, 4, 2})
        assert list(streams) != sorted(streams, key=repr)
        pattern = RegionalPattern(
            term="quake",
            region=Rectangle(0.0, 0.0, 1.0, 1.0),
            streams=streams,
            timeframe=Interval(1, 2),
            score=1.0,
            bursty_streams=frozenset({33, 2}),
        )
        path = str(tmp_path / "patterns")
        writer = SegmentWriter(path)
        encode_patterns(writer, "patterns", {"quake": [pattern]}, "regional")
        writer.commit("patterns")
        reader = SegmentReader(path)
        assert reader.array("patterns/stream_ids.npy").tolist() == [10, 2, 33, 4]
        assert reader.array("patterns/sets_indptr.npy").tolist() == [0, 4, 6]
        assert reader.array("patterns/set_codes.npy").tolist() == [
            0, 1, 2, 3, 1, 2,
        ]
        assert decode_patterns(reader, "patterns")[1] == {"quake": [pattern]}


class TestIndexDocumentColumns:
    """An index save writes ``documents/`` from the collection's column
    snapshot; the bytes must be the per-document encoder's."""

    @staticmethod
    def encoded(path, collection):
        writer = SegmentWriter(path)
        encode_documents(
            writer,
            "documents",
            collection.timeline,
            collection.locations(),
            list(collection.documents()),
        )
        writer.commit("documents")
        return path

    @staticmethod
    def documents_files(path):
        files = {}
        for name in sorted(SegmentReader(path).manifest["files"]):
            if name.startswith("documents/"):
                with open(os.path.join(path, name), "rb") as handle:
                    files[name] = handle.read()
        return files

    @pytest.mark.parametrize("codec", ["raw", "packed"])
    def test_saved_documents_equal_the_encoder_bytes(self, tmp_path, codec):
        collection = build_collection(seed=5, doc_ids="mixed")
        for doc_id, sid, terms, event in (
            ("ev-1", "s1", ("quake", "aftershock", "quake"), "e1"),
            ("ev-2", "s0", ("storm",), 7),
        ):
            collection.add_document(
                Document(doc_id, sid, 3, terms, event_id=event)
            )
        engine = BurstySearchEngine(
            collection, BatchMiner().mine_regional(collection)
        )
        first = str(tmp_path / "index")
        engine.save(first, codec=codec)
        saved = self.documents_files(first)
        assert saved == self.documents_files(
            self.encoded(str(tmp_path / "encoded"), collection)
        )

        # A save after a mutation writes the mutated table: the column
        # snapshot is rebuilt for the collection's new version.
        collection.add_document(Document("late", "s2", 20, ("storm", "late")))
        second = str(tmp_path / "again")
        engine.save(second, codec=codec)
        resaved = self.documents_files(second)
        assert resaved == self.documents_files(
            self.encoded(str(tmp_path / "encoded-after"), collection)
        )
        assert resaved != saved


@pytest.mark.parametrize("codec", ["raw", "packed"])
class TestPostingSegmentCodec:
    def round_trip(self, tmp_path, lists, codec):
        path = str(tmp_path / "postings")
        writer = SegmentWriter(path)
        encode_posting_lists(writer, "postings", lists, codec=codec)
        writer.commit("index")
        return PostingSegment(SegmentReader(path), "postings")

    def test_exotic_score_bits_survive(self, tmp_path, codec):
        """NaN payloads, infinities and subnormals round-trip bit-exactly."""
        scores = np.array(
            [
                float("inf"),
                1.0,
                5e-324,  # smallest subnormal
                float.fromhex("0x0.0000000000001p-1022"),
                -0.0,
                float("-inf"),
            ]
        )
        weird_nan = np.frombuffer(
            np.uint64(0x7FF80000DEADBEEF).tobytes(), dtype=np.float64
        )[0]
        scores = np.concatenate(([weird_nan], scores))
        ids = list(range(len(scores)))
        ties = np.arange(len(scores), dtype=np.int64)
        lists = {"t": PostingArray(ids, scores, tiebreaks=ties, presorted=True)}
        segment = self.round_trip(tmp_path, lists, codec)
        _, out_scores, out_ties = segment.posting_array("t").columns()
        assert np.asarray(out_scores).tobytes() == scores.tobytes()
        assert np.asarray(out_ties).tobytes() == ties.tobytes()

    def test_truncated_list_keeps_shadow_random_access(self, tmp_path, codec):
        postings = [Posting(doc_id=i, score=float(100 - i)) for i in range(20)]
        pruned = PostingArray.from_postings(postings).truncated(5)
        oracle = PostingList(postings).truncated(5)
        segment = self.round_trip(tmp_path, {"t": pruned}, codec)
        reloaded = segment.posting_array("t")
        assert len(reloaded) == 5
        assert reloaded.sorted_access(5) is None
        # Random access still answers for every pruned-away document.
        for i in range(20):
            assert reloaded.random_access(i) == oracle.random_access(i)
        assert reloaded.random_access("absent") is None

    def test_plain_and_array_lists_agree(self, tmp_path, codec):
        postings = [
            Posting(doc_id=f"d{i}", score=float(i % 3)) for i in range(12)
        ]
        segment = self.round_trip(
            tmp_path,
            {
                "plain": InvertedIndex().add("t", postings),
                "array": PostingArray.from_postings(postings),
            },
            codec,
        )
        oracle = PostingList(postings)
        plain = (
            [p.doc_id for p in oracle],
            np.asarray([p.score for p in oracle], dtype="<f8"),
            np.asarray([rank_tiebreak(p.doc_id) for p in oracle], dtype="<i8"),
        )
        array = segment.posting_array("array").columns()
        for decoded in (segment.posting_array("plain").columns(), array):
            assert list(decoded[0]) == list(plain[0])
            assert np.asarray(decoded[1]).tobytes() == plain[1].tobytes()
            assert np.asarray(decoded[2]).tobytes() == plain[2].tobytes()


class TestFormatCompat:
    def save(self, tmp_path, codec):
        collection = build_collection(seed=17)
        mined = BatchMiner().mine_regional(collection)
        engine = BurstySearchEngine(collection, mined)
        path = str(tmp_path / "idx")
        save_search_index(path, engine, "regional", codec=codec)
        return path, engine, mined

    def test_raw_stores_stay_version1(self, tmp_path):
        """Writers stamp the *lowest* format version that describes what
        they wrote.  An index save holds narrow document columns and
        pattern code columns, so it is a v3 store whatever its codec;
        a raw posting segment over ids that need ``<i8`` holds only
        ``<i8``/``<f8`` columns and stays a v1 store, which every
        reader of this library's history accepts."""
        path, engine, mined = self.save(tmp_path, "raw")
        assert SegmentReader(path).format_version == FORMAT_VERSION == 3
        loaded = BurstySearchEngine.from_store(path)
        for term in mined:
            assert ranking(loaded.search(term, k=8)) == ranking(
                engine.search(term, k=8)
            )
        verify_store(path)
        assert self.posting_store(tmp_path, "raw").format_version == 1

    def test_packed_stores_stamp_version2(self, tmp_path):
        path, _, _ = self.save(tmp_path, "packed")
        assert SegmentReader(path).format_version == FORMAT_VERSION == 3
        # The packed codec's |u1 payloads alone are a v2 layout.
        assert self.posting_store(tmp_path, "packed").format_version == 2

    @staticmethod
    def posting_store(tmp_path, codec):
        """A posting segment whose doc-id table needs ``<i8``."""
        path = str(tmp_path / f"postings-{codec}")
        ids = [-1, 2**40, 5]
        lists = {"t": PostingArray(ids, [3.0, 2.0, 1.0])}
        writer = SegmentWriter(path)
        encode_posting_lists(writer, "postings", lists, codec=codec)
        writer.commit("index")
        reader = SegmentReader(path)
        assert reader.files()["postings/doc_table.npy"]["dtype"] == "<i8"
        assert PostingSegment(reader, "postings").columns("t")[0] == ids
        return reader


class TestPackedCodecProperty:
    """Differential property: packed and raw encodings of the same lists
    decode byte-identically — across empty lists, single postings,
    block-boundary lengths, dictionary hits and residual escapes,
    non-integer doc ids and crc32 (non-monotone) tiebreaks."""

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_packed_decodes_byte_identical_to_raw(
        self, tmp_path_factory, data
    ):
        from repro.store.codec import PACK_BLOCK

        palette = data.draw(
            st.lists(
                st.floats(allow_nan=True, allow_infinity=True),
                min_size=1,
                max_size=4,
            )
        )
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        lists = {}
        for index in range(data.draw(st.integers(1, 4))):
            length = data.draw(
                st.sampled_from(
                    [0, 1, 2, PACK_BLOCK - 1, PACK_BLOCK, PACK_BLOCK + 1, 300]
                )
            )
            kind = data.draw(st.sampled_from(["int", "str", "mixed"]))
            ids = list(range(length))
            if kind != "int":
                ids = [
                    f"d{i}" if kind == "str" or i % 2 else i for i in ids
                ]
            scores = [
                rng.choice(palette)
                if rng.random() < 0.7
                else rng.uniform(-1e6, 1e6)
                for _ in range(length)
            ]
            lists[f"t{index}"] = PostingArray(ids, scores)
        tmp = tmp_path_factory.mktemp("codec")
        segments = {}
        for codec in ("raw", "packed"):
            path = str(tmp / codec)
            writer = SegmentWriter(path)
            encode_posting_lists(writer, "postings", lists, codec=codec)
            writer.commit("index")
            segments[codec] = PostingSegment(SegmentReader(path), "postings")
        for term in lists:
            raw_cols = segments["raw"].posting_array(term).columns()
            packed_cols = segments["packed"].posting_array(term).columns()
            assert list(raw_cols[0]) == list(packed_cols[0])
            for raw_col, packed_col in zip(raw_cols[1:], packed_cols[1:]):
                assert (
                    np.asarray(raw_col).tobytes()
                    == np.asarray(packed_col).tobytes()
                )


class TestTrackerRoundTrip:
    """Mining output saves: patterns only — tracker state is derived."""

    def test_custom_baseline_rejected_explicitly(self):
        # Live checkpoints and miner_config record the STLocal config;
        # only the paper-default baseline has a persistable form.
        from repro.core.config import STLocalConfig
        from repro.temporal.baselines import EWMABaseline

        config = STLocalConfig(baseline_factory=EWMABaseline)
        with pytest.raises(StoreError, match="RunningMeanBaseline"):
            encode_config(config)

    def test_mine_save_to_persists_patterns_only(self, tmp_path):
        collection = build_collection(seed=5)
        path = str(tmp_path / "mined")
        mined = BatchMiner().mine_regional(collection, save_to=path)
        assert load_patterns(path) == mined
        reader = SegmentReader(path, verify=True)
        assert not [
            name for name in reader.manifest["files"]
            if name.startswith(("trackers/", "trackers_streams/"))
        ]
        assert reader.metadata["trackers"] is False

    def test_legacy_tracker_segments_are_ignored(self, tmp_path):
        # Regional pattern stores saved before tracker state became
        # derived carry trackers/ and trackers_streams/ segments;
        # loading reads neither.
        collection = build_collection(seed=5)
        path = str(tmp_path / "mined")
        mined = BatchMiner().mine_regional(collection, save_to=path)
        add_legacy_tracker_segment(path, ("trackers_streams", "trackers"))
        reader = SegmentReader(path, verify=True)
        assert reader.has("trackers/meta.json")
        assert reader.metadata["trackers"] is True
        assert load_patterns(path) == mined

    def test_non_scalar_stream_ids_rejected_at_save(self, tmp_path):
        """A store that commits must always load: tuple stream ids (legal
        everywhere else — streams are Hashable) cannot survive a JSON
        round trip, so the save must fail, not produce a store that
        crashes on decode."""
        collection = SpatiotemporalCollection(timeline=12)
        for i in range(3):
            collection.add_stream(("city", i), Point(float(i), 0.0))
        doc = 0
        for t in range(12):
            for i in range(3):
                collection.add_document(
                    Document(doc, ("city", i), t, ("filler",))
                )
                doc += 1
        for t in (6, 7, 8):
            for i in (0, 1):
                for _ in range(4):
                    collection.add_document(
                        Document(doc, ("city", i), t, ("quake", "quake"))
                    )
                    doc += 1
        mined = BatchMiner().mine_combinatorial(collection)
        assert mined  # the workload really produces tuple-id patterns
        with pytest.raises(StoreError, match="not persistable"):
            BatchMiner().mine_combinatorial(
                collection, save_to=str(tmp_path / "comb")
            )
        with pytest.raises(StoreError, match="not persistable"):
            BatchMiner().mine_regional(
                collection, save_to=str(tmp_path / "reg")
            )

    def test_mine_combinatorial_save_to(self, tmp_path):
        collection = build_collection(seed=6)
        path = str(tmp_path / "comb")
        mined = BatchMiner().mine_combinatorial(collection, save_to=path)
        assert load_patterns(path) == mined
        assert not SegmentReader(path).has("trackers/meta.json")


class TestLiveCheckpoint:
    def drive(self, engine, live, upto, seed=21):
        rng = random.Random(seed)
        doc = getattr(self, "_doc", 0)
        for t in range(getattr(self, "_from", 0), upto):
            for sid in list(live.locations()):
                if rng.random() < 0.6:
                    term = rng.choice(("storm", "filler"))
                    live.ingest(Document(doc, sid, t, (term, term)))
                    doc += 1
        self._doc = doc
        self._from = upto

    def build(self):
        self._doc, self._from = 0, 0
        live = LiveCollection(32)
        for i in range(4):
            live.add_stream(f"s{i}", Point(float(i % 2), float(i // 2)))
        return live, LiveSearchEngine(live)

    def test_stats_reset_after_restore(self, tmp_path):
        live, engine = self.build()
        self.drive(engine, live, 16)
        engine.search("storm", k=5)
        engine.search("storm", k=5)
        assert engine.stats.cache_hits == 1
        assert engine.stats.cache_misses == 1
        assert engine.stats.rebuilds == 1
        path = str(tmp_path / "ckpt")
        engine.checkpoint(path)
        engine.restore(path)
        # The backing index identity changed: stale hit-rates must not
        # survive into the restored engine.
        assert engine.stats.cache_hits == 0
        assert engine.stats.cache_misses == 0
        assert engine.stats.rebuilds == 0
        assert engine.cached_queries == 0
        engine.search("storm", k=5)
        assert engine.stats.cache_misses == 1
        # Served from the persisted base — no rebuild, no delta.
        assert engine.stats.rebuilds == 0
        assert engine.stats.served_current == 1

    def test_restore_resumes_mid_stream(self, tmp_path):
        live, engine = self.build()
        self.drive(engine, live, 12)
        before = ranking(engine.search("storm", k=6))
        path = str(tmp_path / "ckpt")
        engine.checkpoint(path)

        restored = LiveSearchEngine.from_checkpoint(path)
        assert ranking(restored.search("storm", k=6)) == before
        assert restored.live.watermark == live.watermark
        assert restored.live.epoch == live.epoch

        # Continue ingesting the identical tail into both engines.
        self._from = 12
        saved_doc, saved_from = self._doc, self._from
        self.drive(engine, live, 24, seed=5)
        self._doc, self._from = saved_doc, saved_from
        self.drive(restored, restored.live, 24, seed=5)
        for k in (3, 8):
            assert ranking(restored.search("storm", k=k)) == ranking(
                engine.search("storm", k=k)
            )

    @staticmethod
    def cold_engine(live):
        """A static engine batch-mined from the live documents."""
        cold = SpatiotemporalCollection(live.timeline)
        for sid, point in live.locations().items():
            cold.add_stream(sid, point)
        for document in live.ingested_documents():
            cold.add_document(document)
        return BurstySearchEngine(cold, BatchMiner().mine_regional(cold))

    def test_restored_engine_matches_cold_batch_rebuild(self, tmp_path):
        live, engine = self.build()
        self.drive(engine, live, 20)
        engine.search("storm", k=5)
        path = str(tmp_path / "ckpt")
        engine.checkpoint(path)
        # Trackers are derived state: a checkpoint stores none.
        files = SegmentReader(path).manifest["files"]
        assert not [name for name in files if name.startswith("trackers/")]
        restored = LiveSearchEngine.from_checkpoint(path)

        batch = self.cold_engine(live)
        assert ranking(restored.search("storm", k=10)) == ranking(
            batch.search("storm", k=10)
        )
        verify_store(path)

    def test_legacy_trackers_segment_is_ignored(self, tmp_path):
        # Checkpoints written before trackers became derived state carry
        # a trackers/ segment and a doc_cursor per term; restore reads
        # neither, rebuilds trackers from the documents, and keeps
        # answering and ingesting exactly like a cold batch rebuild.
        live, engine = self.build()
        self.drive(engine, live, 16)
        for query in ("storm", "filler"):
            engine.search(query, k=5)
        path = str(tmp_path / "legacy")
        engine.checkpoint(path)
        reader = SegmentReader(path)
        manifest = dict(reader.manifest)
        meta = reader.json("live/meta.json")
        meta["states"] = [
            {**state, "doc_cursor": live.term_version(state["term"])}
            for state in meta["states"]
        ]
        writer = SegmentWriter(path, fresh=False)
        writer.add_json("live/meta.json", meta)
        manifest["files"] = {**manifest["files"], **writer._files}
        rewrite_manifest(path, manifest)
        add_legacy_tracker_segment(path)
        assert SegmentReader(path, verify=True).has("trackers/meta.json")

        restored = LiveSearchEngine.from_checkpoint(path)
        queries = ("storm", "filler", "storm filler")
        for query in queries:
            assert ranking(restored.search(query, k=10)) == ranking(
                engine.search(query, k=10)
            )
        # Continue the identical feed into both engines.
        saved_doc, saved_from = self._doc, self._from
        self.drive(engine, live, 28, seed=5)
        self._doc, self._from = saved_doc, saved_from
        self.drive(restored, restored.live, 28, seed=5)
        batch = self.cold_engine(restored.live)
        for query in queries:
            for k in (3, 10):
                expected = ranking(batch.search(query, k=k))
                assert ranking(restored.search(query, k=k)) == expected
                assert ranking(engine.search(query, k=k)) == expected

    def test_legacy_meta_key_is_ignored(self, tmp_path):
        # Checkpoints written before the live engine dropped its delta
        # layer carry a compaction threshold in live/meta.json; restore
        # ignores it and serves and re-checkpoints exactly as without.
        live, engine = self.build()
        self.drive(engine, live, 16)
        engine.search("storm", k=5)
        plain, legacy = str(tmp_path / "plain"), str(tmp_path / "legacy")
        engine.checkpoint(plain)
        engine.checkpoint(legacy)
        reader = SegmentReader(legacy)
        manifest = dict(reader.manifest)
        meta = {**reader.json("live/meta.json"), "compaction_threshold": 32}
        writer = SegmentWriter(legacy, fresh=False)
        writer.add_json("live/meta.json", meta)
        manifest["files"] = {**manifest["files"], **writer._files}
        rewrite_manifest(legacy, manifest)
        assert SegmentReader(legacy).json("live/meta.json") == meta

        restored = {
            path: LiveSearchEngine.from_checkpoint(path)
            for path in (plain, legacy)
        }
        for query in ("storm", "filler", "storm filler"):
            for k in (3, 10):
                assert ranking(restored[legacy].search(query, k=k)) == ranking(
                    restored[plain].search(query, k=k)
                )
        # Both engines served the same queries: re-checkpointing them
        # writes the same bytes, and the legacy key is gone.
        again = {}
        for path, engine in restored.items():
            again[path] = path + "-again"
            engine.checkpoint(again[path])
        files = sorted(SegmentReader(again[plain]).manifest["files"])
        assert files == sorted(SegmentReader(again[legacy]).manifest["files"])
        for name in files + ["MANIFEST.json"]:
            with open(os.path.join(again[plain], name), "rb") as handle:
                expected = handle.read()
            with open(os.path.join(again[legacy], name), "rb") as handle:
                assert handle.read() == expected, name
        assert "compaction_threshold" not in SegmentReader(again[legacy]).json(
            "live/meta.json"
        )

    def test_restore_rejects_wrong_kind(self, saved, tmp_path):
        path, _, _, _ = saved
        live, engine = self.build()
        with pytest.raises(StoreError, match="'live'"):
            engine.restore(path)

    def test_config_mismatch_rejected(self, tmp_path):
        from repro.core.config import STLocalConfig

        live, engine = self.build()
        self.drive(engine, live, 8)
        path = str(tmp_path / "ckpt")
        engine.checkpoint(path)
        other = LiveSearchEngine(
            LiveCollection(1), config=STLocalConfig(warmup=9)
        )
        with pytest.raises(StoreError, match="STLocal settings"):
            other.restore(path)


class TestLiveCheckpointColumns:
    """A checkpoint's document table is the live collection's own table:
    restore adopts its columns, re-checkpointing writes them back byte
    for byte, and inconsistent columns are refused, not adopted."""

    VOCABULARY = ("storm", "flood", "filler", "quake", "rain")

    def feed(self, engine, live, start, stop, seed):
        """Ingest timestamps ``[start, stop)``, querying as it goes."""
        rng = random.Random(seed)
        doc = live.document_count
        for t in range(start, stop):
            for sid in list(live.locations()):
                if rng.random() < 0.6:
                    terms = tuple(
                        rng.choice(self.VOCABULARY)
                        for _ in range(rng.randint(1, 4))
                    )
                    event = rng.choice((None, None, f"ev{t % 3}", t % 2))
                    live.ingest(Document(doc, sid, t, terms, event_id=event))
                    doc += 1
            if t % 5 == 4:
                engine.search(rng.choice(("storm", "flood", "storm rain")), k=5)

    def build(self, stop=20):
        live = LiveCollection(40)
        for i in range(5):
            live.add_stream(f"s{i}", Point(float(i % 3), float(i // 3)))
        engine = LiveSearchEngine(live)
        self.feed(engine, live, 0, stop, seed=3)
        return live, engine

    @staticmethod
    def read(path, name):
        with open(os.path.join(path, name), "rb") as handle:
            return handle.read()

    def assert_same_files(self, expected, actual, names):
        for name in names:
            assert self.read(actual, name) == self.read(expected, name), name

    @pytest.mark.parametrize("codec", ["raw", "packed"])
    def test_documents_segment_equals_encode_documents(self, tmp_path, codec):
        live, engine = self.build()
        checkpoint = str(tmp_path / "ckpt")
        engine.checkpoint(checkpoint, codec=codec)
        encoded = str(tmp_path / "encoded")
        writer = SegmentWriter(encoded)
        encode_documents(
            writer,
            "documents",
            live.timeline,
            live.locations(),
            live.ingested_documents(),
        )
        writer.commit("documents")
        names = sorted(
            name
            for name in SegmentReader(checkpoint).manifest["files"]
            if name.startswith("documents/")
        )
        assert names == sorted(SegmentReader(encoded).manifest["files"])
        self.assert_same_files(encoded, checkpoint, names)

    @pytest.mark.parametrize("codec", ["raw", "packed"])
    def test_checkpoint_after_restore_is_byte_identical(self, tmp_path, codec):
        live, engine = self.build()
        source = str(tmp_path / "source")
        engine.checkpoint(source, codec=codec)
        again = str(tmp_path / "again")
        LiveSearchEngine.from_checkpoint(source).checkpoint(again, codec=codec)
        names = sorted(SegmentReader(source).manifest["files"])
        assert names == sorted(SegmentReader(again).manifest["files"])
        self.assert_same_files(source, again, names + ["MANIFEST.json"])

    @staticmethod
    def assert_same_term_answers(restored, live, terms=None):
        """Every vocabulary term (or those of ``terms``), and one absent
        term, reads the same from a restored collection as from the one
        that ingested."""

        def summary(documents):
            return [
                (d.doc_id, d.stream_id, d.timestamp, d.term_counts(),
                 d.event_id)
                for d in documents
            ]

        assert restored.vocabulary == live.vocabulary
        assert restored.document_columns().vocabulary == (
            live.document_columns().vocabulary
        )
        for term in sorted(terms or live.vocabulary) + ["absent"]:
            assert restored.term_version(term) == live.term_version(term)
            assert restored.term_snapshots(term) == live.term_snapshots(term)
            got, want = restored.term_columns(term), live.term_columns(term)
            for field in (
                "timestamps",
                "stream_codes",
                "frequencies",
                "tiebreaks",
                "rows",
            ):
                assert np.array_equal(
                    getattr(got, field), getattr(want, field)
                ), (term, field)
            assert list(got.doc_ids) == list(want.doc_ids)
            assert summary(restored.documents_with(term)) == summary(
                live.documents_with(term)
            )

    @pytest.mark.parametrize("codec", ["raw", "packed"])
    def test_restored_engine_keeps_ingesting_like_the_uninterrupted_one(
        self, tmp_path, codec
    ):
        live, engine = self.build()
        path = str(tmp_path / "ckpt")
        engine.checkpoint(path, codec=codec)
        restored = LiveSearchEngine.from_checkpoint(path)
        # Restore cuts no term view: each is cut on first use.
        assert restored.live._term_views == {}
        # The resumed ingest first touches a stored term ("quake": its
        # stored rows, then the new row) and a brand-new one ("ash").
        assert "quake" in live.vocabulary and "ash" not in live.vocabulary
        for target in (engine, restored):
            target.live.ingest(
                Document(10_000, "s1", 20, ("quake", "ash", "quake"))
            )
        assert set(restored.live._term_views) == {"quake", "ash"}
        self.assert_same_term_answers(restored.live, live)
        for target in (engine, restored):
            self.feed(target, target.live, 20, 40, seed=11)
        self.assert_same_term_answers(restored.live, live)
        queries = self.VOCABULARY + ("storm rain", "flood quake filler")
        for query in queries:
            for k in (3, 10):
                assert ranking(restored.search(query, k=k)) == ranking(
                    engine.search(query, k=k)
                )
        # A stored row keeps its term counts, not its token interleaving.
        assert [
            (d.doc_id, d.stream_id, d.timestamp, d.term_counts(), d.event_id)
            for d in restored.live.ingested_documents()
        ] == [
            (d.doc_id, d.stream_id, d.timestamp, d.term_counts(), d.event_id)
            for d in live.ingested_documents()
        ]
        # Both served the same queries since the checkpoint, so their
        # next checkpoints are the same bytes too.
        ends = {}
        for name, target in (("engine", engine), ("restored", restored)):
            ends[name] = str(tmp_path / name)
            target.checkpoint(ends[name], codec=codec)
        names = sorted(SegmentReader(ends["engine"]).manifest["files"])
        self.assert_same_files(
            ends["engine"], ends["restored"], names + ["MANIFEST.json"]
        )

    @pytest.mark.parametrize("terms", [3, 300, 70_000])
    def test_from_columns_groups_every_code_width(self, terms):
        """Vocabularies whose codes sort as uint8, uint16 and uint32."""
        rng = random.Random(terms)
        vocabulary = [f"t{code}" for code in range(terms)]
        live = LiveCollection(10)
        for i in range(3):
            live.add_stream(f"s{i}", Point(float(i), 0.0))
        # The first documents introduce the codes in order, the rest
        # mention random terms again.
        documents = [
            Document(
                row, f"s{row % 3}", 0, tuple(vocabulary[start : start + 100])
            )
            for row, start in enumerate(range(0, terms, 100))
        ]
        first = len(documents)
        documents += [
            Document(
                row,
                f"s{row % 3}",
                1 + (row - first) // 5,
                tuple(rng.choices(vocabulary, k=rng.randint(1, 6))),
            )
            for row in range(first, first + 40)
        ]
        for document in documents:
            live.ingest(document)
        restored = LiveCollection.from_columns(
            live.timeline,
            live.locations(),
            live.document_columns(),
            documents.__getitem__,
        )
        probed = {term for d in documents[first:] for term in d.terms}
        self.assert_same_term_answers(
            restored, live, probed.union(vocabulary[::997], vocabulary[-2:])
        )

    def tampered(self, tmp_path, name, change, keep_dtype=False):
        """A checkpoint whose ``name`` was rewritten by ``change`` (a
        function of the stored value) and whose manifest CRC was
        re-stamped, so only the restore's own checks can refuse it."""
        from repro.errors import StoreCorruptionError

        live, engine = self.build()
        path = str(tmp_path / "tampered")
        engine.checkpoint(path)
        reader = SegmentReader(path)
        manifest = dict(reader.manifest)
        writer = SegmentWriter(path, fresh=False)
        if name.endswith(".json"):
            writer.add_json(name, change(reader.json(name)))
        else:
            # Widened first: a narrow column cannot hold every edit
            # (65536, -1), unless ``keep_dtype`` keeps its stored width.
            stored = reader.array(name)
            column = np.array(stored, dtype=stored.dtype if keep_dtype else "<i8")
            writer.add_array(name, change(column))
        manifest["files"] = {**manifest["files"], **writer._files}
        rewrite_manifest(path, manifest)
        SegmentReader(path, verify=True)  # the CRCs hold
        return path, pytest.raises(StoreCorruptionError, match=name)

    @staticmethod
    def edit(index, value):
        def change(array):
            array[index] = value(array)
            return array

        return change

    def test_out_of_range_term_code_is_refused(self, tmp_path):
        path, refused = self.tampered(
            tmp_path,
            "documents/term_codes.npy",
            self.edit(0, lambda codes: len(self.VOCABULARY)),
        )
        with refused:
            LiveSearchEngine.from_checkpoint(path)

    def test_term_code_past_the_sort_key_width_is_refused(self, tmp_path):
        # Restore sorts the codes as the narrowest unsigned type holding
        # the vocabulary (uint8 here), where 65536 + c would wrap to c:
        # the range check must refuse the code before that cast.
        path, refused = self.tampered(
            tmp_path,
            "documents/term_codes.npy",
            self.edit(0, lambda codes: 65536 + codes[0]),
        )
        with refused:
            LiveSearchEngine.from_checkpoint(path)

    def test_negative_term_code_is_refused(self, tmp_path):
        path, refused = self.tampered(
            tmp_path, "documents/term_codes.npy", self.edit(0, lambda _: -1)
        )
        with refused:
            LiveSearchEngine.from_checkpoint(path)

    def test_out_of_range_stream_code_is_refused(self, tmp_path):
        path, refused = self.tampered(
            tmp_path, "documents/stream_codes.npy", self.edit(0, lambda _: 5)
        )
        with refused:
            LiveSearchEngine.from_checkpoint(path)

    def test_decreasing_term_indptr_is_refused(self, tmp_path):
        path, refused = self.tampered(
            tmp_path,
            "documents/term_indptr.npy",
            self.edit(1, lambda indptr: indptr[2] + 1),
        )
        with refused:
            LiveSearchEngine.from_checkpoint(path)

    def test_decreasing_timestamps_are_refused(self, tmp_path):
        path, refused = self.tampered(
            tmp_path,
            "documents/timestamps.npy",
            self.edit(0, lambda timestamps: timestamps[-1]),
        )
        with refused:
            LiveSearchEngine.from_checkpoint(path)

    @pytest.mark.parametrize(
        "name, index, value",
        [
            ("documents/term_indptr.npy", 1, lambda indptr: indptr[2] + 1),
            ("documents/timestamps.npy", 0, lambda timestamps: timestamps[-1]),
        ],
    )
    def test_decreasing_narrow_column_is_refused(
        self, tmp_path, name, index, value
    ):
        # Kept unsigned, where np.diff would wrap to a large positive
        # step instead of a negative one.
        path, refused = self.tampered(
            tmp_path, name, self.edit(index, value), keep_dtype=True
        )
        assert SegmentReader(path).array(name).dtype.kind == "u"
        with refused:
            LiveSearchEngine.from_checkpoint(path)

    @pytest.mark.parametrize(
        "name",
        [
            "documents/term_codes.npy",
            "documents/term_indptr.npy",
            "documents/doc_ids.npy",
            "documents/stream_codes.npy",
        ],
    )
    def test_non_integer_document_column_is_refused(self, tmp_path, name):
        path, refused = self.tampered(
            tmp_path, name, lambda column: column.astype("<f8")
        )
        with refused:
            LiveSearchEngine.from_checkpoint(path)
        # A cold open of an index store refuses it the same way.
        from repro.store.collection import DocumentTable

        with refused:
            DocumentTable(SegmentReader(path), "documents")

    def test_out_of_timeline_timestamp_is_refused(self, tmp_path):
        path, refused = self.tampered(
            tmp_path, "documents/timestamps.npy", self.edit(-1, lambda _: 40)
        )
        with refused:
            LiveSearchEngine.from_checkpoint(path)

    def test_duplicate_document_id_is_refused(self, tmp_path):
        path, refused = self.tampered(
            tmp_path,
            "documents/doc_ids.npy",
            self.edit(1, lambda doc_ids: doc_ids[0]),
        )
        with refused:
            LiveSearchEngine.from_checkpoint(path)

    @pytest.mark.parametrize(
        "name, change",
        [
            ("patterns/frames.npy", lambda frames: frames[:-1]),
            (
                "patterns/meta.json",
                lambda meta: {
                    **meta,
                    "counts": [count + 1 for count in meta["counts"]],
                },
            ),
            ("patterns/set_codes.npy", lambda codes: codes + 1000),
            ("patterns/set_codes.npy", lambda codes: codes - 1000),
            ("patterns/set_codes.npy", lambda codes: codes.astype("<f8")),
            ("patterns/sets_indptr.npy", lambda indptr: indptr[::-1]),
            ("patterns/sets_indptr.npy", lambda indptr: indptr[:-1]),
            ("patterns/bursty_none.npy", lambda flags: flags[:-1]),
            ("patterns/stream_ids.json", lambda ids: ids[:1]),
        ],
    )
    def test_undecodable_patterns_are_refused_at_first_read(
        self, tmp_path, name, change
    ):
        from repro.errors import StoreCorruptionError

        path, _ = self.tampered(tmp_path, name, change)
        # Restore leaves the patterns segment unread ...
        restored = LiveSearchEngine.from_checkpoint(path)
        term = next(
            term
            for term, state in restored._states.items()
            if restored.live.term_version(term) == state.version
        )
        # ... and the first read refuses it with the typed error.
        with pytest.raises(StoreCorruptionError, match="patterns/"):
            restored.patterns_for(term)
        with pytest.raises(StoreCorruptionError, match="patterns/"):
            restored.checkpoint(str(tmp_path / "again"))

    def test_watermark_behind_the_last_document_is_refused(self, tmp_path):
        path, refused = self.tampered(
            tmp_path,
            "live/meta.json",
            lambda meta: {**meta, "watermark": 0},
        )
        with refused:
            LiveSearchEngine.from_checkpoint(path)


class TestPatternIdOrder:
    """``encode_patterns`` stores every distinct stream id once per call,
    ranked by ``repr``; a set's codes, ascending, must list its ids
    exactly as ``sorted(ids, key=repr)``, the order the JSON skeleton
    of earlier formats held."""

    ids = st.one_of(
        st.text(max_size=3),
        st.integers(-3, 12),
        st.none(),
        st.booleans(),
        st.floats(allow_nan=True, allow_infinity=False, width=16),
    )

    @staticmethod
    def listed(table, code_of, ids):
        return [table[code] for code in sorted(map(code_of, ids))]

    @given(
        id_sets=st.lists(st.frozensets(ids, max_size=6), min_size=1, max_size=6)
    )
    @settings(max_examples=150, deadline=None)
    def test_lister_orders_like_sorting_by_repr(self, id_sets):
        from repro.store.segments import _id_table

        table, code_of = _id_table(id_sets)
        assert len(set(map(repr, table))) == len(table)
        for ids in id_sets:
            listed = self.listed(table, code_of, ids)
            # Each id decodes as the value it was: equal and of its type.
            assert [(type(v), repr(v)) for v in listed] == [
                (type(v), repr(v)) for v in sorted(ids, key=repr)
            ]

    def test_str_int_and_none_ids_take_the_ranked_path(self):
        from repro.store.segments import _id_table

        sets = [frozenset({"b", 2, None, "a"}), frozenset({10, "10", 1})]
        table, code_of = _id_table(sets)
        assert table == sorted({"b", 2, None, "a", 10, "10", 1}, key=repr)
        assert [self.listed(table, code_of, ids) for ids in sets] == [
            sorted(ids, key=repr) for ids in sets
        ]

    @pytest.mark.parametrize("bad", [("city", 1), b"raw"])
    def test_non_scalar_id_is_refused_once_per_call(self, tmp_path, bad):
        from repro.core.patterns import RegionalPattern
        from repro.intervals.interval import Interval
        from repro.spatial.geometry import Rectangle

        pattern = RegionalPattern(
            term="quake",
            region=Rectangle(0.0, 0.0, 1.0, 1.0),
            streams=frozenset({"ok", bad}),
            timeframe=Interval(1, 2),
            score=1.0,
        )
        writer = SegmentWriter(str(tmp_path / "patterns"))
        with pytest.raises(StoreError, match="not persistable"):
            encode_patterns(writer, "patterns", {"quake": [pattern]}, "regional")


class TestPatternCodecProperty:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_regional_patterns_round_trip(self, tmp_path_factory, data):
        from repro.core.patterns import RegionalPattern
        from repro.intervals.interval import Interval
        from repro.spatial.geometry import Rectangle

        n_terms = data.draw(st.integers(0, 3))
        patterns = {}
        for index in range(n_terms):
            entries = []
            for _ in range(data.draw(st.integers(0, 4))):
                x0 = data.draw(st.floats(-50, 50))
                y0 = data.draw(st.floats(-50, 50))
                start = data.draw(st.integers(0, 30))
                streams = frozenset(
                    data.draw(
                        st.lists(
                            st.one_of(
                                st.integers(0, 9),
                                st.text("ab", min_size=1, max_size=3),
                            ),
                            min_size=1,
                            max_size=4,
                            unique=True,
                        )
                    )
                )
                entries.append(
                    RegionalPattern(
                        term=f"t{index}",
                        region=Rectangle(
                            x0,
                            y0,
                            x0 + data.draw(st.floats(0, 10)),
                            y0 + data.draw(st.floats(0, 10)),
                        ),
                        streams=streams,
                        timeframe=Interval(
                            start, start + data.draw(st.integers(0, 10))
                        ),
                        score=data.draw(
                            st.floats(
                                allow_nan=False, allow_infinity=True
                            )
                        ),
                        bursty_streams=data.draw(
                            st.one_of(st.none(), st.just(streams))
                        ),
                    )
                )
            patterns[f"t{index}"] = entries
        path = str(tmp_path_factory.mktemp("pat") / "store")
        writer = SegmentWriter(path)
        encode_patterns(writer, "patterns", patterns, "regional")
        writer.commit("patterns")
        _, decoded = decode_patterns(SegmentReader(path), "patterns")
        assert decoded == patterns


class TestEngineRoundTripProperty:
    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_random_corpora_round_trip(self, tmp_path_factory, data):
        seed = data.draw(st.integers(0, 2**16))
        doc_ids = data.draw(st.sampled_from(["int", "str", "mixed"]))
        streams = data.draw(st.integers(2, 6))
        timeline = data.draw(st.integers(12, 28))
        collection = build_collection(
            seed=seed, streams=streams, timeline=timeline, doc_ids=doc_ids
        )
        codec = data.draw(st.sampled_from(["raw", "packed"]))
        mined = BatchMiner().mine_regional(collection)
        engine = BurstySearchEngine(collection, mined)
        path = str(tmp_path_factory.mktemp("rt") / "store")
        save_search_index(path, engine, "regional", codec=codec)
        loaded = BurstySearchEngine.from_store(path)
        k = data.draw(st.integers(1, 12))
        queries = sorted(mined) + ["quake storm"]
        for query in queries:
            for strategy in ("ta", "blockmax", "scan"):
                assert ranking(
                    loaded.search(query, k=k, strategy=strategy)
                ) == ranking(engine.search(query, k=k, strategy=strategy))


class TestCrashSchedules:
    """Hypothesis sweep over ingest/checkpoint/crash interleavings.

    A live engine ingests in bursts and checkpoints between them; the
    final checkpoint is killed at an arbitrary mutating-IO boundary
    (drawn by Hypothesis, executed by the deterministic fault shim).
    Recovery must land exactly on a *completed* checkpoint — the
    crashed one if its manifest committed (byte-identical to an
    unfaulted run), else the previous one (untouched, byte-identical
    to the snapshot taken when it was written) — and never between
    two.  Both posting codecs are drawn into the sweep.
    """

    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_restore_matches_last_completed_checkpoint(
        self, tmp_path_factory, data
    ):
        import os

        from repro.errors import StoreCorruptionError
        from repro.faults import (
            FaultPlan,
            FaultRule,
            FaultyIO,
            InjectedCrash,
            install,
            record_operations,
            snapshot_files,
        )
        from repro.store import MANIFEST_NAME

        codec = data.draw(st.sampled_from(["raw", "packed"]))
        tmp = tmp_path_factory.mktemp("sched")
        live = LiveCollection(48)
        for i in range(4):
            live.add_stream(f"s{i}", Point(float(i % 2), float(i // 2)))
        engine = LiveSearchEngine(live)
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        doc, upto = 0, 0

        def ingest_burst(steps):
            nonlocal doc, upto
            for t in range(upto, upto + steps):
                for sid in list(live.locations()):
                    if rng.random() < 0.7:
                        term = rng.choice(("storm", "filler"))
                        live.ingest(Document(doc, sid, t, (term, term)))
                        doc += 1
            upto += steps

        checkpoints = []
        for step in range(data.draw(st.integers(1, 2))):
            ingest_burst(data.draw(st.integers(2, 4)))
            engine.search("storm", k=5)
            path = str(tmp / f"ckpt{step}")
            engine.checkpoint(path, codec=codec)
            checkpoints.append(
                (path, snapshot_files(path), ranking(engine.search("storm", k=5)))
            )
        # More ingestion, so the final (crashed) checkpoint would
        # persist state the previous one does not hold.
        ingest_burst(data.draw(st.integers(1, 3)))
        final_ranking = ranking(engine.search("storm", k=5))

        reference_dir = str(tmp / "reference")
        engine.checkpoint(reference_dir, codec=codec)
        reference = snapshot_files(reference_dir)
        ops = record_operations(
            lambda p: engine.checkpoint(p, codec=codec),
            str(tmp / "recording"),
        )
        crash_index = data.draw(st.integers(0, len(ops) - 1))

        target = str(tmp / "crashed")
        plan = FaultPlan(
            [FaultRule(op="mutate", action="crash_before", index=crash_index)]
        )
        with install(FaultyIO(plan)):
            with pytest.raises(InjectedCrash):
                engine.checkpoint(target, codec=codec)

        if os.path.exists(os.path.join(target, MANIFEST_NAME)):
            # The kill landed at/after the atomic rename: the store is
            # complete and byte-identical to the unfaulted reference.
            SegmentReader(target, verify=True)
            assert snapshot_files(target) == reference
            recovery, expected = target, final_ranking
        else:
            # Not committed: the reader refuses with a typed error and
            # the previous completed checkpoint is bit-for-bit intact.
            with pytest.raises(StoreCorruptionError):
                SegmentReader(target)
            path, snapshot, at_checkpoint = checkpoints[-1]
            assert snapshot_files(path) == snapshot
            recovery, expected = path, at_checkpoint
        restored = LiveSearchEngine.from_checkpoint(recovery)
        assert ranking(restored.search("storm", k=5)) == expected
