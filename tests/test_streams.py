"""Documents, streams, collections, frequency tensors."""

import numpy as np
import pytest

from repro.errors import StreamError, UnknownTermError
from repro.spatial import Point
from repro.streams import (
    Document,
    DocumentStream,
    FrequencyTensor,
    SpatiotemporalCollection,
    tokenize,
)


class TestTokenize:
    def test_lowercase_alnum(self):
        assert tokenize("Air France Flight-447!") == ("air", "france", "flight", "447")

    def test_empty(self):
        assert tokenize("") == ()

    def test_numbers_kept(self):
        assert tokenize("h1n1 virus") == ("h1n1", "virus")


class TestDocument:
    def test_from_text(self):
        doc = Document.from_text(1, "us", 3, "Obama visits Ohio; Obama speaks")
        assert doc.frequency("obama") == 2
        assert doc.frequency("ohio") == 1
        assert doc.frequency("mars") == 0

    def test_negative_timestamp(self):
        with pytest.raises(StreamError):
            Document(1, "us", -1, ("a",))

    def test_term_counts(self):
        doc = Document(1, "us", 0, ("a", "b", "a"))
        assert doc.term_counts() == {"a": 2, "b": 1}

    def test_contains_any(self):
        doc = Document(1, "us", 0, ("a", "b"))
        assert doc.contains_any(["b", "z"])
        assert not doc.contains_any(["z"])

    def test_len(self):
        assert len(Document(1, "us", 0, ("a", "b", "c"))) == 3

    def test_provenance_default_none(self):
        assert Document(1, "us", 0, ("a",)).event_id is None


class TestDocumentStream:
    def _stream(self):
        stream = DocumentStream("us", Point(0, 0))
        stream.add(Document(1, "us", 0, ("a", "b")))
        stream.add(Document(2, "us", 0, ("a",)))
        stream.add(Document(3, "us", 2, ("b", "b")))
        return stream

    def test_wrong_stream_rejected(self):
        stream = DocumentStream("us", Point(0, 0))
        with pytest.raises(StreamError):
            stream.add(Document(1, "uk", 0, ("a",)))

    def test_frequency_eq6(self):
        stream = self._stream()
        assert stream.frequency(0, "a") == 2
        assert stream.frequency(2, "b") == 2
        assert stream.frequency(1, "a") == 0

    def test_documents_at(self):
        stream = self._stream()
        assert len(stream.documents_at(0)) == 2
        assert stream.documents_at(5) == []

    def test_frequency_sequence(self):
        stream = self._stream()
        assert stream.frequency_sequence("b", 4) == [1.0, 0.0, 2.0, 0.0]

    def test_total_tokens(self):
        stream = self._stream()
        assert stream.total_tokens(0) == 3
        assert stream.total_tokens(9) == 0

    def test_terms_at(self):
        assert sorted(self._stream().terms_at(0)) == ["a", "b"]

    def test_iteration_time_ordered(self):
        docs = list(self._stream())
        assert [d.doc_id for d in docs] == [1, 2, 3]

    def test_len(self):
        assert len(self._stream()) == 3

    def test_timestamps(self):
        assert self._stream().timestamps() == [0, 2]


class TestCollection:
    def _collection(self):
        coll = SpatiotemporalCollection(timeline=5)
        coll.add_stream("us", Point(0, 0))
        coll.add_stream("uk", Point(10, 10))
        coll.add_document(Document(1, "us", 0, ("a", "b")))
        coll.add_document(Document(2, "uk", 0, ("a",)))
        coll.add_document(Document(3, "uk", 3, ("b",)))
        return coll

    def test_invalid_timeline(self):
        with pytest.raises(StreamError):
            SpatiotemporalCollection(timeline=0)

    def test_duplicate_stream(self):
        coll = SpatiotemporalCollection(timeline=5)
        coll.add_stream("us", Point(0, 0))
        with pytest.raises(StreamError):
            coll.add_stream("us", Point(1, 1))

    def test_unknown_stream_document(self):
        coll = self._collection()
        with pytest.raises(StreamError):
            coll.add_document(Document(9, "fr", 0, ("a",)))

    def test_timestamp_outside_timeline(self):
        coll = self._collection()
        with pytest.raises(StreamError):
            coll.add_document(Document(9, "us", 5, ("a",)))

    def test_version_counts_mutations(self):
        coll = SpatiotemporalCollection(timeline=5)
        assert coll.version == 0
        coll.add_stream("us", Point(0, 0))
        assert coll.version == 1
        coll.add_document(Document(1, "us", 0, ("a",)))
        assert coll.version == 2
        coll.frequency("us", 0, "a")  # reads leave the version alone
        assert coll.version == 2

    def test_subscribe_notifies_after_routing(self):
        coll = self._collection()
        seen = []
        coll.subscribe(
            lambda doc: seen.append((doc.doc_id, coll.document_count))
        )
        coll.add_document(Document(9, "us", 1, ("c",)))
        # The listener observed the document already counted in.
        assert seen == [(9, 4)]

    def test_snapshot(self):
        snapshot = self._collection().snapshot(0)
        assert len(snapshot["us"]) == 1
        assert len(snapshot["uk"]) == 1

    def test_vocabulary(self):
        assert self._collection().vocabulary == {"a", "b"}

    def test_frequency_matrix(self):
        matrix = self._collection().frequency_matrix("b")
        assert matrix.shape == (2, 5)
        assert matrix[0, 0] == 1.0
        assert matrix[1, 3] == 1.0
        assert matrix.sum() == 2.0

    def test_frequency_matrix_unknown_term(self):
        with pytest.raises(UnknownTermError):
            self._collection().frequency_matrix("zzz")

    def test_merged_sequence(self):
        merged = self._collection().merged_frequency_sequence("a")
        assert merged == [2.0, 0.0, 0.0, 0.0, 0.0]

    def test_terms_at(self):
        assert self._collection().terms_at(3) == {"b"}

    def test_document_count_and_len(self):
        coll = self._collection()
        assert coll.document_count == 3
        assert len(coll) == 2

    def test_documents_matching(self):
        docs = list(self._collection().documents_matching(["b"]))
        assert {d.doc_id for d in docs} == {1, 3}

    def test_locations(self):
        assert self._collection().locations()["uk"] == Point(10, 10)


class TestFrequencyTensor:
    def _tensor(self):
        coll = SpatiotemporalCollection(timeline=4)
        coll.add_stream("us", Point(0, 0))
        coll.add_stream("uk", Point(5, 5))
        coll.add_document(Document(1, "us", 1, ("a", "a", "b")))
        coll.add_document(Document(2, "uk", 2, ("a",)))
        return FrequencyTensor(coll), coll

    def test_terms(self):
        tensor, _ = self._tensor()
        assert tensor.terms == {"a", "b"}

    def test_sequence_matches_collection(self):
        tensor, coll = self._tensor()
        for term in ("a", "b"):
            for sid in ("us", "uk"):
                assert tensor.sequence(term, sid) == coll.frequency_sequence(sid, term)

    def test_slice_at(self):
        tensor, _ = self._tensor()
        assert tensor.slice_at("a", 1) == {"us": 2.0}
        assert tensor.slice_at("a", 2) == {"uk": 1.0}
        assert tensor.slice_at("a", 0) == {}

    def test_streams_with(self):
        tensor, _ = self._tensor()
        assert set(tensor.streams_with("a")) == {"us", "uk"}
        assert tensor.streams_with("b") == ["us"]

    def test_total(self):
        tensor, _ = self._tensor()
        assert tensor.total("a") == 3.0
        assert tensor.total("zzz") == 0.0

    def test_nonzero(self):
        tensor, _ = self._tensor()
        entries = set(tensor.nonzero("a"))
        assert entries == {("us", 1, 2.0), ("uk", 2, 1.0)}

    def test_top_terms(self):
        tensor, _ = self._tensor()
        assert tensor.top_terms(1) == [("a", 3.0)]

    def test_immutable_after_build(self):
        tensor, coll = self._tensor()
        coll.add_document(Document(3, "us", 3, ("a",)))
        assert tensor.total("a") == 3.0  # copy semantics


def topix_collection():
    from repro.datagen import MAJOR_EVENTS, CorpusSettings, generate_topix_corpus

    return generate_topix_corpus(
        CorpusSettings(
            n_countries=20,
            timeline=12,
            background_rate=1.0,
            events=MAJOR_EVENTS[:3],
            seed=7,
        )
    ).collection


def ambient_collection(seed=3, side=5, timeline=40, n_terms=6):
    """Single-term chatter over a stream grid, one compact burst per term,
    documents added in arrival (time) order rather than stream order."""
    import random

    rng = random.Random(seed)
    collection = SpatiotemporalCollection(timeline=timeline)
    for i in range(side * side):
        collection.add_stream(f"s{i:02d}", Point(i % side * 5.0, i // side * 5.0))
    records = []
    for index in range(n_terms):
        term = f"topic{index}"
        start = rng.randint(0, timeline - 10)
        for _ in range(120):
            records.append(
                (rng.randint(0, timeline - 1), f"s{rng.randrange(side * side):02d}", term)
            )
        for t in range(start, start + 5):
            for _ in range(6):
                records.append((t, f"s{rng.randrange(3):02d}", term))
    records.sort(key=lambda record: record[0])
    for doc_id, (t, sid, term) in enumerate(records):
        collection.add_document(Document(doc_id, sid, t, (term,) * (1 + doc_id % 3)))
    return collection


class TestFrequencyTensorOracle:
    """The CSR view reads exactly like the dict-of-dicts tensor it replaced."""

    @staticmethod
    def assert_matches(view, oracle, collection):
        assert view.terms == oracle.terms
        assert list(view.terms) == list(oracle.terms)
        assert view.stream_ids == oracle.stream_ids
        assert view.top_terms(25) == oracle.top_terms(25)
        probes = sorted(oracle.terms)[:40] + ["never-seen"]
        for term in probes:
            assert view.total(term) == oracle.total(term)
            assert view.streams_with(term) == oracle.streams_with(term)
            assert list(view.nonzero(term)) == list(oracle.nonzero(term))
            got, want = view.term_snapshots(term), oracle.term_snapshots(term)
            assert got == want
            assert list(got) == list(want)  # outer key order
            for timestamp in want:
                assert list(got[timestamp]) == list(want[timestamp])
            for sid in collection.stream_ids[:6]:
                # repr: floats everywhere, also where a stream lacks the term
                assert repr(view.sequence(term, sid)) == repr(
                    oracle.sequence(term, sid)
                )
            for timestamp in range(collection.timeline):
                got_slice = view.slice_at(term, timestamp)
                want_slice = oracle.slice_at(term, timestamp)
                assert got_slice == want_slice
                assert list(got_slice) == list(want_slice)

    @pytest.mark.parametrize("build", [topix_collection, ambient_collection])
    def test_view_matches_dict_of_dicts(self, build):
        from oracles.frequency import DictFrequencyTensor

        collection = build()
        self.assert_matches(
            FrequencyTensor(collection), DictFrequencyTensor(collection), collection
        )

    def test_snapshot_follows_collection_versions(self):
        from oracles.frequency import DictFrequencyTensor

        collection = ambient_collection()
        before = FrequencyTensor(collection)
        assert FrequencyTensor(collection)._columns is before._columns
        old_oracle = DictFrequencyTensor(collection)
        collection.add_document(Document("late", "s07", 39, ("topic0", "fresh")))
        after = FrequencyTensor(collection)
        # The earlier view keeps its snapshot; the new one sees the document.
        self.assert_matches(before, old_oracle, collection)
        self.assert_matches(after, DictFrequencyTensor(collection), collection)
        assert "fresh" in after.terms and "fresh" not in before.terms
        assert after.slice_at("topic0", 39)["s07"] >= 1.0

    def test_reads_without_rows_stay_float(self):
        collection = SpatiotemporalCollection(timeline=3)
        collection.add_stream("us", Point(0, 0))
        collection.add_stream("uk", Point(1, 1))
        collection.add_document(Document(1, "us", 1, ("a", "a")))
        view = FrequencyTensor(collection)
        zeros = repr([0.0] * 3)
        assert repr(view.sequence("a", "uk")) == zeros
        assert repr(view.sequence("zzz", "us")) == zeros
        assert repr(collection.merged_frequency_sequence("zzz")) == zeros
        assert repr(collection.merged_frequency_sequence("a")) == repr(
            [0.0, 2.0, 0.0]
        )
