"""Fault-injection suite: crash-point sweeps, typed IO failures,
bit-flip detection and degraded-mode serving semantics.

The central invariant, swept exhaustively rather than sampled: killing
a save at *any* write/fsync/rename boundary leaves a directory that
either refuses to load with a typed
:class:`~repro.errors.StoreCorruptionError` (no manifest — the save
never committed) or loads byte-identical to an unfaulted run (the
manifest rename already happened).  Never a half-state, never an
untyped traceback.

All schedules are pure data (:class:`~repro.faults.FaultPlan`): the
same plan over the same workload produces the same failure sequence,
so every test here is deterministic and replayable.
"""

import dataclasses
import os
import random

import pytest

from repro import (
    BatchMiner,
    BurstySearchEngine,
    Document,
    LiveCollection,
    Point,
    SpatiotemporalCollection,
    load_patterns,
    save_search_index,
)
from repro.errors import (
    ConfigurationError,
    StoreCorruptionError,
    StoreError,
    StoreIOError,
)
from repro.faults import (
    FaultPlan,
    FaultRule,
    FaultyIO,
    InjectedCrash,
    install,
    record_operations,
    sweep_crash_points,
)
from repro.live import LiveSearchEngine
from repro.store import SegmentReader
from repro.store.format import SegmentWriter, rewrite_manifest
from repro.store.fsck import fsck_store, repair_store

from oracles.postings import assert_serves_like_oracle
from oracles.stlocal import add_legacy_tracker_segment


def build_collection(seed=7, streams=4, timeline=16):
    """Tiny deterministic corpus: one burst per term plus filler."""
    rng = random.Random(seed)
    collection = SpatiotemporalCollection(timeline=timeline)
    sids = [f"s{i}" for i in range(streams)]
    for i, sid in enumerate(sids):
        collection.add_stream(sid, Point(float(i % 2), float(i // 2)))
    counter = 0
    for term in ("quake", "storm"):
        start = rng.randint(3, timeline - 7)
        for t in range(start, start + 4):
            for sid in rng.sample(sids, k=3):
                counter += 1
                collection.add_document(
                    Document(counter, sid, t, (term, term))
                )
    for t in range(timeline):
        for sid in sids:
            if rng.random() < 0.4:
                counter += 1
                collection.add_document(Document(counter, sid, t, ("filler",)))
    return collection


def build_engine(seed=7):
    collection = build_collection(seed=seed)
    mined = BatchMiner().mine_regional(
        collection, sorted(collection.vocabulary)
    )
    return BurstySearchEngine(collection, mined), mined


def build_live_engine(upto=10, seed=11):
    """A live engine with a few ingested timesteps, ready to checkpoint."""
    rng = random.Random(seed)
    live = LiveCollection(16)
    for i in range(4):
        live.add_stream(f"s{i}", Point(float(i % 2), float(i // 2)))
    engine = LiveSearchEngine(live)
    counter = 0
    for t in range(upto):
        for i in range(4):
            if t in (3, 4, 5) or rng.random() < 0.3:
                counter += 1
                live.ingest(
                    Document(counter, f"s{i}", t, ("storm", "storm"))
                )
        engine.search("storm", k=5)
    return engine


class TestFaultPlans:
    def test_rule_validates_op_and_action(self):
        with pytest.raises(ConfigurationError):
            FaultRule(op="chmod", action="crash_before")
        with pytest.raises(ConfigurationError):
            FaultRule(op="replace", action="torn")
        with pytest.raises(ConfigurationError):
            FaultRule(op="read", action="crash_before")

    def test_same_plan_same_failure_sequence(self, tmp_path):
        """The determinism contract: a plan replays byte-for-byte."""
        engine, _ = build_engine()
        plan = FaultPlan(
            [FaultRule(op="write", action="enospc", path="scores", index=0)]
        )
        sequences = []
        for attempt in range(2):
            faulty = FaultyIO(plan)
            target = str(tmp_path / f"run{attempt}")
            with install(faulty):
                with pytest.raises(StoreIOError):
                    save_search_index(target, engine, "regional")
            sequences.append(
                [(op, os.path.basename(p), a) for op, p, a in faulty.events]
            )
        assert sequences[0] == sequences[1]
        assert sequences[0] == [("write", "scores.npy", "enospc")]

    def test_plans_are_plain_data(self):
        plan = FaultPlan.read_eio(path="scores", count=2)
        rebuilt = FaultPlan(
            [FaultRule(**entry) for entry in
             (dataclasses.asdict(rule) for rule in plan.rules)]
        )
        assert rebuilt == plan

    def test_injected_crash_pierces_broad_handlers(self):
        """``except Exception`` must not catch a simulated kill -9."""

        def swallow_everything():
            try:
                raise InjectedCrash("kill")
            except Exception:  # repro: noqa[exception-hygiene] -- the test IS about broad handlers not seeing the crash
                return "swallowed"

        with pytest.raises(InjectedCrash):
            swallow_everything()


class TestCrashPointSweep:
    @pytest.mark.parametrize("codec", ["raw", "packed"])
    def test_save_survives_every_boundary(self, tmp_path, codec):
        engine, _ = build_engine()

        def save(path):
            save_search_index(path, engine, "regional", codec=codec)

        points = sweep_crash_points(save, str(tmp_path))
        violations = [p for p in points if not p.ok]
        assert violations == []
        # The sweep must actually cover both outcomes: kills before the
        # manifest rename refuse, kills at/after it serve completely.
        verdicts = {p.verdict for p in points}
        assert verdicts == {"refused", "complete"}

    @pytest.mark.parametrize("codec", ["raw", "packed"])
    def test_live_checkpoint_survives_every_boundary(self, tmp_path, codec):
        engine = build_live_engine()

        def save(path):
            engine.checkpoint(path, codec=codec)

        points = sweep_crash_points(save, str(tmp_path))
        violations = [p for p in points if not p.ok]
        assert violations == []
        assert {p.verdict for p in points} == {"refused", "complete"}

    def test_torn_manifest_write_refuses(self, tmp_path):
        """A manifest torn mid-write must never be served."""
        engine, _ = build_engine()
        target = str(tmp_path / "torn")
        plan = FaultPlan.torn_write("MANIFEST.json.tmp", keep_bytes=20)
        with install(FaultyIO(plan)):
            with pytest.raises(InjectedCrash):
                save_search_index(target, engine, "regional")
        # The torn bytes landed in the temp sibling only; no manifest
        # was installed, so the reader refuses with a typed error.
        with pytest.raises(StoreCorruptionError, match="interrupted"):
            SegmentReader(target)

    def test_recorded_operations_end_with_commit(self, tmp_path):
        """The atomic-rename boundary is the last durable transition."""
        engine, _ = build_engine()

        def save(path):
            save_search_index(path, engine, "regional")

        ops = record_operations(save, str(tmp_path / "rec"))
        replaces = [(op, p) for op, p in ops if op == "replace"]
        assert len(replaces) == 1
        assert replaces[0][1].endswith("MANIFEST.json")
        # rename happens after every payload write+fsync, before only
        # the final directory fsync.
        assert ops.index(replaces[0]) == len(ops) - 2
        assert ops[-1][0] == "fsync_dir"


class TestTypedIOFailures:
    def test_enospc_is_typed_store_io_error(self, tmp_path):
        engine, _ = build_engine()
        with install(FaultyIO(FaultPlan.enospc())):
            with pytest.raises(StoreIOError, match="No space left|ENOSPC|cannot write"):
                save_search_index(str(tmp_path / "full"), engine, "regional")

    def test_enospc_on_manifest_commit_is_typed(self, tmp_path):
        engine, _ = build_engine()
        plan = FaultPlan.enospc(path="MANIFEST.json.tmp")
        with install(FaultyIO(plan)):
            with pytest.raises(StoreIOError, match="manifest"):
                save_search_index(str(tmp_path / "full"), engine, "regional")

    def test_read_eio_surfaces_typed_when_failing(self, tmp_path):
        engine, _ = build_engine()
        path = str(tmp_path / "idx")
        save_search_index(path, engine, "regional")
        loaded = BurstySearchEngine.from_store(path)
        plan = FaultPlan.read_eio(path="scores", count=10)
        with install(FaultyIO(plan)):
            with pytest.raises(StoreIOError, match="I/O error"):
                loaded.search("storm", k=5)


class TestDegradedServing:
    def _saved(self, tmp_path, codec="raw"):
        engine, mined = build_engine()
        path = str(tmp_path / "idx")
        save_search_index(path, engine, "regional", codec=codec)
        return path, engine, mined

    def test_transient_eio_retried_once_then_served(self, tmp_path):
        """One transient read error is absorbed by the retry."""
        path, engine, _ = self._saved(tmp_path)
        loaded = BurstySearchEngine.from_store(path, on_corruption="degrade")
        plan = FaultPlan.read_eio(path="scores", count=1)
        with install(FaultyIO(plan)):
            results = loaded.search("storm", k=5)
        assert [(r.document.doc_id, r.score) for r in results] == [
            (r.document.doc_id, r.score) for r in engine.search("storm", k=5)
        ]
        assert loaded.degraded_report() == {}

    def test_persistent_eio_quarantines_after_one_retry(self, tmp_path):
        path, _, mined = self._saved(tmp_path)
        loaded = BurstySearchEngine.from_store(path, on_corruption="degrade")
        plan = FaultPlan.read_eio(path="scores", count=2)
        with install(FaultyIO(plan)):
            results, stats = loaded.search_with_stats("storm", k=5)
        assert results == []
        assert stats.degraded_terms == ("storm",)
        assert "storm" in loaded.degraded_report()
        # Exactly two read probes were attempted: original + one retry.

    def test_quarantined_term_serves_an_empty_posting_array(self, tmp_path):
        path, _, _ = self._saved(tmp_path)
        loaded = BurstySearchEngine.from_store(path, on_corruption="degrade")
        with install(FaultyIO(FaultPlan.read_eio(path="scores", count=2))):
            assert loaded.search("storm", k=5) == []
        assert "storm" in loaded.degraded_report()
        assert_serves_like_oracle(
            loaded._posting_list("storm"), [], tmp_path / "served"
        )

    def test_fail_policy_raises_on_eio(self, tmp_path):
        path, _, _ = self._saved(tmp_path)
        loaded = BurstySearchEngine.from_store(path)
        with install(FaultyIO(FaultPlan.read_eio(path="scores", count=2))):
            with pytest.raises(StoreIOError):
                loaded.search("storm", k=5)

    @pytest.mark.parametrize("codec", ["raw", "packed"])
    def test_quarantined_term_isolated_healthy_terms_identical(
        self, tmp_path, codec
    ):
        path, engine, mined = self._saved(tmp_path, codec=codec)
        victim = os.path.join(
            path,
            "postings",
            "scores_payload.npy" if codec == "packed" else "scores.npy",
        )
        with open(victim, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(StoreCorruptionError):
            BurstySearchEngine.from_store(path)
        loaded = BurstySearchEngine.from_store(path, on_corruption="degrade")
        _, stats = loaded.search_with_stats(" ".join(sorted(mined)), k=10)
        degraded = loaded.degraded_report()
        assert degraded  # the flip hit some term's column
        assert set(stats.degraded_terms) == set(degraded)
        for term in sorted(set(mined) - set(degraded)):
            assert [
                (r.document.doc_id, r.score)
                for r in loaded.search(term, k=10)
            ] == [
                (r.document.doc_id, r.score)
                for r in engine.search(term, k=10)
            ]

    def test_structural_damage_refuses_even_in_degrade(self, tmp_path):
        path, _, _ = self._saved(tmp_path)
        victim = os.path.join(path, "postings", "indptr.npy")
        with open(victim, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(StoreCorruptionError, match="structural"):
            BurstySearchEngine.from_store(path, on_corruption="degrade")


class TestBitFlipDetection:
    @pytest.mark.parametrize("codec", ["raw", "packed"])
    def test_write_time_bit_flip_caught_by_fsck(self, tmp_path, codec):
        """Manifest CRCs are computed from memory, so a device that
        flips a bit on the way to disk mismatches and fsck sees it."""
        engine, _ = build_engine()
        path = str(tmp_path / "idx")
        plan = FaultPlan.bit_flip(path="rows", byte=-1)
        with install(FaultyIO(plan)):
            save_search_index(path, engine, "regional", codec=codec)
        report = fsck_store(path)
        assert report.exit_code == 1
        assert any("checksum mismatch" in f.verdict for f in report.damaged_files)

    def test_repair_quarantines_and_restores_loadable_store(self, tmp_path):
        engine, mined = build_engine()
        path = str(tmp_path / "idx")
        with install(FaultyIO(FaultPlan.bit_flip(path="ties", byte=-1))):
            save_search_index(path, engine, "regional")
        assert fsck_store(path).exit_code == 1
        report = repair_store(path)
        assert report.quarantined and report.rebuilt == ("postings",)
        assert fsck_store(path).exit_code == 0
        loaded = BurstySearchEngine.from_store(path)
        for term in sorted(mined):
            assert [
                (r.document.doc_id, r.score) for r in loaded.search(term, k=5)
            ] == [
                (r.document.doc_id, r.score) for r in engine.search(term, k=5)
            ]

    def test_repair_refuses_source_damage(self, tmp_path):
        engine, _ = build_engine()
        path = str(tmp_path / "idx")
        save_search_index(path, engine, "regional")
        victim = os.path.join(path, "documents", "meta.json")
        with open(victim, "r+b") as handle:
            handle.seek(0)
            byte = handle.read(1)
            handle.seek(0)
            handle.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(StoreCorruptionError, match="source data"):
            repair_store(path)

    @pytest.mark.parametrize(
        "victim",
        [
            "patterns/stream_ids.json",
            "patterns/sets_indptr.npy",
            "patterns/set_codes.npy",
            "patterns/bursty_none.npy",
            "documents/term_codes.npy",
        ],
    )
    def test_fsck_names_and_repair_refuses_code_column_damage(
        self, tmp_path, victim
    ):
        # The v3 code columns are source data like the rest of
        # patterns/ and documents/: fsck names the damaged file, and
        # repair refuses before it touches anything.
        engine, _ = build_engine()
        path = str(tmp_path / "idx")
        save_search_index(path, engine, "regional", codec="packed")
        assert SegmentReader(path).format_version == 3
        flip_last_byte(os.path.join(path, victim))
        report = fsck_store(path)
        assert report.exit_code == 1
        assert [f.name for f in report.damaged_files] == [victim]
        with pytest.raises(StoreCorruptionError, match="source data"):
            repair_store(path)
        assert [f.name for f in fsck_store(path).damaged_files] == [victim]

    def test_fsck_unreadable_store_exits_2(self, tmp_path):
        report = fsck_store(str(tmp_path / "nowhere"))
        assert report.exit_code == 2
        assert report.error


def add_legacy_planner_segment(path):
    """Append a ``planner/model`` JSON segment the way older writers
    did: one ``add_json`` segment plus ``metadata["planner"] = True``."""
    reader = SegmentReader(path, verify=True)
    manifest = dict(reader.manifest)
    writer = SegmentWriter(path, fresh=False)
    writer.add_json(
        "planner/model",
        {
            "format": 1,
            "hot_support": 16,
            "model": {"min_samples": 8, "samples": {}, "weights": {}},
            "memory": [],
        },
    )
    manifest["files"] = {**manifest["files"], **writer._files}
    manifest["metadata"] = {**manifest["metadata"], "planner": True}
    rewrite_manifest(path, manifest)


def flip_last_byte(path):
    with open(path, "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_END)
        handle.write(bytes([byte[0] ^ 0x01]))


class TestLegacyPlannerSegment:
    """Stores written before the query planner was removed may carry a
    ``planner/model`` segment; it is auxiliary and nothing reads it."""

    def _stores(self, tmp_path):
        engine, mined = build_engine()
        plain = str(tmp_path / "plain")
        legacy = str(tmp_path / "legacy")
        save_search_index(plain, engine, "regional")
        save_search_index(legacy, engine, "regional")
        add_legacy_planner_segment(legacy)
        return plain, legacy, mined

    @staticmethod
    def rankings(path, terms, **kwargs):
        engine = BurstySearchEngine.from_store(path, **kwargs)
        return {
            query: [
                (r.document.doc_id, float(r.score).hex())
                for r in engine.search(query, k=10)
            ]
            for query in [*terms, " ".join(terms)]
        }

    def test_serves_identically_to_a_store_without_it(self, tmp_path):
        plain, legacy, mined = self._stores(tmp_path)
        assert SegmentReader(legacy).has("planner/model")
        terms = sorted(mined)
        assert self.rankings(legacy, terms) == self.rankings(plain, terms)

    def test_degraded_load_tolerates_flipped_segment(self, tmp_path):
        plain, legacy, mined = self._stores(tmp_path)
        flip_last_byte(os.path.join(legacy, "planner", "model"))
        with pytest.raises(StoreCorruptionError):
            BurstySearchEngine.from_store(legacy)
        terms = sorted(mined)
        assert self.rankings(
            legacy, terms, on_corruption="degrade"
        ) == self.rankings(plain, terms)

    def test_repair_quarantines_and_drops_it(self, tmp_path):
        plain, legacy, mined = self._stores(tmp_path)
        flip_last_byte(os.path.join(legacy, "planner", "model"))
        report = repair_store(legacy)
        assert report.quarantined == ("planner/model",)
        assert report.dropped == ("planner/model",)
        assert report.rebuilt == ()
        assert os.path.exists(
            os.path.join(legacy, "quarantine", "planner", "model")
        )
        reader = SegmentReader(legacy, verify=True)
        assert not reader.has("planner/model")
        assert "planner" not in reader.manifest["metadata"]
        assert fsck_store(legacy).exit_code == 0
        terms = sorted(mined)
        assert self.rankings(legacy, terms) == self.rankings(plain, terms)


class TestLegacyLiveTrackers:
    """Live checkpoints written before trackers became derived state
    carry a ``trackers/`` segment; restore never reads it, so damage to
    it is auxiliary."""

    def test_repair_quarantines_and_drops_damaged_segment(self, tmp_path):
        engine = build_live_engine()
        path = str(tmp_path / "ckpt")
        engine.checkpoint(path)
        add_legacy_tracker_segment(path)
        flip_last_byte(os.path.join(path, "trackers", "meta.json"))
        assert fsck_store(path).exit_code == 1

        report = repair_store(path)
        assert report.quarantined == ("trackers/meta.json",)
        assert report.dropped == ("trackers",)
        assert report.rebuilt == ()
        reader = SegmentReader(path, verify=True)
        assert not [n for n in reader.manifest["files"] if "trackers/" in n]
        assert "trackers" not in reader.manifest["metadata"]
        assert fsck_store(path).exit_code == 0
        restored = LiveSearchEngine.from_checkpoint(path)
        assert [
            (r.document.doc_id, r.score)
            for r in restored.search("storm", k=10)
        ] == [
            (r.document.doc_id, r.score) for r in engine.search("storm", k=10)
        ]


class TestLegacyPatternTrackers:
    """Regional pattern stores saved before trackers became derived
    state carry ``trackers/`` and ``trackers_streams/`` segments that
    nothing reads: damage to either is auxiliary, as on every kind."""

    @pytest.mark.parametrize(
        "victim", ["trackers/meta.json", "trackers_streams/model_totals.npy"]
    )
    def test_repair_drops_both_segments(self, tmp_path, victim):
        collection = build_collection()
        path = str(tmp_path / "mined")
        mined = BatchMiner().mine_regional(collection, save_to=path)
        add_legacy_tracker_segment(path, ("trackers_streams", "trackers"))
        flip_last_byte(os.path.join(path, victim))
        assert fsck_store(path).exit_code == 1

        report = repair_store(path)
        assert report.quarantined == (victim,)
        assert report.dropped == ("trackers",)
        assert report.rebuilt == ()
        reader = SegmentReader(path, verify=True)
        assert not [
            name for name in reader.manifest["files"] if "trackers" in name
        ]
        assert reader.metadata["trackers"] is False
        assert fsck_store(path).exit_code == 0
        assert load_patterns(path) == mined


class TestErrorMessages:
    """Satellite contract: errors name the file and expected/actual."""

    def test_checksum_mismatch_names_path_and_both_crcs(self, tmp_path):
        engine, _ = build_engine()
        path = str(tmp_path / "idx")
        save_search_index(path, engine, "regional")
        victim = os.path.join(path, "postings", "scores.npy")
        with open(victim, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(StoreCorruptionError) as excinfo:
            SegmentReader(path, verify=True)
        message = str(excinfo.value)
        assert "postings/scores.npy" in message
        assert "expected crc32 0x" in message
        assert "found 0x" in message
        assert "repro fsck" in message

    def test_missing_file_error_names_it(self, tmp_path):
        engine, _ = build_engine()
        path = str(tmp_path / "idx")
        save_search_index(path, engine, "regional")
        os.remove(os.path.join(path, "postings", "ties.npy"))
        with pytest.raises(StoreCorruptionError, match="postings/ties.npy"):
            SegmentReader(path, verify=True)
