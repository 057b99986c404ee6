"""Segment-store format layer: manifest, checksums, crash safety."""

import json
import os

import numpy as np
import pytest

from repro.errors import StoreCorruptionError, StoreError
from repro.store import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    SegmentReader,
    SegmentWriter,
)
from repro.store.format import (
    check_save_target,
    decode_id_column,
    encode_id_column,
)


def write_minimal(path, payload=None):
    writer = SegmentWriter(path)
    writer.add_array("a/ints.npy", np.arange(5, dtype=np.int64))
    writer.add_array("a/floats.npy", np.linspace(0.0, 1.0, 7))
    writer.add_json("a/meta.json", payload if payload is not None else {"k": 1})
    writer.commit("index", {"note": "minimal"})
    return path


class TestWriter:
    def test_round_trip(self, tmp_path):
        path = write_minimal(str(tmp_path / "store"))
        reader = SegmentReader(path)
        assert reader.kind == "index"
        assert reader.metadata["note"] == "minimal"
        # Writers stamp the *lowest* format version that describes what
        # they wrote: plain raw columns are still v1 stores.
        assert reader.format_version == 1
        assert reader.library_version
        assert reader.array("a/ints.npy").tolist() == [0, 1, 2, 3, 4]
        assert reader.json("a/meta.json") == {"k": 1}

    def test_byte_payloads_stamp_current_version(self, tmp_path):
        # The lowest version that describes a |u1 payload is 2, the
        # version that introduced it, also under a v3 library.
        writer = SegmentWriter(str(tmp_path / "store"))
        writer.add_array("a/payload.npy", np.arange(5, dtype=np.uint8))
        writer.commit("index", {})
        reader = SegmentReader(str(tmp_path / "store"))
        assert reader.format_version == 2 < FORMAT_VERSION
        assert reader.files()["a/payload.npy"]["dtype"] == "|u1"
        assert reader.array("a/payload.npy").tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "dtype, stored", [(np.uint16, "<u2"), (np.uint32, "<u4")]
    )
    def test_narrow_code_columns_stamp_version3(self, tmp_path, dtype, stored):
        writer = SegmentWriter(str(tmp_path / "store"))
        writer.add_array("a/ints.npy", np.arange(5, dtype=np.int64))
        writer.add_array("a/payload.npy", np.arange(5, dtype=np.uint8))
        values = [0, 7, int(np.iinfo(dtype).max)]
        writer.add_array("a/codes.npy", np.asarray(values, dtype=dtype))
        writer.commit("index", {})
        reader = SegmentReader(str(tmp_path / "store"))
        assert reader.format_version == FORMAT_VERSION == 3
        assert reader.files()["a/codes.npy"]["dtype"] == stored
        assert reader.files()["a/ints.npy"]["dtype"] == "<i8"
        assert reader.array("a/codes.npy").tolist() == values

    def test_unsigned_overflow_rejected(self, tmp_path):
        # Satellite regression: "u"-kind arrays used to funnel through
        # the <i8 storage dtype, silently wrapping values >= 2**63.
        writer = SegmentWriter(str(tmp_path / "store"))
        with pytest.raises(StoreError, match="2\\*\\*63"):
            writer.add_array(
                "a/big.npy", np.asarray([2**63], dtype=np.uint64)
            )

    def test_unsigned_in_range_widens(self, tmp_path):
        writer = SegmentWriter(str(tmp_path / "store"))
        writer.add_array(
            "a/ok.npy", np.asarray([0, 2**62], dtype=np.uint64)
        )
        writer.commit("index", {})
        reader = SegmentReader(str(tmp_path / "store"))
        assert reader.format_version == 1
        assert reader.array("a/ok.npy").tolist() == [0, 2**62]

    def test_refuses_nonempty_directory(self, tmp_path):
        target = tmp_path / "busy"
        target.mkdir()
        (target / "unrelated.txt").write_text("keep me")
        with pytest.raises(StoreError, match="not empty"):
            SegmentWriter(str(target))
        with pytest.raises(StoreError, match="not empty"):
            check_save_target(str(target))
        # The guard never touches the existing contents.
        assert (target / "unrelated.txt").read_text() == "keep me"

    def test_refuses_file_target(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("x")
        with pytest.raises(StoreError, match="not a directory"):
            SegmentWriter(str(target))

    def test_duplicate_segment_name(self, tmp_path):
        writer = SegmentWriter(str(tmp_path / "store"))
        writer.add_json("x.json", {})
        with pytest.raises(StoreError, match="written twice"):
            writer.add_json("x.json", {})

    def test_uncommitted_store_is_invisible(self, tmp_path):
        """A crash before commit leaves no manifest — readers refuse it."""
        path = str(tmp_path / "store")
        writer = SegmentWriter(path)
        writer.add_array("a.npy", np.zeros(3))
        with pytest.raises(StoreError, match="interrupted"):
            SegmentReader(path)

    def test_little_endian_dtypes(self, tmp_path):
        path = str(tmp_path / "store")
        writer = SegmentWriter(path)
        writer.add_array("i32.npy", np.arange(3, dtype=np.int32))
        writer.add_array("f32.npy", np.zeros(3, dtype=np.float32))
        writer.commit("index")
        reader = SegmentReader(path)
        files = reader.files()
        assert files["i32.npy"]["dtype"] == "<i8"
        assert files["f32.npy"]["dtype"] == "<f8"


class TestReader:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(StoreError, match="does not exist"):
            SegmentReader(str(tmp_path / "nope"))

    def test_corrupted_manifest(self, tmp_path):
        path = write_minimal(str(tmp_path / "store"))
        with open(os.path.join(path, MANIFEST_NAME), "w") as handle:
            handle.write("{not json")
        with pytest.raises(StoreError, match="corrupted manifest"):
            SegmentReader(path)

    def test_wrong_format_name(self, tmp_path):
        path = write_minimal(str(tmp_path / "store"))
        manifest_path = os.path.join(path, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["format"] = "something-else"
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(StoreError, match=FORMAT_NAME):
            SegmentReader(path)

    def test_newer_format_rejected_with_versions(self, tmp_path):
        path = write_minimal(str(tmp_path / "store"))
        manifest_path = os.path.join(path, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["format_version"] = FORMAT_VERSION + 7
        manifest["library_version"] = "99.0.0"
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(StoreError) as excinfo:
            SegmentReader(path)
        message = str(excinfo.value)
        assert str(FORMAT_VERSION + 7) in message
        assert "99.0.0" in message  # which library wrote it
        assert "upgrade" in message

    def test_checksum_mismatch_names_file(self, tmp_path):
        path = write_minimal(str(tmp_path / "store"))
        target = os.path.join(path, "a", "floats.npy")
        with open(target, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last[0] ^ 0x5A]))
        with pytest.raises(StoreError, match="a/floats.npy"):
            SegmentReader(path)
        # Opt-out still serves (trusted-store fast path).
        assert SegmentReader(path, verify=False).kind == "index"

    def test_checksum_mismatch_reports_expected_and_actual(self, tmp_path):
        """Corruption errors carry the full path plus both CRC/size
        values — the difference between a fixable report and a shrug."""
        path = write_minimal(str(tmp_path / "store"))
        target = os.path.join(path, "a", "floats.npy")
        with open(target, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last[0] ^ 0x5A]))
        with open(os.path.join(path, MANIFEST_NAME)) as handle:
            entry = json.load(handle)["files"]["a/floats.npy"]
        with pytest.raises(StoreCorruptionError) as excinfo:
            SegmentReader(path)
        message = str(excinfo.value)
        assert "a/floats.npy" in message
        assert f"expected crc32 {entry['crc32']:#010x}" in message
        assert f"{entry['size']}B" in message
        assert "found 0x" in message
        assert "repro fsck" in message  # the recovery pointer

    def test_missing_file_error_is_typed_and_names_path(self, tmp_path):
        path = write_minimal(str(tmp_path / "store"))
        os.remove(os.path.join(path, "a", "ints.npy"))
        with pytest.raises(StoreCorruptionError, match="a/ints.npy"):
            SegmentReader(path)

    def test_interrupted_save_refusal_is_typed(self, tmp_path):
        """No manifest → typed StoreCorruptionError, never a half-load."""
        target = str(tmp_path / "half")
        writer = SegmentWriter(target)
        writer.add_array("a/ints.npy", np.arange(3, dtype=np.int64))
        # no commit: simulates a crash before the manifest rename
        with pytest.raises(StoreCorruptionError, match="interrupted"):
            SegmentReader(target)

    def test_missing_segment_file(self, tmp_path):
        path = write_minimal(str(tmp_path / "store"))
        os.remove(os.path.join(path, "a", "ints.npy"))
        with pytest.raises(StoreError, match="missing segment file"):
            SegmentReader(path)

    def test_unknown_segment_lookup(self, tmp_path):
        reader = SegmentReader(write_minimal(str(tmp_path / "store")))
        with pytest.raises(StoreError, match="no segment"):
            reader.array("missing.npy")
        with pytest.raises(StoreError, match="json"):
            reader.json("a/ints.npy")  # wrong segment type

    def test_mmap_zero_copy(self, tmp_path):
        # Arrays at/above the small-file threshold serve zero-copy from
        # the page cache; tiny ones take the single-read fast path.
        big = np.linspace(0.0, 1.0, SegmentReader.SMALL_ARRAY_BYTES // 8)
        writer = SegmentWriter(str(tmp_path / "store"))
        writer.add_array("a/big.npy", big)
        writer.add_array("a/small.npy", np.linspace(0.0, 1.0, 7))
        writer.commit("index", {})
        path = str(tmp_path / "store")
        mapped = SegmentReader(path, mmap=True).array("a/big.npy")
        assert isinstance(mapped, np.memmap)
        small = SegmentReader(path, mmap=True).array("a/small.npy")
        assert not isinstance(small, np.memmap)
        assert not small.flags.writeable
        assert small.tolist() == np.linspace(0.0, 1.0, 7).tolist()
        materialised = SegmentReader(path, mmap=False).array("a/big.npy")
        assert not isinstance(materialised, np.memmap)
        assert mapped.tolist() == materialised.tolist()


class TestIdColumns:
    def test_int_ids_take_binary_path(self):
        encoded = encode_id_column([3, 1, 2])
        assert encoded["kind"] == "int64"
        assert decode_id_column("int64", encoded["array"]) == [3, 1, 2]

    def test_mixed_and_string_ids_take_json_path(self):
        ids = ["a", 7, None, True, 2.5]
        encoded = encode_id_column(ids)
        assert encoded["kind"] == "json"
        round_tripped = json.loads(json.dumps(encoded["values"]))
        assert decode_id_column("json", round_tripped) == ids

    def test_oversized_int_falls_back_to_json(self):
        encoded = encode_id_column([2**70])
        assert encoded["kind"] == "json"

    def test_unserializable_id_rejected(self):
        with pytest.raises(StoreError, match="not persistable"):
            encode_id_column([("tuple", "id")])
