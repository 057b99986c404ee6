"""On-disk segment format: little-endian buffers under a crash-safe manifest.

A *store* is a directory of immutable segment files — NumPy arrays in
``.npy`` containers, structural metadata in JSON — described by one
``MANIFEST.json`` at the root.  The manifest is the commit record:

* every segment file is written first, flushed and ``fsync``-ed;
* the manifest (which names every file with its size and CRC-32) is
  then written to a temporary sibling, ``fsync``-ed, and atomically
  renamed into place; the directory is ``fsync``-ed last.

A crash at any point therefore leaves either a complete store or a
directory without a manifest — never a manifest describing files that
were not fully written.  Readers refuse directories without a manifest
and (by default) verify every file's checksum before serving from it.

Arrays are stored in fixed little-endian dtypes, so a store written on
any host loads on any other: floats as ``<f8``, signed integers as
``<i8``, byte payloads as ``|u1``, and integer code and id columns at
the narrowest of ``|u1``/``<u2``/``<u4`` that holds their values
(:func:`narrowest_int_array`; a column with a negative value or one of
``2**32`` or more stays ``<i8``).  They are read back with
``np.load(..., mmap_mode="r")`` — the serving path operates directly
on the page cache without materialising copies.

The manifest also stamps the producing library's ``__version__`` and
the store ``FORMAT_VERSION``; readers reject stores written by a newer
incompatible format with an explicit message instead of misparsing
them.
"""

from __future__ import annotations

import ast
import io
import json
import os
import zlib
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro._version import __version__
from repro.errors import StoreCorruptionError, StoreError, StoreIOError
from repro.faults.io import store_io

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "SegmentReader",
    "SegmentWriter",
    "check_save_target",
    "decode_id_column",
    "encode_id_column",
    "narrowest_int_array",
    "rewrite_manifest",
]

FORMAT_NAME = "repro-segment-store"
#: Bump on any incompatible layout change; readers refuse newer majors.
#: v1: raw little-endian columns.  v2 adds byte-payload (``|u1``)
#: segments, the carrier of the packed posting codec
#: (:mod:`repro.store.codec`).  Writers stamp the *lowest* version that
#: can describe what they actually wrote, so a raw store remains a v1
#: store older readers accept; v2 readers read both.  v3 stores integer
#: code and id columns at their narrowest width (``<u2``/``<u4`` arrays
#: stamp v3) and a ``patterns/`` segment's stream ids as code columns
#: over one stream-id column instead of JSON lists; v3 readers read
#: v1 and v2 stores as before.
FORMAT_VERSION = 3
MANIFEST_NAME = "MANIFEST.json"

_CHUNK = 1 << 20

#: Canonical little-endian storage dtypes per NumPy kind.  Unsigned
#: inputs are resolved in :meth:`SegmentWriter.add_array`: 1-, 2- and
#: 4-byte arrays persist as ``|u1`` (format v2), ``<u2`` or ``<u4``
#: (format v3); 8-byte ones are widened into ``<i8`` only when every
#: value fits — values ≥ 2**63 raise instead of silently wrapping
#: negative.
_STORE_DTYPES = {"i": "<i8", "f": "<f8", "b": "|b1"}

#: Unsigned storage dtypes by byte width, with the format version that
#: introduced each.
_UNSIGNED_DTYPES = {1: ("|u1", 2), 2: ("<u2", 3), 4: ("<u4", 3)}


def narrowest_int_array(values) -> np.ndarray:
    """An integer column in the narrowest dtype that holds its values.

    ``|u1``, ``<u2`` or ``<u4`` when every value is in ``[0, 2**32)``
    (an empty column is ``|u1``), ``<i8`` otherwise.  Values are never
    changed: a reader widening the column gets the same integers back.
    """
    array = np.asarray(values, dtype="<i8")
    if not array.size:
        return array.astype("|u1")
    if int(array.min()) < 0:
        return array
    high = int(array.max())
    for dtype, limit in (("|u1", 2**8), ("<u2", 2**16), ("<u4", 2**32)):
        if high < limit:
            return array.astype(dtype)
    return array


def _file_crc32(path: str) -> Tuple[int, int]:
    """CRC-32 and byte size of a file, streamed."""
    crc = 0
    size = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_CHUNK)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
            size += len(chunk)
    return crc & 0xFFFFFFFF, size


def _json_scalar(value: Any) -> bool:
    return value is None or isinstance(value, (str, int, float, bool))


def encode_id_column(ids: Sequence[Hashable]) -> Dict[str, Any]:
    """Encode document/stream identifiers for persistence.

    Plain ``int`` ids (the engines' common case) become an ``int64``
    array payload; any other JSON scalar type round-trips through a
    JSON list (``json.dumps`` emits ``repr``-exact floats).  Ids that
    are not JSON scalars cannot be persisted faithfully and raise.

    Returns a dict with either ``{"kind": "int64", "array": ndarray}``
    or ``{"kind": "json", "values": list}``.
    """
    as_ints: Optional[List[int]] = []
    for value in ids:
        if type(value) is int and -(2**63) <= value < 2**63:
            as_ints.append(value)
            continue
        as_ints = None
        break
    if as_ints is not None:
        return {"kind": "int64", "array": np.asarray(as_ints, dtype="<i8")}
    for value in ids:
        if not _json_scalar(value):
            raise StoreError(
                f"identifier {value!r} of type {type(value).__name__} is "
                "not persistable: ids must be ints, strings, floats, "
                "bools or None to survive a store round-trip"
            )
    return {"kind": "json", "values": list(ids)}


def decode_id_column(kind: str, payload) -> List[Hashable]:
    """Inverse of :func:`encode_id_column`.

    ``int64`` ids come back as Python ``int`` (``tolist`` converts),
    never as NumPy scalars, whose ``repr`` differs and would change
    every :func:`~repro.columnar.postings.rank_tiebreak`.  The kind name
    is the same for every stored width (``<i8`` and the narrow unsigned
    columns of format v3).
    """
    if kind == "int64":
        return np.asarray(payload, dtype="<i8").tolist()
    return list(payload)


def _read_small_array(target: str) -> Optional[np.ndarray]:
    """One-read ``.npy`` loader for small segment files.

    Reads the whole file and wraps the payload bytes with
    ``np.frombuffer`` after hand-parsing the standard header — ~3×
    cheaper than ``np.load``'s open/seek/map choreography, which is
    pure overhead on the packed codec's many small per-column header
    files.  Returns ``None`` on anything unusual (object dtypes,
    Fortran order, malformed header), sending the caller down the
    regular ``np.load`` path so error behaviour is unchanged.
    """
    try:
        with open(target, "rb") as handle:
            data = handle.read()
        if data[:6] != b"\x93NUMPY":
            return None
        if data[6] == 1:
            offset = 10
            header_len = int.from_bytes(data[8:10], "little")
        else:
            offset = 12
            header_len = int.from_bytes(data[8:12], "little")
        header = ast.literal_eval(
            data[offset : offset + header_len].decode("latin1")
        )
        if header.get("fortran_order"):
            return None
        dtype = np.dtype(header["descr"])
        if dtype.hasobject:
            return None
        shape = header["shape"]
        count = 1
        for dim in shape:
            count *= dim
        loaded = np.frombuffer(
            data, dtype=dtype, count=count, offset=offset + header_len
        )
        return loaded.reshape(shape)
    except (OSError, ValueError, SyntaxError, KeyError, TypeError):  # repro: noqa[error-escalation] -- fall through to np.load, whose failure is escalated typed by the caller
        return None


def check_save_target(path: str) -> None:
    """Validate a store save target without creating anything.

    Raises:
        StoreError: when ``path`` exists and is not an empty directory
            — refusing to write into a populated directory is what
            keeps a typoed ``repro save`` from shredding unrelated
            files.  Callers about to do expensive work before the save
            (mining a corpus) should check up front.
    """
    if os.path.exists(path):
        if not os.path.isdir(path):
            raise StoreError(
                f"cannot save store: {path!r} exists and is not a directory"
            )
        if os.listdir(path):
            raise StoreError(
                f"cannot save store: directory {path!r} is not empty — "
                "choose a fresh path or remove its contents first"
            )


class SegmentWriter:
    """Writes one store directory, committing via the manifest.

    All durable effects flow through the installed
    :func:`repro.faults.io.store_io` backend, so fault-injection tests
    can tear, kill or fail any individual write/fsync/rename without
    monkey-patching this module.

    Args:
        path: Target directory.  Must not exist, or be an existing
            *empty* directory (see :func:`check_save_target`).
        fresh: When ``False``, skip the empty-target check — the repair
            path uses this to write replacement segments into an
            existing store directory before atomically rewriting its
            manifest.
    """

    def __init__(self, path: str, fresh: bool = True) -> None:
        if fresh:
            check_save_target(path)
        os.makedirs(path, exist_ok=True)
        self.path = path
        self._files: Dict[str, Dict[str, Any]] = {}
        self._committed = False
        self._format_version = 1

    def require_version(self, version: int) -> None:
        """Raise the manifest's stamped format version to ``version``.

        Codecs that emit layouts older readers cannot parse (the packed
        posting codec, the pattern code columns) call this; a store
        that never does stays a v1 store any reader of this library's
        history accepts.
        """
        if version > FORMAT_VERSION:
            raise StoreError(
                f"cannot stamp format version {version}: this library "
                f"writes at most version {FORMAT_VERSION}"
            )
        self._format_version = max(self._format_version, version)

    # ------------------------------------------------------------------
    def _target(self, name: str) -> str:
        if name in self._files:
            raise StoreError(f"segment file {name!r} written twice")
        target = os.path.join(self.path, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        return target

    def _write_payload(
        self, name: str, target: str, data: bytes, kind: str, **extra
    ) -> None:
        """Write + fsync one segment payload and record its manifest entry.

        The CRC-32 is computed from the in-memory payload, not by
        re-reading the file: anything that mutates the bytes between
        here and the disk (a torn write, a flipped bit, a lying device)
        therefore *mismatches* the manifest and is caught by
        verification — exactly the contract ``repro fsck`` checks.
        """
        shim = store_io()
        try:
            shim.write_bytes(target, data)
            shim.fsync_file(target)
        except OSError as exc:
            raise StoreIOError(
                f"cannot write segment file {name!r} to {target!r}: {exc}"
            ) from None
        entry = {
            "type": kind,
            "crc32": zlib.crc32(data) & 0xFFFFFFFF,
            "size": len(data),
        }
        entry.update(extra)
        self._files[name] = entry

    def add_array(self, name: str, array: np.ndarray) -> None:
        """Persist one array as ``<name>`` in canonical little-endian form."""
        arr = np.asarray(array)
        if arr.dtype.kind == "u":
            narrow = _UNSIGNED_DTYPES.get(arr.dtype.itemsize)
            if narrow is not None:
                # Byte payloads (v2) and narrow code columns (v3).
                store_dtype, version = narrow
                self.require_version(version)
            elif arr.size and int(arr.max()) >= 2**63:
                raise StoreError(
                    f"array segment {name!r} holds unsigned values >= "
                    "2**63 that the <i8 storage dtype cannot represent "
                    "— they would silently wrap negative on encode"
                )
            else:
                store_dtype = "<i8"
        else:
            store_dtype = _STORE_DTYPES.get(arr.dtype.kind)
        if store_dtype is None:
            raise StoreError(
                f"array segment {name!r} has unsupported dtype {arr.dtype}"
            )
        arr = np.ascontiguousarray(arr.astype(store_dtype, copy=False))
        target = self._target(name)
        buffer = io.BytesIO()
        np.save(buffer, arr, allow_pickle=False)
        self._write_payload(
            name, target, buffer.getvalue(), "array",
            dtype=store_dtype, shape=list(arr.shape),
        )

    def add_json(self, name: str, payload: Any) -> None:
        """Persist one JSON document (floats round-trip bit-exactly)."""
        target = self._target(name)
        data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        self._write_payload(name, target, data, "json")

    # ------------------------------------------------------------------
    def commit(self, kind: str, metadata: Optional[Dict[str, Any]] = None) -> None:
        """Write the manifest atomically, making the store visible.

        Until this returns, the directory holds no manifest and no
        reader will serve from it — the crash-safety contract.
        """
        if self._committed:
            raise StoreError("store already committed")
        manifest = {
            "format": FORMAT_NAME,
            "format_version": self._format_version,
            "library_version": __version__,
            "kind": kind,
            "metadata": dict(metadata or {}),
            "files": self._files,
        }
        rewrite_manifest(self.path, manifest)
        self._committed = True


def rewrite_manifest(path: str, manifest: Dict[str, Any]) -> None:
    """Atomically install ``manifest`` as the store's commit record.

    Temp-sibling write, fsync, ``replace``, directory fsync — the same
    boundary sequence :meth:`SegmentWriter.commit` uses, shared with the
    repair path (which rewrites an existing store's manifest after
    quarantining damaged segments).
    """
    shim = store_io()
    temporary = os.path.join(path, MANIFEST_NAME + ".tmp")
    data = json.dumps(manifest, indent=1, sort_keys=True).encode("utf-8")
    try:
        shim.write_bytes(temporary, data)
        shim.fsync_file(temporary)
        shim.replace(temporary, os.path.join(path, MANIFEST_NAME))
    except OSError as exc:
        raise StoreIOError(
            f"cannot commit manifest {MANIFEST_NAME!r} in {path!r}: {exc}"
        ) from None
    shim.fsync_dir(path)


class SegmentReader:
    """Reads one committed store directory.

    Args:
        path: The store directory.
        mmap: Serve arrays through ``np.memmap`` (zero-copy; default)
            instead of materialising them.
        verify: Stream-checksum every file against the manifest before
            serving (default).  Disable only for trusted local stores
            where open latency matters more than corruption detection.
    """

    def __init__(self, path: str, mmap: bool = True, verify: bool = True) -> None:
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if not os.path.isdir(path):
            raise StoreError(
                f"store {path!r} does not exist or is not a directory"
            )
        if not os.path.exists(manifest_path):
            raise StoreCorruptionError(
                f"no {MANIFEST_NAME} in {path!r}: not a segment store, or "
                "a save was interrupted before commit — re-run `repro save`"
            )
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            raise StoreCorruptionError(
                f"corrupted manifest {manifest_path!r}: {exc} — the store "
                "cannot be trusted; re-create it with `repro save`"
            ) from None
        if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
            raise StoreError(
                f"{path!r} is not a {FORMAT_NAME} store (manifest format "
                f"field: {manifest.get('format') if isinstance(manifest, dict) else manifest!r})"
            )
        version = manifest.get("format_version")
        if not isinstance(version, int) or version > FORMAT_VERSION:
            raise StoreError(
                f"store {path!r} uses format version {version} (written by "
                f"library {manifest.get('library_version')!r}), but this "
                f"library ({__version__}) reads versions <= {FORMAT_VERSION}"
                " — upgrade the library or re-save the store"
            )
        self.path = path
        self.manifest = manifest
        self.kind: str = manifest.get("kind", "")
        self.metadata: Dict[str, Any] = manifest.get("metadata", {})
        self.library_version: str = manifest.get("library_version", "")
        self.format_version: int = version
        self._mmap = mmap
        if verify:
            self.verify_checksums()

    # ------------------------------------------------------------------
    def checksum_report(self) -> Dict[str, str]:
        """Per-file verification verdicts: name → ``"ok"`` or a reason.

        The non-raising companion of :meth:`verify_checksums` — what
        ``repro fsck`` walks and what degraded-mode loading consults to
        decide which columns to quarantine.  Reasons name the full path
        plus expected/actual values.
        """
        report: Dict[str, str] = {}
        for name, entry in self.files().items():
            target = os.path.join(self.path, name)
            if not os.path.exists(target):
                report[name] = (
                    f"missing: segment file {target!r} named by the "
                    "manifest is absent"
                )
                continue
            try:
                crc, size = _file_crc32(target)
            except OSError as exc:  # repro: noqa[error-escalation] -- the audit's contract is a verdict per file; verify_checksums escalates read-error verdicts as typed StoreIOError
                report[name] = f"read-error: cannot read {target!r}: {exc}"
                continue
            if size != entry.get("size") or crc != entry.get("crc32"):
                report[name] = (
                    f"checksum mismatch in {target!r}: expected crc32 "
                    f"{entry.get('crc32'):#010x}/{entry.get('size')}B, "
                    f"found {crc:#010x}/{size}B"
                )
            else:
                report[name] = "ok"
        return report

    def verify_checksums(self) -> None:
        """Stream-verify every segment file against the manifest."""
        for name, verdict in self.checksum_report().items():
            if verdict == "ok":
                continue
            if verdict.startswith("missing"):
                raise StoreCorruptionError(
                    f"store {self.path!r} is missing segment file {name!r} "
                    "named by its manifest — the store is corrupted; run "
                    "`repro fsck` / `repro repair`"
                )
            if verdict.startswith("read-error"):
                raise StoreIOError(
                    f"cannot verify segment file {name!r} of store "
                    f"{self.path!r}: {verdict}"
                )
            raise StoreCorruptionError(
                f"checksum mismatch in segment file {name!r} of store "
                f"{self.path!r} ({verdict}) — the store is corrupted; "
                "run `repro fsck` to locate damage and `repro repair "
                "--quarantine` to recover, or re-create it with "
                "`repro save`"
            )

    def files(self) -> Dict[str, Dict[str, Any]]:
        return dict(self.manifest.get("files", {}))

    def has(self, name: str) -> bool:
        return name in self.manifest.get("files", {})

    def _resolve(self, name: str, kind: str) -> str:
        entry = self.manifest.get("files", {}).get(name)
        if entry is None:
            raise StoreError(
                f"store {self.path!r} has no segment {name!r} "
                f"(kind {self.kind!r})"
            )
        if entry.get("type") != kind:
            raise StoreError(
                f"segment {name!r} is a {entry.get('type')!r} segment, "
                f"not {kind!r}"
            )
        return os.path.join(self.path, name)

    #: Array files below this size load through the single-read fast
    #: path instead of ``np.load``: mapping a file costs more in fixed
    #: Python/OS overhead than reading a few KB outright, and packed
    #: stores carry many small per-column header files whose open cost
    #: would otherwise dominate a cold start.
    SMALL_ARRAY_BYTES = 131072

    def array(self, name: str) -> np.ndarray:
        """Load an array segment (memory-mapped read-only by default).

        The returned array is frozen ``writeable=False`` regardless of
        the load mode: an ``mmap_mode="r"`` map is already read-only at
        the OS level, but the eager (``mmap=False``) path returns a
        private heap copy that would otherwise accept writes and
        silently diverge from the CRC-verified bytes on disk.  Callers
        that need a mutable buffer must copy explicitly.
        """
        target = self._resolve(name, "array")
        try:
            store_io().check_read(target)
        except OSError as exc:
            raise StoreIOError(
                f"I/O error reading array segment {name!r} at {target!r}: "
                f"{exc}"
            ) from None
        entry = self.manifest.get("files", {}).get(name, {})
        if entry.get("size", self.SMALL_ARRAY_BYTES) < self.SMALL_ARRAY_BYTES:
            loaded = _read_small_array(target)
            if loaded is not None:
                return loaded
        mode = "r" if self._mmap else None
        try:
            loaded = np.load(target, mmap_mode=mode, allow_pickle=False)
        except OSError as exc:
            raise StoreIOError(
                f"cannot read array segment {name!r} at {target!r}: {exc}"
            ) from None
        except ValueError as exc:
            raise StoreCorruptionError(
                f"cannot decode array segment {name!r} at {target!r}: "
                f"{exc}"
            ) from None
        loaded.flags.writeable = False
        return loaded

    def json(self, name: str) -> Any:
        """Load a JSON segment."""
        target = self._resolve(name, "json")
        try:
            store_io().check_read(target)
        except OSError as exc:
            raise StoreIOError(
                f"I/O error reading JSON segment {name!r} at {target!r}: "
                f"{exc}"
            ) from None
        try:
            with open(target, encoding="utf-8") as handle:
                return json.load(handle)
        except OSError as exc:
            raise StoreIOError(
                f"cannot read JSON segment {name!r} at {target!r}: {exc}"
            ) from None
        except ValueError as exc:
            raise StoreCorruptionError(
                f"cannot decode JSON segment {name!r} at {target!r}: {exc}"
            ) from None
