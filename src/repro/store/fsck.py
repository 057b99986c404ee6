"""Offline store auditing (``repro fsck``) and recovery (``repro repair``).

``fsck`` is the non-destructive half: it walks the manifest, verifies
every segment file's CRC-32 and size, and — for posting segments that
carry per-term checksums — fully decodes every term's columns (raw
slices or packed blocks, exercising the block headers) against the
stored per-term CRC.  The result is a structured
:class:`FsckReport` with one verdict per file and per term, an exit
code (0 clean / 1 corrupt / 2 unreadable) and a JSON payload CI can
archive.

``repair`` is the destructive half, and is deliberately conservative:

* damage to *source* segments (``documents/``, ``patterns/``, a live
  checkpoint's ``live/`` state) is unrepairable — those bytes cannot
  be derived from anything else in the store, so repair refuses before
  mutating anything;
* damaged ``postings/`` files on an ``index`` store are quarantined
  (moved to ``<store>/quarantine/``, never deleted) and the whole
  posting prefix is rebuilt from the store's own documents and mined
  patterns — which is possible precisely because patterns are persisted
  and posting scores are a deterministic function of them;
* a damaged ``trackers/`` or ``trackers_streams/`` segment, or the
  ``planner/model`` segment, which older stores of any kind may carry
  and nothing reads any more, is auxiliary: the damaged files are
  quarantined and the segment is dropped from the manifest.

The rewritten manifest is installed through the same atomic
temp-write → fsync → rename boundary sequence as a fresh save
(:func:`repro.store.format.rewrite_manifest`), so a crash mid-repair
leaves either the old manifest (with quarantined files now "missing" —
fsck still reports honestly) or the new one, never a half-state.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import StoreCorruptionError, StoreError, StoreIOError
from repro.store.format import SegmentReader, SegmentWriter, rewrite_manifest
from repro.store.segments import PostingSegment, encode_posting_lists

__all__ = [
    "FileVerdict",
    "FsckReport",
    "RepairReport",
    "TermVerdict",
    "fsck_store",
    "repair_store",
]


@dataclasses.dataclass(frozen=True)
class FileVerdict:
    """One manifest-listed segment file's verification outcome."""

    name: str
    verdict: str

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"


@dataclasses.dataclass(frozen=True)
class TermVerdict:
    """One posting term's decode-and-checksum outcome.

    ``term`` is ``"(segment)"`` for prefix-level outcomes (the segment
    could not be opened at all, or predates per-term checksums).
    """

    prefix: str
    term: str
    verdict: str

    @property
    def ok(self) -> bool:
        return self.verdict == "ok" or self.verdict.startswith("skipped")


@dataclasses.dataclass(frozen=True)
class FsckReport:
    """Structured ``repro fsck`` outcome for one store directory."""

    path: str
    kind: str = ""
    format_version: int = 0
    error: str = ""
    files: Tuple[FileVerdict, ...] = ()
    terms: Tuple[TermVerdict, ...] = ()

    @property
    def damaged_files(self) -> Tuple[FileVerdict, ...]:
        return tuple(f for f in self.files if not f.ok)

    @property
    def damaged_terms(self) -> Tuple[TermVerdict, ...]:
        return tuple(t for t in self.terms if not t.ok)

    @property
    def clean(self) -> bool:
        return not self.error and not self.damaged_files and not self.damaged_terms

    @property
    def exit_code(self) -> int:
        """0 — every check passed; 1 — damage found; 2 — unreadable."""
        if self.error:
            return 2
        return 0 if self.clean else 1

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready report (the CI artifact format)."""
        return {
            "path": self.path,
            "kind": self.kind,
            "format_version": self.format_version,
            "error": self.error,
            "exit_code": self.exit_code,
            "files": {f.name: f.verdict for f in self.files},
            "terms": [
                {"prefix": t.prefix, "term": t.term, "verdict": t.verdict}
                for t in self.terms
            ],
        }

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [f"fsck {self.path}"]
        if self.error:
            lines.append(f"  unreadable: {self.error}")
            return "\n".join(lines)
        lines.append(
            f"  kind={self.kind} format_version={self.format_version}"
        )
        ok_files = sum(1 for f in self.files if f.ok)
        lines.append(f"  files: {ok_files}/{len(self.files)} ok")
        for entry in self.damaged_files:
            lines.append(f"    DAMAGED {entry.name}: {entry.verdict}")
        if self.terms:
            ok_terms = sum(1 for t in self.terms if t.ok)
            lines.append(f"  posting terms: {ok_terms}/{len(self.terms)} ok")
            for term in self.damaged_terms:
                lines.append(
                    f"    DAMAGED {term.prefix}/{term.term}: {term.verdict}"
                )
        lines.append(
            "  verdict: " + ("clean" if self.clean else "CORRUPT")
        )
        return "\n".join(lines)


def _posting_prefixes(reader: SegmentReader) -> List[str]:
    """Posting-segment prefixes, identified by their meta shape."""
    prefixes = []
    for name in sorted(reader.files()):
        if not name.endswith("/meta.json"):
            continue
        prefix = name[: -len("/meta.json")]
        try:
            meta = reader.json(name)
        except StoreError:  # repro: noqa[error-escalation] -- fsck records the damage as this file's verdict; raising here would abort the audit of every other segment
            continue
        if (
            isinstance(meta, dict)
            and "terms" in meta
            and "doc_id_kind" in meta
        ):
            prefixes.append(prefix)
    return prefixes


def fsck_store(path: str, mmap: bool = True) -> FsckReport:
    """Audit one store directory; never mutates it, never raises.

    Every failure mode becomes a verdict: an unopenable store is an
    ``error`` report (exit 2), per-file CRC/size mismatches and
    per-term decode/checksum failures are damage entries (exit 1).
    """
    try:
        reader = SegmentReader(path, mmap=mmap, verify=False)
    except StoreError as exc:  # repro: noqa[error-escalation] -- fsck's whole contract is converting failures into report verdicts (exit 2), not tracebacks
        return FsckReport(path=path, error=str(exc))
    files = tuple(
        FileVerdict(name, verdict)
        for name, verdict in sorted(reader.checksum_report().items())
    )
    terms: List[TermVerdict] = []
    for prefix in _posting_prefixes(reader):
        try:
            segment = PostingSegment(reader, prefix)
        except StoreError as exc:  # repro: noqa[error-escalation] -- an unopenable posting skeleton is a recorded verdict; its cause is already named by the per-file report
            terms.append(
                TermVerdict(prefix, "(segment)", f"unreadable: {exc}")
            )
            continue
        if segment._term_crcs is None:
            terms.append(
                TermVerdict(
                    prefix,
                    "(segment)",
                    "skipped: store predates per-term checksums "
                    "(no 'term_crcs' in postings meta)",
                )
            )
            continue
        for term in segment.terms:
            try:
                segment.check_term(term)
            except StoreCorruptionError as exc:  # repro: noqa[error-escalation] -- the corruption becomes this term's verdict; fsck keeps auditing the remaining terms
                terms.append(TermVerdict(prefix, term, str(exc)))
            except StoreIOError as exc:  # repro: noqa[error-escalation] -- a read failure is this term's verdict, not an audit abort
                terms.append(TermVerdict(prefix, term, f"read-error: {exc}"))
            else:
                terms.append(TermVerdict(prefix, term, "ok"))
    return FsckReport(
        path=path,
        kind=reader.kind,
        format_version=reader.format_version,
        files=files,
        terms=tuple(terms),
    )


@dataclasses.dataclass(frozen=True)
class RepairReport:
    """What ``repro repair --quarantine`` did to one store."""

    path: str
    quarantined: Tuple[str, ...] = ()
    rebuilt: Tuple[str, ...] = ()
    dropped: Tuple[str, ...] = ()

    @property
    def changed(self) -> bool:
        return bool(self.quarantined or self.rebuilt or self.dropped)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "quarantined": list(self.quarantined),
            "rebuilt": list(self.rebuilt),
            "dropped": list(self.dropped),
        }

    def render(self) -> str:
        lines = [f"repair {self.path}"]
        if not self.changed:
            lines.append("  store is clean; nothing to repair")
            return "\n".join(lines)
        for name in self.quarantined:
            lines.append(f"  quarantined {name} -> quarantine/{name}")
        for prefix in self.rebuilt:
            lines.append(f"  rebuilt segment {prefix}/ from source data")
        for name in self.dropped:
            lines.append(f"  dropped {name} from the manifest")
        return "\n".join(lines)


#: Segments whose bytes cannot be rederived from anything else in the
#: store — damage there is unrepairable by construction.
_SOURCE_PREFIXES = ("documents/", "patterns/", "live/")

#: Tracker state older stores carry and nothing reads any more.
_TRACKER_PREFIXES = ("trackers/", "trackers_streams/")


def _quarantine_file(path: str, name: str) -> None:
    """Move one damaged segment file aside, preserving its bytes."""
    source = os.path.join(path, name)
    target = os.path.join(path, "quarantine", name)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    os.replace(source, target)


def _rebuild_postings(
    reader: SegmentReader, writer: SegmentWriter, codec: str
) -> None:
    """Re-derive the ``postings/`` segment from documents + patterns.

    Persisted patterns plus the stored corpus determine every posting
    score (the manifest's scoring fingerprints pin the callables), so
    the rebuild reproduces the original encoder output byte-for-byte.
    """
    from repro.search.engine import BurstySearchEngine
    from repro.store.collection import DocumentTable, StoredCollection
    from repro.store.segments import decode_patterns
    from repro.store.store import _check_scoring_fingerprints

    _, patterns = decode_patterns(reader, "patterns")
    table = DocumentTable(reader, "documents")
    engine = BurstySearchEngine(
        StoredCollection(table), patterns, precompute=False
    )
    _check_scoring_fingerprints(reader, engine)
    engine.precompute()
    lists = {term: engine._posting_list(term) for term in patterns}
    encode_posting_lists(writer, "postings", lists, codec=codec)


def repair_store(path: str) -> RepairReport:
    """Quarantine damaged segments and restore a loadable store.

    Raises:
        StoreCorruptionError: when the store is unreadable (no usable
            manifest) or the damage reaches source segments
            (documents, patterns, a live checkpoint's ``live/`` state)
            that cannot be rederived — nothing is mutated in that case.
        StoreError: when posting rebuild is impossible (non-default
            scoring callables, or a ``live`` store's postings are
            damaged).
    """
    report = fsck_store(path)
    if report.error:
        raise StoreCorruptionError(
            f"cannot repair store {path!r}: {report.error}"
        )
    damaged = [entry.name for entry in report.damaged_files]
    if not damaged:
        return RepairReport(path=path)

    unrepairable = [
        name
        for name in damaged
        if name.startswith(_SOURCE_PREFIXES)
    ]
    if unrepairable:
        raise StoreCorruptionError(
            f"cannot repair store {path!r}: segment file "
            f"{unrepairable[0]!r} holds source data that nothing else in "
            "the store can rederive — restore it from a backup or "
            "re-create the store with `repro save`"
        )
    if report.kind != "index" and any(
        name.startswith("postings/") for name in damaged
    ):
        raise StoreError(
            f"cannot repair {report.kind!r} store {path!r}: its posting "
            "segment embeds live serving state that only re-ingestion "
            "can reproduce — restore an earlier checkpoint"
        )

    reader = SegmentReader(path, verify=False)
    manifest = dict(reader.manifest)
    files: Dict[str, Dict[str, Any]] = dict(manifest.get("files", {}))
    metadata: Dict[str, Any] = dict(manifest.get("metadata", {}))

    rebuild_postings = any(name.startswith("postings/") for name in damaged)
    drop_planner = "planner/model" in damaged
    drop_trackers = any(name.startswith(_TRACKER_PREFIXES) for name in damaged)

    quarantined: List[str] = []
    for name in damaged:
        if os.path.exists(os.path.join(path, name)):
            _quarantine_file(path, name)
        quarantined.append(name)

    rebuilt: List[str] = []
    dropped: List[str] = []
    writer = SegmentWriter(path, fresh=False)
    if rebuild_postings:
        codec = str(metadata.get("codec", "raw"))
        _rebuild_postings(reader, writer, codec)
        files = {
            name: entry
            for name, entry in files.items()
            if not name.startswith("postings/")
        }
        rebuilt.append("postings")
    if drop_planner:
        files.pop("planner/model", None)
        metadata.pop("planner", None)
        dropped.append("planner/model")
    if drop_trackers:
        files = {
            name: entry
            for name, entry in files.items()
            if not name.startswith(_TRACKER_PREFIXES)
        }
        if "trackers" in metadata:
            metadata["trackers"] = False
        dropped.append("trackers")
    # Merge the rebuilt segment entries and re-stamp the lowest
    # sufficient format version over what actually remains on disk.
    files.update(writer._files)
    manifest["files"] = files
    manifest["metadata"] = metadata
    version = int(manifest.get("format_version", 1))
    manifest["format_version"] = max(version, writer._format_version)
    rewrite_manifest(path, manifest)

    # The contract: after repair the store verify-opens, or repair
    # itself fails loudly.
    SegmentReader(path, verify=True)
    return RepairReport(
        path=path,
        quarantined=tuple(quarantined),
        rebuilt=tuple(rebuilt),
        dropped=tuple(dropped),
    )
