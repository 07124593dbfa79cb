"""Stream and region-map serialization with integrity protection.

Traces are expensive to produce (the workload actually runs), so the
runner can persist them. Two stream formats coexist:

- **v1** — compressed ``.npz`` (struct-of-arrays, loads back
  bit-exact). Compact, but every load decompresses the whole stream
  into private memory and integrity means a second full read to hash
  the file.
- **v2** — the chunked, page-aligned store of
  :mod:`repro.trace.store` (``.rts``). :func:`load_stream` detects it
  by magic and returns a lazy, mmap-backed
  :class:`~repro.trace.store.MappedStream` whose chunks are zero-copy
  views verified incrementally (per-chunk SHA-256 from the header) as
  they are first read.

The tracer's region map is JSON next to the stream. A saved pair is
enough to re-run every design evaluation and the NDM oracle without
re-executing the workload; :func:`load_trace` transparently migrates
v1 cache entries to v2 when asked.

A *capture* is a derived stream saved beside its trace: a v2 store
(``<name>.post_l3.rts``) plus a JSON record (``<name>.post_l3.json``)
describing how it was produced (:func:`save_capture`,
:func:`load_capture`). The runner keeps its post-L3 stream this way.

Because long campaigns lean on these artifacts, writes are **atomic**
(temp file in the destination directory + ``os.replace``) and every
artifact gets a SHA-256 sidecar (``<artifact>.sha256``, ``sha256sum``
format). Loading verifies integrity (sidecar for v1, embedded chunk
digests for v2) and re-raises any parse failure as
:class:`~repro.errors.TraceIntegrityError` naming the offending file,
so a half-written or bit-flipped cache entry is detected instead of
silently corrupting an evaluation.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from repro.errors import TraceError, TraceIntegrityError
from repro.trace.stream import AddressStream
from repro.trace.tracer import Region, Tracer

#: Format marker stored in every stream file.
_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Integrity plumbing
# ----------------------------------------------------------------------


def checksum_path(path: str | Path) -> Path:
    """The SHA-256 sidecar path for an artifact."""
    path = Path(path)
    return path.with_name(path.name + ".sha256")


def compute_checksum(path: str | Path) -> str:
    """SHA-256 hex digest of a file's contents."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via temp file + ``os.replace``.

    Readers never observe a partially written artifact: they see either
    the previous version or the new one.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _write_artifact(path: Path, payload: bytes) -> None:
    """Atomically write an artifact and its SHA-256 sidecar."""
    _atomic_write_bytes(path, payload)
    digest = hashlib.sha256(payload).hexdigest()
    _atomic_write_bytes(
        checksum_path(path), f"{digest}  {path.name}\n".encode()
    )


def verify_artifact(path: str | Path, max_bytes: int | None = None) -> None:
    """Check an artifact against its SHA-256 sidecar.

    Artifacts written before sidecars existed (no ``.sha256`` next to
    them) pass unverified, for backward compatibility.

    Args:
        path: the artifact to verify.
        max_bytes: fast-path knob for callers about to *stream* the
            artifact anyway. Files at or under the limit get the full
            hash as before. Above it, a v2 trace store gets its
            prelude + header digests checked (the chunk payloads then
            verify incrementally as they are read — see
            :class:`~repro.trace.store.MappedStream`), and any other
            format is skipped: the caller accepts deferred detection
            in exchange for not reading a large file twice. ``None``
            (the default) always hashes in full.

    Raises:
        TraceIntegrityError: on digest mismatch or unreadable sidecar.
    """
    path = Path(path)
    if max_bytes is not None:
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        if size > max_bytes:
            from repro.trace.store import is_store_file, verify_store_header

            if is_store_file(path):
                verify_store_header(path)
            return
    sidecar = checksum_path(path)
    if not sidecar.exists():
        return
    try:
        expected = sidecar.read_text().split()[0]
    except (OSError, IndexError) as exc:
        raise TraceIntegrityError(
            f"unreadable checksum sidecar {sidecar}; delete {path} and "
            f"its sidecar, then re-trace"
        ) from exc
    actual = compute_checksum(path)
    if actual != expected:
        raise TraceIntegrityError(
            f"checksum mismatch for {path} (expected {expected[:12]}…, "
            f"got {actual[:12]}…); delete this file and its .sha256 "
            f"sidecar and re-trace the workload"
        )


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------


def save_stream(
    stream: AddressStream, path: str | Path, version: int = _FORMAT_VERSION
) -> None:
    """Write a stream to ``path``.

    ``version=1`` (the default, for backward compatibility) writes the
    compressed ``.npz``; ``version=2`` writes the chunked mmap-ready
    store of :mod:`repro.trace.store`. Either way the write is atomic
    (temp file + rename), parent directories are created, and a
    ``.sha256`` sidecar is written alongside.
    """
    if version == 2:
        from repro.trace.store import write_store

        write_store(stream, path)
        return
    if version != _FORMAT_VERSION:
        raise TraceError(f"unsupported stream format version {version}")
    batch = stream.as_batch()
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        version=np.int64(_FORMAT_VERSION),
        addresses=batch.addresses,
        sizes=batch.sizes,
        is_store=batch.is_store,
    )
    _write_artifact(Path(path), buffer.getvalue())


def load_stream(
    path: str | Path, max_verify_bytes: int | None = None
) -> AddressStream:
    """Read a stream written by :func:`save_stream`.

    The format is sniffed from the file's magic, not its name. A v2
    store comes back as a lazy, mmap-backed
    :class:`~repro.trace.store.MappedStream` — zero-copy chunk views,
    per-chunk digests checked as data is first touched (call its
    ``verify()`` to force a full pass up front). A v1 ``.npz`` is
    decompressed into a plain in-memory stream after sidecar
    verification, which ``max_verify_bytes`` can cap (see
    :func:`verify_artifact`).

    Raises:
        TraceError: for missing files or unknown formats.
        TraceIntegrityError: for truncated, bit-flipped, or otherwise
            unparseable files.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"no stream file at {path}")
    from repro.trace.store import MappedStream, is_store_file

    if is_store_file(path):
        return MappedStream.open(path)
    verify_artifact(path, max_bytes=max_verify_bytes)
    try:
        with np.load(path) as data:
            version = int(data["version"])
            if version != _FORMAT_VERSION:
                raise TraceError(
                    f"unsupported stream format version {version} in {path}"
                )
            return AddressStream.from_arrays(
                data["addresses"], data["sizes"], data["is_store"]
            )
    except TraceError:
        raise
    except (zipfile.BadZipFile, KeyError, ValueError, OSError, EOFError) as exc:
        raise TraceIntegrityError(
            f"corrupt stream file {path} ({type(exc).__name__}: {exc}); "
            f"delete it and re-trace the workload"
        ) from exc


# ----------------------------------------------------------------------
# Region maps
# ----------------------------------------------------------------------


def save_regions(tracer: Tracer, path: str | Path) -> None:
    """Write a tracer's region map to ``path`` (JSON).

    Atomic (temp file + rename); parent directories are created; a
    ``.sha256`` sidecar is written alongside.
    """
    payload = {
        "version": _FORMAT_VERSION,
        "regions": [
            {"name": r.name, "base": r.base, "size": r.size}
            for r in tracer.regions
        ],
    }
    _write_artifact(Path(path), json.dumps(payload, indent=2).encode())


def load_regions(path: str | Path) -> list[Region]:
    """Read a region map written by :func:`save_regions`.

    Raises:
        TraceError: for missing files or unknown formats.
        TraceIntegrityError: for corrupt/unparseable files.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"no region file at {path}")
    verify_artifact(path)
    try:
        payload = json.loads(path.read_text())
        if payload.get("version") != _FORMAT_VERSION:
            raise TraceError(f"unsupported region format in {path}")
        return [
            Region(name=entry["name"], base=entry["base"], size=entry["size"])
            for entry in payload["regions"]
        ]
    except TraceError:
        raise
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError,
            UnicodeDecodeError) as exc:
        raise TraceIntegrityError(
            f"corrupt region file {path} ({type(exc).__name__}: {exc}); "
            f"delete it and re-trace the workload"
        ) from exc


# ----------------------------------------------------------------------
# Paired artifacts
# ----------------------------------------------------------------------


#: Suffix of v2 stream artifacts in a trace pair.
_STREAM_V2 = ".stream.rts"
#: Suffix of v1 stream artifacts in a trace pair.
_STREAM_V1 = ".stream.npz"


def save_trace(stream: AddressStream, tracer: Tracer, directory: str | Path,
               name: str, version: int = 2) -> tuple[Path, Path]:
    """Persist a (stream, regions) pair under ``directory/name.*``.

    Streams default to the v2 mmap-ready store
    (``<name>.stream.rts``); pass ``version=1`` for the legacy
    compressed ``.npz``. A stale stream artifact of the other version
    (and its sidecar) is removed so the pair never becomes ambiguous.

    Returns the two paths written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if version == 2:
        stream_path = directory / f"{name}{_STREAM_V2}"
        stale = directory / f"{name}{_STREAM_V1}"
    else:
        stream_path = directory / f"{name}{_STREAM_V1}"
        stale = directory / f"{name}{_STREAM_V2}"
    regions_path = directory / f"{name}.regions.json"
    # Regions first: readers treat the stream artifact's existence as
    # "cached", so it must not appear before its region map (parallel
    # sweep workers trace and load one cache entry concurrently).
    save_regions(tracer, regions_path)
    save_stream(stream, stream_path, version=version)
    for path in (stale, checksum_path(stale)):
        if path.exists():
            path.unlink()
    return stream_path, regions_path


def load_trace(
    directory: str | Path, name: str, migrate: bool = False
) -> tuple[AddressStream, list[Region]]:
    """Load a pair written by :func:`save_trace`.

    Prefers the v2 store when both stream versions exist. With
    ``migrate=True`` a v1-only entry is rewritten as a v2 store on the
    way through (bit-exact event content) and the ``.npz`` plus its
    sidecar are removed, so old caches upgrade themselves the first
    time they are touched.
    """
    directory = Path(directory)
    v2_path = directory / f"{name}{_STREAM_V2}"
    v1_path = directory / f"{name}{_STREAM_V1}"
    stream_path = v2_path if v2_path.exists() else v1_path
    stream = load_stream(stream_path)
    regions = load_regions(directory / f"{name}.regions.json")
    if migrate and stream_path == v1_path:
        from repro.trace.store import MappedStream, write_store

        write_store(stream, v2_path)
        for path in (v1_path, checksum_path(v1_path)):
            if path.exists():
                path.unlink()
        stream = MappedStream.open(v2_path)
    return stream, regions


def artifact_digest(path: str | Path) -> str | None:
    """The SHA-256 of an artifact, or None when it does not exist.

    Read from the artifact's sidecar (no pass over the data); hashed
    afresh when the sidecar is missing or unreadable.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        return checksum_path(path).read_text().split()[0]
    except (OSError, IndexError):
        return compute_checksum(path)


# ----------------------------------------------------------------------
# Captured streams
# ----------------------------------------------------------------------


#: Suffix of a captured stream's v2 store. Deliberately not
#: ``.stream.rts``: a glob for a workload's trace never matches it.
_CAPTURE_STREAM = ".post_l3.rts"
#: Suffix of a captured stream's JSON record.
_CAPTURE_RECORD = ".post_l3.json"


def _capture_paths(directory: str | Path, name: str) -> tuple[Path, Path]:
    """The (stream, record) paths of a capture saved as ``name``."""
    directory = Path(directory)
    return (directory / f"{name}{_CAPTURE_STREAM}",
            directory / f"{name}{_CAPTURE_RECORD}")


def save_capture(stream: AddressStream, record: dict,
                 directory: str | Path, name: str) -> tuple[Path, Path]:
    """Persist a captured stream and its JSON record as ``name``.

    The stream is a v2 store; ``record`` must be JSON-serializable.
    Both writes are atomic with SHA-256 sidecars. The record's sidecar
    is written last, so its presence marks a complete entry.

    Returns the two paths written.
    """
    from repro.trace.store import write_store

    stream_path, record_path = _capture_paths(directory, name)
    write_store(stream, stream_path)
    payload = {
        "version": _FORMAT_VERSION,
        "stream_events": len(stream),
        "record": record,
    }
    _write_artifact(record_path, json.dumps(payload, sort_keys=True).encode())
    return stream_path, record_path


def load_capture(
    directory: str | Path, name: str
) -> "tuple[MappedStream, dict] | None":
    """Load and fully verify a capture written by :func:`save_capture`.

    Returns ``(stream, record)``, or None when the entry is absent or
    not yet complete (no record, or no record sidecar: a writer may be
    between the two). Every chunk of the stream is verified up front,
    so a corrupt entry fails here rather than mid-simulation.

    Raises:
        TraceIntegrityError: a missing stream or stream sidecar, a
            digest mismatch, a truncated or unreadable file, or a
            record that does not describe its stream.
    """
    from repro.trace.store import MappedStream

    stream_path, record_path = _capture_paths(directory, name)
    if not checksum_path(record_path).exists():
        return None
    if not checksum_path(stream_path).exists():
        raise TraceIntegrityError(f"no checksum sidecar for {stream_path}")
    try:
        verify_artifact(record_path)
        payload = json.loads(record_path.read_text())
        if payload["version"] != _FORMAT_VERSION:
            raise TraceIntegrityError(
                f"unsupported capture format in {record_path}"
            )
        events, record = int(payload["stream_events"]), payload["record"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            UnicodeDecodeError) as exc:
        raise TraceIntegrityError(
            f"corrupt capture record {record_path} "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    try:
        stream = MappedStream.open(stream_path)
        stream.verify()
    except OSError as exc:
        raise TraceIntegrityError(
            f"unreadable capture {stream_path} ({type(exc).__name__}: {exc})"
        ) from exc
    if len(stream) != events:
        raise TraceIntegrityError(
            f"capture {stream_path} holds {len(stream)} events, its record "
            f"says {events}"
        )
    return stream, record


def discard_capture(directory: str | Path, name: str) -> list[Path]:
    """Delete a saved capture and its sidecars; returns what was removed.

    Files another process removed first are skipped.
    """
    removed = []
    for artifact in _capture_paths(directory, name):
        for path in (artifact, checksum_path(artifact)):
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            removed.append(path)
    return removed


def discard_trace(directory: str | Path, name: str) -> list[Path]:
    """Delete a saved (stream, regions) pair and sidecars if present.

    Covers both stream versions (``.stream.rts`` and ``.stream.npz``).
    The remediation step for a :class:`TraceIntegrityError`; returns
    the paths actually removed.
    """
    directory = Path(directory)
    removed = []
    for artifact in (
        directory / f"{name}{_STREAM_V2}",
        directory / f"{name}{_STREAM_V1}",
        directory / f"{name}.regions.json",
    ):
        for path in (artifact, checksum_path(artifact)):
            if path.exists():
                path.unlink()
                removed.append(path)
    return removed
