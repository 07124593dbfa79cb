"""Shared trace arena: one physical trace copy across N processes.

The parent materializes a trace **once** into a sharable medium and
ships other processes only a tiny picklable :class:`TraceHandle`; they
attach in place and never copy. (The sweep executor does not use it:
its workers map the trace cache's store files directly.)

Two media, chosen per trace:

- ``file`` — the v2 mmap store itself (:mod:`repro.trace.store`).
  When the trace is already a :class:`~repro.trace.store.MappedStream`
  (the disk-cache hit path) the handle is literally its path: every
  worker maps the same file and the page cache keeps one physical
  copy. Traces without a backing store are spooled to a store file in
  a temp directory the arena owns.
- ``shm`` — a ``multiprocessing.shared_memory`` segment holding the
  chunk sections back-to-back. RAM-resident and filesystem-free, for
  hosts where spooling is undesirable; the same struct-of-arrays
  layout, attached as zero-copy views.

Chunk boundaries are preserved exactly, so a worker's replay batches
bit-identically to a replay of the original stream. The parent is
responsible for lifetime: :meth:`TraceArena.close` unlinks shm
segments and removes spooled files after the sweep drains.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import TraceError
from repro.trace.events import ADDR_DTYPE, KIND_DTYPE, SIZE_DTYPE, AccessBatch
from repro.trace.stream import DEFAULT_CHUNK_EVENTS, AddressStream
from repro.trace.tracer import Region

_ADDR_ITEM = np.dtype(ADDR_DTYPE).itemsize
_SIZE_ITEM = np.dtype(SIZE_DTYPE).itemsize
_KIND_ITEM = np.dtype(KIND_DTYPE).itemsize


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def _chunk_offsets(chunk_lengths: tuple[int, ...]) -> list[int]:
    """Start offset of each chunk block in the shm layout.

    Blocks are laid out back-to-back, each starting 8-byte aligned so
    the ``uint64`` address section is always properly aligned.
    """
    offsets = []
    position = 0
    for n in chunk_lengths:
        position = _align8(position)
        offsets.append(position)
        position += n * (_ADDR_ITEM + _SIZE_ITEM + _KIND_ITEM)
    return offsets


def _arena_bytes(chunk_lengths: tuple[int, ...]) -> int:
    """Total shm segment size for the given chunk lengths."""
    if not chunk_lengths:
        return 0
    offsets = _chunk_offsets(chunk_lengths)
    last = chunk_lengths[-1]
    return offsets[-1] + last * (_ADDR_ITEM + _SIZE_ITEM + _KIND_ITEM)


def _attached_shared_memory_cls():
    """Subclass of ``SharedMemory`` whose close tolerates live views.

    Zero-copy chunk views pin the underlying mmap; the stock
    ``close()`` (also called from ``__del__``) raises ``BufferError``
    while any view is alive. For attach-side segments that is
    harmless — the OS reclaims the mapping when the views go away —
    so swallow it instead of spraying "Exception ignored" noise.
    """
    from multiprocessing import shared_memory

    class _AttachedSharedMemory(shared_memory.SharedMemory):
        def close(self):
            try:
                super().close()
            except BufferError:
                pass

    return _AttachedSharedMemory


def _AttachedSharedMemory(name: str):
    return _attached_shared_memory_cls()(name=name)


class SharedStream(AddressStream):
    """A read-only :class:`AddressStream` over an attached shm segment.

    Chunks are zero-copy views into the shared buffer; the segment
    stays attached for the stream's lifetime (the publishing parent
    unlinks it after the sweep).
    """

    def __init__(self, shm, chunk_lengths: tuple[int, ...],
                 chunk_events: int) -> None:
        self._shm = shm
        self._chunk_lengths = tuple(int(n) for n in chunk_lengths)
        self._offsets = _chunk_offsets(self._chunk_lengths)
        self._chunk_events = int(chunk_events)
        self._events = sum(self._chunk_lengths)

    def __len__(self) -> int:
        return self._events

    @property
    def nbytes(self) -> int:
        """Bytes of the shared segment this stream reads.

        Shared, not private: the cost is paid once regardless of how
        many workers attach.
        """
        return _arena_bytes(self._chunk_lengths)

    def chunks(self) -> Iterator[AccessBatch]:
        buf = self._shm.buf
        for n, start in zip(self._chunk_lengths, self._offsets):
            addr_off = start
            size_off = addr_off + n * _ADDR_ITEM
            kind_off = size_off + n * _SIZE_ITEM
            arrays = (
                np.frombuffer(buf, dtype=ADDR_DTYPE, count=n, offset=addr_off),
                np.frombuffer(buf, dtype=SIZE_DTYPE, count=n, offset=size_off),
                np.frombuffer(buf, dtype=KIND_DTYPE, count=n, offset=kind_off),
            )
            for array in arrays:
                array.flags.writeable = False
            yield AccessBatch(*arrays)

    def append(self, addresses, sizes, is_store) -> None:
        raise TraceError(
            "arena-attached stream is read-only; materialize a copy to "
            "append"
        )

    def _flush(self) -> None:  # pragma: no cover - nothing buffered
        pass


@dataclass(frozen=True)
class TraceHandle:
    """Picklable reference to one published trace.

    This — not the trace — is what crosses the process boundary: a few
    hundred bytes naming either a v2 store file or an shm segment,
    plus the chunk lengths needed to rebuild zero-copy views and the
    tracer regions needed by the NDM oracle.
    """

    workload: str
    kind: str  # "file" | "shm"
    locator: str  # store path (file) or segment name (shm)
    chunk_lengths: tuple[int, ...]
    chunk_events: int
    regions: tuple[Region, ...]

    @property
    def events(self) -> int:
        """Total accesses in the published trace."""
        return sum(self.chunk_lengths)

    def attach(self) -> tuple[AddressStream, list[Region]]:
        """Open the published trace without copying it.

        ``file`` handles mmap the store (chunk digests already
        verified by the publisher, so attachment skips re-hashing);
        ``shm`` handles attach the segment and wrap it in a
        :class:`SharedStream`.
        """
        if self.kind == "file":
            from repro.trace.store import MappedStream

            stream: AddressStream = MappedStream.open(self.locator)
            # Publisher verified the payload; don't re-hash per worker.
            stream._verified = [True] * len(stream._verified)
        elif self.kind == "shm":
            # Attaching re-registers the segment with the resource
            # tracker (no track=False before 3.13). Fork and spawn
            # children both inherit the publishing parent's tracker
            # (spawn passes its fd in the preparation data), whose
            # registration cache is a set — the duplicate collapses,
            # and the parent's unlink unregisters it exactly once. Do
            # NOT unregister here: that would strip the shared
            # tracker's one registration out from under the publisher.
            shm = _AttachedSharedMemory(name=self.locator)
            stream = SharedStream(shm, self.chunk_lengths, self.chunk_events)
        else:
            raise TraceError(f"unknown trace arena handle kind {self.kind!r}")
        return stream, list(self.regions)


@dataclass
class TraceArena:
    """Parent-side registry of published traces.

    Args:
        prefer: ``"auto"`` (file for mmap-backed streams, shm for
            in-memory ones), ``"file"`` (always spool to a v2 store),
            or ``"shm"`` (always copy into shared memory).
        spool_dir: directory for spooled store files; a private temp
            directory (removed on :meth:`close`) when unset.
    """

    prefer: str = "auto"
    spool_dir: str | None = None
    _handles: dict[str, TraceHandle] = field(default_factory=dict)
    _segments: list = field(default_factory=list)
    _tempdir: str | None = None

    def publish(self, workload: str, stream: AddressStream,
                regions: list[Region] | tuple[Region, ...]) -> TraceHandle:
        """Make one workload's trace attachable by workers.

        Idempotent per workload name; returns the (cached) handle.
        """
        if workload in self._handles:
            return self._handles[workload]
        if self.prefer not in ("auto", "file", "shm"):
            raise TraceError(f"unknown arena preference {self.prefer!r}")
        from repro.trace.store import MappedStream

        chunks = list(stream.chunks())
        chunk_lengths = tuple(len(c) for c in chunks)
        chunk_events = getattr(stream, "_chunk_events", DEFAULT_CHUNK_EVENTS)
        if isinstance(stream, MappedStream) and self.prefer in ("auto", "file"):
            stream.verify()  # workers attach unverified; verify once here
            handle = TraceHandle(
                workload=workload, kind="file", locator=str(stream.path),
                chunk_lengths=chunk_lengths, chunk_events=chunk_events,
                regions=tuple(regions),
            )
        elif self.prefer in ("auto", "shm") and self._shm_fits(stream.nbytes):
            handle = self._publish_shm(
                workload, chunks, chunk_lengths, chunk_events, regions
            )
        else:
            handle = self._publish_file(
                workload, stream, chunk_lengths, chunk_events, regions
            )
        self._handles[workload] = handle
        return handle

    @property
    def handles(self) -> dict[str, TraceHandle]:
        """Published handles keyed by workload name."""
        return dict(self._handles)

    def _shm_fits(self, nbytes: int) -> bool:
        """Shared memory is usable and has headroom for ``nbytes``."""
        try:
            from multiprocessing import shared_memory  # noqa: F401

            free = shutil.disk_usage("/dev/shm").free
        except (ImportError, OSError):
            return False
        # Leave half the free shm space for everyone else.
        return nbytes <= free // 2

    def _publish_shm(self, workload, chunks, chunk_lengths, chunk_events,
                     regions) -> TraceHandle:
        from multiprocessing import shared_memory

        total = max(1, _arena_bytes(chunk_lengths))
        shm = shared_memory.SharedMemory(create=True, size=total)
        self._segments.append(shm)
        buf = shm.buf
        for n, start in zip(chunk_lengths, _chunk_offsets(chunk_lengths)):
            chunk = chunks.pop(0)
            addr_off = start
            size_off = addr_off + n * _ADDR_ITEM
            kind_off = size_off + n * _SIZE_ITEM
            for array, offset, dtype in (
                (chunk.addresses, addr_off, ADDR_DTYPE),
                (chunk.sizes, size_off, SIZE_DTYPE),
                (chunk.is_store, kind_off, KIND_DTYPE),
            ):
                view = np.frombuffer(buf, dtype=dtype, count=n, offset=offset)
                view[:] = array
        return TraceHandle(
            workload=workload, kind="shm", locator=shm.name,
            chunk_lengths=chunk_lengths, chunk_events=chunk_events,
            regions=tuple(regions),
        )

    def _publish_file(self, workload, stream, chunk_lengths, chunk_events,
                      regions) -> TraceHandle:
        from repro.trace.store import write_store

        if self.spool_dir is not None:
            directory = Path(self.spool_dir)
        else:
            if self._tempdir is None:
                self._tempdir = tempfile.mkdtemp(prefix="repro-arena-")
            directory = Path(self._tempdir)
        path = directory / f"{workload}.arena.rts"
        write_store(stream, path)
        return TraceHandle(
            workload=workload, kind="file", locator=str(path),
            chunk_lengths=chunk_lengths, chunk_events=chunk_events,
            regions=tuple(regions),
        )

    def close(self) -> None:
        """Release everything published: unlink shm, remove spool files.

        Call after the sweep drains; attached workers must be done.
        """
        for shm in self._segments:
            try:
                shm.close()
                shm.unlink()
            except (FileNotFoundError, BufferError):
                pass
        self._segments.clear()
        if self._tempdir is not None:
            shutil.rmtree(self._tempdir, ignore_errors=True)
            self._tempdir = None
        self._handles.clear()

    def __enter__(self) -> "TraceArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
