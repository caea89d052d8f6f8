"""Chunked on-disk trace container: memmap-backed writer, bounded reader.

The in-memory :class:`~repro.workload.trace.Trace` holds its two request
arrays on the heap, which caps a single simulation at whatever fits in
RAM (10⁶ requests ≈ 12 MB is fine; 10⁸ is not, and neither is holding
several clusters' worth at once).  This module stores the same two
arrays in one self-describing binary file and reads them back **in
chunks**, so peak resident memory stays flat — O(chunk) — no matter how
long the trace grows.

File layout (version 1)::

    [header]     one ASCII-JSON line padded to HEADER_BYTES with spaces
    [object_ids] n_requests × int64, little-endian
    [client_ids] n_requests × int32, little-endian

Version 2 appends a per-object size table after the request arrays::

    [sizes]      n_objects × int64, little-endian

and marks it with ``"sizes": true`` in the header.  Size-free traces are
still written as version 1 — byte-identical to what this module always
produced — and readers accept both versions (:data:`STREAM_VERSIONS`),
so old traces stay loadable.

The header names the exact body size, so a file whose length disagrees
is **truncated** (a crashed writer, a partial copy) and is refused at
open time — the same refuse-don't-guess policy the exchange-trace reader
applies to half-written recordings (PR 5).  The writer fills the file
through a preallocated ``numpy.memmap`` and only stamps the header's
``sealed`` flag after both arrays are complete, so an unsealed file can
never masquerade as a trace.

Truncation is :class:`TruncatedTraceError`.  A garbled header, an
unknown version, a body id outside the header's object or client range
and a size below one byte are :class:`CorruptTraceError`.  The ids are
checked in the one chunked pass that
:meth:`StreamingTrace.reference_counts` makes, which capacity sizing
runs before any request is simulated.

:class:`StreamingTrace` shares :class:`Trace`'s statistics
(:class:`~repro.workload.trace.TraceStatistics`: ``infinite_cache_size``
…) over a ``reference_counts`` accumulated by chunked ``bincount`` passes
instead of materializing the arrays, and serves the request stream to
the simulator via :meth:`object_slice` / :meth:`client_slice` windows
backed by a read-only memmap.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .trace import TraceStatistics

__all__ = [
    "CHUNK_REQUESTS",
    "STREAM_MAGIC",
    "STREAM_VERSION",
    "STREAM_VERSIONS",
    "TruncatedTraceError",
    "CorruptTraceError",
    "ChunkedTraceWriter",
    "StreamingTrace",
]

#: Default chunk length (requests per read/write window).  2¹⁸ requests
#: is 3 MB of trace — large enough that per-chunk overhead vanishes,
#: small enough that a reader holds single-digit megabytes live.
CHUNK_REQUESTS = 1 << 18

STREAM_MAGIC = "repro-ctrace"
#: Version written for size-free traces (the historical format).
STREAM_VERSION = 1
#: Version written when a per-object size table is present.
STREAM_VERSION_SIZED = 2
#: Versions this build reads.
STREAM_VERSIONS = (1, 2)

#: Fixed header size.  JSON + padding; rewriting the sealed flag in
#: place never moves the body.
HEADER_BYTES = 256

_OBJ_DTYPE = np.dtype("<i8")
_CLI_DTYPE = np.dtype("<i4")


class TruncatedTraceError(ValueError):
    """The file is shorter than its header promises (or never sealed)."""


class CorruptTraceError(ValueError):
    """The file is no trace this build reads: a garbled header, an
    unknown version, a body id outside the header's ranges, or a
    non-positive object size."""


def _header_bytes(meta: dict) -> bytes:
    raw = json.dumps(meta, separators=(",", ":")).encode("ascii")
    if len(raw) >= HEADER_BYTES:
        raise ValueError(f"trace header too large ({len(raw)} bytes): {meta!r}")
    return raw + b" " * (HEADER_BYTES - len(raw) - 1) + b"\n"


def _body_bytes(n_requests: int, n_sized_objects: int = 0) -> int:
    return (
        n_requests * (_OBJ_DTYPE.itemsize + _CLI_DTYPE.itemsize)
        + n_sized_objects * _OBJ_DTYPE.itemsize
    )


class ChunkedTraceWriter:
    """Stream a trace to disk chunk by chunk, without the full arrays.

    The request count must be known up front (ProWGen's is: it is a
    config knob), so the writer preallocates the file once and fills it
    through a memmap.  Object ids and client ids are appended through
    independent cursors — chunked ProWGen emits the whole object stream
    first and the client stream second, exactly like the monolithic
    generator, so the two phases' RNG draw order (and therefore the
    bytes) stay identical.

    ``close()`` refuses to seal until both cursors reach ``n_requests``;
    an abandoned writer leaves an unsealed file behind that
    :class:`StreamingTrace` rejects.
    """

    def __init__(
        self,
        path: str | Path,
        n_requests: int,
        n_objects: int,
        n_clients: int,
        name: str = "",
        sizes: np.ndarray | None = None,
    ) -> None:
        if n_requests < 0:
            raise ValueError("n_requests must be non-negative")
        self.path = Path(path)
        self.n_requests = int(n_requests)
        self.n_objects = int(n_objects)
        self.n_clients = int(n_clients)
        self.name = name
        if sizes is not None:
            sizes = np.ascontiguousarray(sizes, dtype=_OBJ_DTYPE)
            if sizes.shape != (self.n_objects,):
                raise ValueError(
                    f"sizes must have one entry per object ({self.n_objects})"
                )
        self.sizes = sizes
        self._obj_cursor = 0
        self._cli_cursor = 0
        self._closed = False
        n_sized = self.n_objects if sizes is not None else 0
        with self.path.open("wb") as fh:
            fh.write(_header_bytes(self._meta(sealed=False)))
            fh.truncate(HEADER_BYTES + _body_bytes(self.n_requests, n_sized))
        if self.n_requests:
            self._objs = np.memmap(
                self.path,
                dtype=_OBJ_DTYPE,
                mode="r+",
                offset=HEADER_BYTES,
                shape=(self.n_requests,),
            )
            self._clis = np.memmap(
                self.path,
                dtype=_CLI_DTYPE,
                mode="r+",
                offset=HEADER_BYTES + self.n_requests * _OBJ_DTYPE.itemsize,
                shape=(self.n_requests,),
            )
        else:
            self._objs = self._clis = None

    def _meta(self, sealed: bool) -> dict:
        # Size-free traces keep writing the historical version-1 header
        # so their files stay byte-identical; only sized traces move to
        # version 2 (and old readers then refuse them loudly).
        meta = {
            "magic": STREAM_MAGIC,
            "version": STREAM_VERSION,
            "n_requests": self.n_requests,
            "n_objects": self.n_objects,
            "n_clients": self.n_clients,
            "name": self.name,
            "sealed": sealed,
        }
        if self.sizes is not None:
            meta["version"] = STREAM_VERSION_SIZED
            meta["sizes"] = True
        return meta

    def append_objects(self, chunk: np.ndarray) -> None:
        """Append one chunk of object ids at the object cursor."""
        chunk = np.asarray(chunk, dtype=_OBJ_DTYPE)
        end = self._obj_cursor + len(chunk)
        if end > self.n_requests:
            raise ValueError("more object ids than the declared n_requests")
        if len(chunk):
            self._objs[self._obj_cursor:end] = chunk
        self._obj_cursor = end

    def append_clients(self, chunk: np.ndarray) -> None:
        """Append one chunk of client ids at the client cursor."""
        chunk = np.asarray(chunk, dtype=_CLI_DTYPE)
        end = self._cli_cursor + len(chunk)
        if end > self.n_requests:
            raise ValueError("more client ids than the declared n_requests")
        if len(chunk):
            self._clis[self._cli_cursor:end] = chunk
        self._cli_cursor = end

    def close(self) -> Path:
        """Flush, verify both streams are complete, seal the header."""
        if self._closed:
            return self.path
        if self._obj_cursor != self.n_requests or self._cli_cursor != self.n_requests:
            raise ValueError(
                f"incomplete trace: {self._obj_cursor}/{self.n_requests} object "
                f"ids, {self._cli_cursor}/{self.n_requests} client ids written"
            )
        if self._objs is not None:
            self._objs.flush()
            self._clis.flush()
            # Release the maps before rewriting the header.
            del self._objs, self._clis
        with self.path.open("r+b") as fh:
            if self.sizes is not None:
                fh.seek(HEADER_BYTES + _body_bytes(self.n_requests))
                fh.write(self.sizes.tobytes())
            fh.seek(0)
            fh.write(_header_bytes(self._meta(sealed=True)))
        self._closed = True
        return self.path


class StreamingTrace(TraceStatistics):
    """Read-only chunked view of an on-disk trace.

    Mirrors the :class:`~repro.workload.trace.Trace` surface the
    simulator and the sizing rules touch — ``len``, ``n_objects``,
    ``n_clients``, ``name``, ``reference_counts`` and the derived
    statistics — while never holding more than one chunk (plus the small
    per-object count array) in memory.
    """

    #: Marks chunk-backed traces; the engine switches to its block loop.
    chunked = True

    def __init__(self, path: str | Path, chunk_requests: int = CHUNK_REQUESTS) -> None:
        if chunk_requests <= 0:
            raise ValueError("chunk_requests must be positive")
        self.path = Path(path)
        self.chunk_requests = int(chunk_requests)
        with self.path.open("rb") as fh:
            raw = fh.read(HEADER_BYTES)
        if len(raw) < HEADER_BYTES or not raw.endswith(b"\n"):
            raise TruncatedTraceError(f"{self.path}: header truncated")
        try:
            meta = json.loads(raw.decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptTraceError(f"{self.path} is not a chunked repro trace") from exc
        if not isinstance(meta, dict) or meta.get("magic") != STREAM_MAGIC:
            raise CorruptTraceError(f"{self.path} is not a chunked repro trace")
        if meta.get("version") not in STREAM_VERSIONS:
            raise CorruptTraceError(
                f"{self.path}: trace version {meta.get('version')!r}, this "
                f"build reads versions {STREAM_VERSIONS}"
            )
        if not meta.get("sealed"):
            raise TruncatedTraceError(
                f"{self.path}: trace was never sealed (writer crashed or is "
                "still running) — refusing a half-written trace"
            )
        counts = [meta.get(k) for k in ("n_requests", "n_objects", "n_clients")]
        if not all(type(n) is int and n >= 0 for n in counts):
            raise CorruptTraceError(f"{self.path} is not a chunked repro trace")
        self.n_requests, self.n_objects, self.n_clients = counts
        self.name = str(meta.get("name", ""))
        self.has_sizes = bool(meta.get("sizes", False))
        n_sized = self.n_objects if self.has_sizes else 0
        expected = HEADER_BYTES + _body_bytes(self.n_requests, n_sized)
        actual = self.path.stat().st_size
        if actual != expected:
            raise TruncatedTraceError(
                f"{self.path}: {actual} bytes on disk, header promises "
                f"{expected} — refusing a truncated trace"
            )
        self._counts: np.ndarray | None = None
        self._sizes: np.ndarray | None = None

    def __len__(self) -> int:
        return self.n_requests

    # -- chunked access ------------------------------------------------------

    def _map(self, dtype: np.dtype, offset: int) -> np.ndarray:
        return np.memmap(
            self.path, dtype=dtype, mode="r", offset=offset, shape=(self.n_requests,)
        )

    def object_slice(self, start: int, stop: int) -> np.ndarray:
        """Copy of ``object_ids[start:stop]`` read straight off disk."""
        start, stop, _ = slice(start, stop).indices(self.n_requests)
        n = max(0, stop - start)
        with self.path.open("rb") as fh:
            fh.seek(HEADER_BYTES + start * _OBJ_DTYPE.itemsize)
            return np.frombuffer(fh.read(n * _OBJ_DTYPE.itemsize), dtype=_OBJ_DTYPE)

    def client_slice(self, start: int, stop: int) -> np.ndarray:
        """Copy of ``client_ids[start:stop]`` read straight off disk."""
        start, stop, _ = slice(start, stop).indices(self.n_requests)
        n = max(0, stop - start)
        base = HEADER_BYTES + self.n_requests * _OBJ_DTYPE.itemsize
        with self.path.open("rb") as fh:
            fh.seek(base + start * _CLI_DTYPE.itemsize)
            return np.frombuffer(fh.read(n * _CLI_DTYPE.itemsize), dtype=_CLI_DTYPE)

    @property
    def sizes(self) -> np.ndarray | None:
        """Per-object byte sizes (version-2 traces; None otherwise).

        A size below one byte is :class:`CorruptTraceError`, as
        :class:`~repro.workload.trace.Trace` refuses it."""
        if not self.has_sizes:
            return None
        if self._sizes is None:
            with self.path.open("rb") as fh:
                fh.seek(HEADER_BYTES + _body_bytes(self.n_requests))
                sizes = np.frombuffer(
                    fh.read(self.n_objects * _OBJ_DTYPE.itemsize), dtype=_OBJ_DTYPE
                )
            if len(sizes) and sizes.min() <= 0:
                at = int(np.flatnonzero(sizes <= 0)[0])
                raise CorruptTraceError(
                    f"{self.path}: object {at} has size {int(sizes[at])}, not positive"
                )
            self._sizes = sizes
        return self._sizes

    def iter_chunks(self):
        """Yield ``(start, object_chunk, client_chunk)`` windows in order."""
        for start in range(0, self.n_requests, self.chunk_requests):
            stop = min(self.n_requests, start + self.chunk_requests)
            yield start, self.object_slice(start, stop), self.client_slice(start, stop)

    # -- Trace-compatible array views (memmap-backed, lazily paged) --------

    @property
    def object_ids(self) -> np.ndarray:
        """Read-only memmap of the full object-id array.

        Exists for API parity with :class:`Trace` (vectorised statistics,
        tests).  Touching all of it pages the whole file in — hot-path
        consumers should prefer :meth:`object_slice`.
        """
        return self._map(_OBJ_DTYPE, HEADER_BYTES)

    @property
    def client_ids(self) -> np.ndarray:
        """Read-only memmap of the full client-id array (see object_ids)."""
        return self._map(
            _CLI_DTYPE, HEADER_BYTES + self.n_requests * _OBJ_DTYPE.itemsize
        )

    # -- statistics (chunked; mirrors Trace) --------------------------------

    def reference_counts(self) -> np.ndarray:
        """Per-object reference counts, accumulated chunk by chunk.

        The same pass refuses an object id outside ``[0, n_objects)`` or
        a client id outside ``[0, n_clients)`` with
        :class:`CorruptTraceError`, naming the first such request.
        """
        if self._counts is None:
            counts = np.zeros(self.n_objects, dtype=np.int64)
            for start, objs, clients in self.iter_chunks():
                self._check_range(start, "object", objs, self.n_objects)
                self._check_range(start, "client", clients, self.n_clients)
                counts += np.bincount(objs, minlength=self.n_objects)
            self._counts = counts
        return self._counts

    def _check_range(self, start: int, what: str, ids: np.ndarray, bound: int) -> None:
        """Refuse the chunk at ``start`` unless every id is in ``[0, bound)``."""
        if ids.min() >= 0 and ids.max() < bound:
            return
        at = int(np.flatnonzero((ids < 0) | (ids >= bound))[0])
        raise CorruptTraceError(
            f"{self.path}: request {start + at} has {what} id {int(ids[at])}, "
            f"outside [0, {bound})"
        )


