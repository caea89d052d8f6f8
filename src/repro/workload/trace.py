"""Compact in-memory request-trace container.

A trace is the sequence of HTTP requests one *client cluster* (the clients
behind one proxy) issues: for each request, which client issued it and
which object it addresses.  Objects are dense integer indices (the
simulator's hot-path currency); URL strings exist only at the overlay
boundary where SHA-1 objectIds are required, via :func:`object_url`.

The container is numpy-backed (two parallel int arrays), so a paper-scale
trace (10⁶ requests) is ~12 MB and trace statistics (reference counts,
one-timer fraction, the paper's *infinite cache size*) are vectorised.

The paper defines **infinite cache size** as "the number of distinct
objects that are accessed more than once by clients in a client cluster"
(§5.1); proxy cache sizes in every figure are percentages of this
quantity, so it is computed here, per trace, by :class:`TraceStatistics`
— the one copy of the count-derived statistics, which the on-disk
:class:`~repro.workload.stream.StreamingTrace` reads too.  The one
workload file format is that chunked binary container.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Trace", "TraceStatistics", "object_url"]


def object_url(object_id: int) -> str:
    """Canonical URL for a simulated object (stable across the run)."""
    return f"http://origin.example/obj/{object_id}"


class TraceStatistics:
    """The count-derived statistics both trace containers share.

    A container supplies ``reference_counts()`` (per-object counts over
    the whole trace) and ``sizes`` (per-object bytes or ``None``); the
    in-memory :class:`Trace` and the on-disk
    :class:`~repro.workload.stream.StreamingTrace` differ only in how
    they count.
    """

    __slots__ = ()

    @property
    def distinct_objects(self) -> int:
        return int((self.reference_counts() > 0).sum())

    @property
    def infinite_cache_size(self) -> int:
        """Distinct objects referenced more than once (paper §5.1)."""
        return int((self.reference_counts() > 1).sum())

    @property
    def infinite_cache_bytes(self) -> int:
        """Bytes of the objects referenced more than once — the §5.1
        *infinite cache size* denominated in bytes when the trace carries
        per-object sizes (each such object counts 1 otherwise)."""
        mask = self.reference_counts() > 1
        sizes = self.sizes
        if sizes is None:
            return int(mask.sum())
        return int(sizes[mask].sum())

    @property
    def one_timer_fraction(self) -> float:
        """Fraction of *referenced* objects that are referenced exactly once."""
        counts = self.reference_counts()
        total = int((counts > 0).sum())
        if total == 0:
            return 0.0
        return float((counts == 1).sum() / total)

    def frequency_table(self) -> dict[int, int]:
        """Reference counts as a dict (the FC frequency oracle's input)."""
        counts = self.reference_counts()
        nz = np.nonzero(counts)[0]
        return dict(zip(nz.tolist(), counts[nz].tolist()))


@dataclass
class Trace(TraceStatistics):
    """One client cluster's request stream.

    Attributes
    ----------
    object_ids:
        Requested object index per request (int64, dense in [0, n_objects)).
    client_ids:
        Issuing client index per request (int32, dense in [0, n_clients)).
    n_objects:
        Size of the object universe the ids are drawn from.
    n_clients:
        Number of clients in the cluster.
    name:
        Free-form label (workload family, seed) for reports.
    sizes:
        Optional per-*object* byte sizes (int64, length ``n_objects``).
        ``None`` — the default, and the paper's equal-size assumption —
        means every object counts as one unit and capacities stay
        denominated in objects.
    """

    object_ids: np.ndarray
    client_ids: np.ndarray
    n_objects: int
    n_clients: int
    name: str = ""
    sizes: np.ndarray | None = None
    _counts: np.ndarray | None = field(default=None, repr=False, compare=False)

    #: In-memory traces are not chunk-backed; the engine's block loop
    #: keys off this flag (see :class:`repro.workload.stream.StreamingTrace`).
    chunked = False

    def __post_init__(self) -> None:
        self.object_ids = np.ascontiguousarray(self.object_ids, dtype=np.int64)
        self.client_ids = np.ascontiguousarray(self.client_ids, dtype=np.int32)
        if self.object_ids.shape != self.client_ids.shape:
            raise ValueError("object_ids and client_ids must have equal length")
        if self.object_ids.ndim != 1:
            raise ValueError("trace arrays must be 1-D")
        if len(self.object_ids) and (
            self.object_ids.min() < 0 or self.object_ids.max() >= self.n_objects
        ):
            raise ValueError("object ids out of range")
        if len(self.client_ids) and (
            self.client_ids.min() < 0 or self.client_ids.max() >= self.n_clients
        ):
            raise ValueError("client ids out of range")
        if self.sizes is not None:
            self.sizes = np.ascontiguousarray(self.sizes, dtype=np.int64)
            if self.sizes.shape != (self.n_objects,):
                raise ValueError(
                    f"sizes must have one entry per object ({self.n_objects}), "
                    f"got shape {self.sizes.shape}"
                )
            if len(self.sizes) and self.sizes.min() <= 0:
                raise ValueError("object sizes must be positive")

    def __len__(self) -> int:
        return len(self.object_ids)

    # -- statistics ---------------------------------------------------------

    def reference_counts(self) -> np.ndarray:
        """Per-object reference counts over the whole trace (cached)."""
        if self._counts is None:
            self._counts = np.bincount(self.object_ids, minlength=self.n_objects)
        return self._counts

    # -- windowed access (API parity with StreamingTrace) --------------------

    def object_slice(self, start: int, stop: int) -> np.ndarray:
        """``object_ids[start:stop]`` (a view; no copy for in-memory traces)."""
        return self.object_ids[start:stop]

    def client_slice(self, start: int, stop: int) -> np.ndarray:
        """``client_ids[start:stop]`` (a view; no copy for in-memory traces)."""
        return self.client_ids[start:stop]


