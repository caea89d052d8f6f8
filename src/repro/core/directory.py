"""Proxy-side lookup directory for the P2P client cache (paper §4.2).

"The local proxy needs to maintain a directory of cached objects in its
P2P client cache for lookup."  The paper proposes two representations:

* **Exact-Directory** — "a hashtable composed of the objectIds of all the
  cached objects in a P2P client cache"; precise, memory ∝ 16 bytes per
  entry (a 128-bit objectId), no false positives.
* **Bloom Filter** — "a tradeoff between the memory requirement and the
  false positive ratio (which induces false indications that the
  requested objects are in the P2P client cache)".  False positives make
  the proxy redirect a request into the P2P cache for nothing — a wasted
  ``Tp2p`` round the simulator charges explicitly.

Both are updated by the same events (store receipts add entries, client
eviction notices delete them, §4.3), so the directory never *misses* an
object that is present — only the Bloom variant can claim presence
falsely.  Deletion support is why the Bloom variant uses a *counting*
filter.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Hashable

from ..bloom import CountingBloomFilter

__all__ = [
    "LookupDirectory",
    "ExactDirectory",
    "BloomDirectory",
    "LossyDirectory",
    "make_directory",
]

#: Bytes per Exact-Directory entry: one SHA-1-derived 128-bit objectId.
_OBJECT_ID_BYTES = 16


class LookupDirectory(ABC):
    """Interface the proxy queries before redirecting into the P2P cache.

    A directory is its innermost membership structure — the exact set,
    or the counting filter — and the three calls the proxy makes on it,
    each bound at construction to the structure's own method wherever no
    logic sits in between: a probe, a store receipt or a notice is then
    one call, however many layers wrap the directory.
    """

    def __init__(
        self,
        members: Any,
        add: Callable[[Hashable], Any],
        remove: Callable[[Hashable], Any],
        repair: Callable[[Hashable], Any] | None = None,
    ) -> None:
        #: The innermost membership structure: ``obj in members`` answers
        #: exactly as ``obj in directory`` does.
        self.members = members
        #: Record a store receipt for an object.
        self.add = add
        #: Process an eviction notice for an object.
        self.remove = remove
        #: Proxy-local fix of a stale entry a failed lookup discovered:
        #: ``remove``, except where notices are lossy (a repair is no
        #: message and is never lost).
        self.repair = remove if repair is None else repair

    def __contains__(self, obj: Hashable) -> bool:
        """May the P2P cache hold ``obj``? (Bloom: possibly falsely yes.)"""
        return obj in self.members

    @abstractmethod
    def __len__(self) -> int:
        """Entries currently tracked."""

    @abstractmethod
    def memory_bytes(self) -> int:
        """Memory footprint of the representation (the §4.2 tradeoff)."""


class ExactDirectory(LookupDirectory):
    """Precise hashtable of objectIds."""

    def __init__(self) -> None:
        entries: set[Hashable] = set()
        super().__init__(entries, entries.add, entries.discard)

    def __len__(self) -> int:
        return len(self.members)

    def memory_bytes(self) -> int:
        return _OBJECT_ID_BYTES * len(self.members)


class BloomDirectory(LookupDirectory):
    """Counting-Bloom-filter directory: smaller, occasionally over-claims."""

    def __init__(self, capacity: int, fp_rate: float = 0.01) -> None:
        counts = CountingBloomFilter(capacity=max(1, capacity), fp_rate=fp_rate)
        super().__init__(counts, counts.add, counts.discard)

    def __len__(self) -> int:
        return self.members.count

    def memory_bytes(self) -> int:
        return self.members.memory_bytes()


class LossyDirectory(LookupDirectory):
    """A directory whose *eviction notices* are dropped probabilistically.

    Models the stale-entry failure mode beyond Bloom false positives
    (:mod:`repro.faults`): the client → proxy eviction notice (§4.3) is a
    network message, so under faults it can be lost — the entry then
    lingers and claims presence of a dead object until a lookup chases it,
    pays the wasted round and repairs it.  Store receipts are deliberately
    *not* lossy: a dropped receipt would make the directory miss a live
    object, which the paper's design rules out ("the directory never
    misses ... only claims falsely") and which would silently *reduce*
    load rather than model failure.

    Wraps any concrete directory; ``rng`` must be a dedicated substream
    (see :meth:`repro.faults.injector.FaultInjector.stream`) so drops are
    deterministic per plan seed.  A receipt and a repair are the inner
    directory's own calls; a notice is one call here in front of the
    inner removal.
    """

    def __init__(self, inner: LookupDirectory, drop_prob: float, rng) -> None:
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError("drop_prob must be in [0, 1]")
        # The proxy fixing its own table is local — never lost.
        super().__init__(inner.members, inner.add, self._notice, repair=inner.remove)
        self.inner = inner
        self.drop_prob = drop_prob
        self._random = rng.random
        #: Eviction notices lost so far (each leaves one stale entry).
        self.dropped_notices = 0

    def _notice(self, obj: Hashable) -> None:
        """An eviction notice that a fault may drop on its way."""
        if self._random() < self.drop_prob:
            self.dropped_notices += 1
            return
        self.repair(obj)

    def __len__(self) -> int:
        return len(self.inner)

    def memory_bytes(self) -> int:
        return self.inner.memory_bytes()


def make_directory(kind: str, capacity: int, fp_rate: float = 0.01) -> LookupDirectory:
    """Directory factory keyed by :attr:`SimulationConfig.directory`."""
    if kind == "exact":
        return ExactDirectory()
    if kind == "bloom":
        return BloomDirectory(capacity=capacity, fp_rate=fp_rate)
    raise ValueError(f"unknown directory kind {kind!r}")
