"""Common cache interface shared by every replacement policy.

The paper's schemes plug four replacement policies into the same simulator
slots: LRU (reference point), LFU (NC/SC and their -EC variants),
greedy-dual (proxy and client caches in Hier-GD) and cost-benefit (FC /
FC-EC upper bounds).  All of them implement :class:`Cache`:

``lookup(key)``
    Hit test *with* policy bookkeeping (recency/frequency/priority
    update).  Returns True on hit.
``contains(key)``
    Pure membership test, no bookkeeping — used by cooperating proxies
    probing each other's caches (probing is not a local reference).
``insert(key, cost=..., size=...)``
    Add an object after a miss fetch; returns the list of evicted keys
    (possibly empty, possibly the key itself if it cannot fit).
``remove(key)``
    Explicit invalidation.

Objects have unit size by default (the paper's simplifying assumption
"all the objects have the same size", §5.1); policies that support
variable sizes accept ``size=`` and account capacity in size units.

Keys are arbitrary hashables; the simulator uses small ints (object
indices) on the hot path and 128-bit objectIds in the overlay layer.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Iterator

__all__ = ["Cache", "CacheStats"]


class CacheStats:
    """Hit/miss/eviction counters every policy maintains uniformly."""

    __slots__ = ("hits", "misses", "insertions", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        acc = self.accesses
        return self.hits / acc if acc else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheStats(hits={self.hits}, misses={self.misses}, evictions={self.evictions})"


class Cache(ABC):
    """Abstract replacement policy over a fixed-capacity object store."""

    __slots__ = ("capacity", "stats")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self.stats = CacheStats()

    # -- required policy hooks -------------------------------------------

    @abstractmethod
    def lookup(self, key: Hashable) -> bool:
        """Reference ``key``: True on hit (with policy bookkeeping)."""

    @abstractmethod
    def contains(self, key: Hashable) -> bool:
        """Membership probe without policy side effects."""

    @abstractmethod
    def insert(self, key: Hashable, cost: float = 1.0, size: int = 1) -> list[Hashable]:
        """Store ``key`` (fetched at ``cost``); return evicted keys."""

    @abstractmethod
    def remove(self, key: Hashable) -> bool:
        """Drop ``key`` if present; True if it was cached."""

    @abstractmethod
    def __len__(self) -> int:
        """Current occupancy in size units."""

    @abstractmethod
    def keys(self) -> Iterator[Hashable]:
        """Iterate over cached keys (order unspecified)."""

    # -- shared conveniences ----------------------------------------------

    def lookup_or_insert(
        self, key: Hashable, cost: float = 1.0, size: int = 1
    ) -> tuple[bool, list[Hashable]]:
        """Fused lookup-then-insert-on-miss: ``(hit, evicted)``.

        Behaviourally identical to ``lookup(key)`` followed (on a miss) by
        ``insert(key, cost, size)``; policies override it to do the hit
        path with a single dict probe instead of two.
        """
        if self.lookup(key):
            return True, []
        return False, self.insert(key, cost=cost, size=size)

    def insert_absent(self, key: Hashable, cost: float, size: int) -> list[Hashable]:
        """:meth:`insert` of a key the caller knows is not cached; policies
        override it to skip the refresh case (greedy-dual does)."""
        return self.insert(key, cost, size)

    def __contains__(self, key: Hashable) -> bool:
        return self.contains(key)

    @property
    def free_space(self) -> int:
        return max(0, self.capacity - len(self))

    def clear(self) -> None:
        """Drop all contents (stats preserved)."""
        for key in list(self.keys()):
            self.remove(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(capacity={self.capacity}, len={len(self)})"
