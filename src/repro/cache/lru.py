"""Least-Recently-Used replacement.

Not used by any scheme in the paper's headline results, but (a) ProWGen's
temporal-locality model is defined in terms of an LRU stack, (b) LRU is the
standard reference policy the paper's related work compares against, and
(c) the test suite uses it as a behavioural baseline for the fancier
policies.  Implemented over a ``dict`` (insertion-ordered, O(1)
move-to-back via delete+reinsert).
"""

from __future__ import annotations

from typing import Hashable, Iterator

from .base import Cache

__all__ = ["LruCache"]


class LruCache(Cache):
    """Classic LRU with optional variable object sizes."""

    __slots__ = ("_entries", "_used")

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._entries: dict[Hashable, int] = {}  # key -> size, MRU last
        self._used = 0

    def lookup(self, key: Hashable) -> bool:
        size = self._entries.pop(key, None)
        if size is None:
            self.stats.misses += 1
            return False
        self._entries[key] = size  # move to MRU position
        self.stats.hits += 1
        return True

    def lookup_or_insert(
        self, key: Hashable, cost: float = 1.0, size: int = 1
    ) -> tuple[bool, list[Hashable]]:
        """``lookup``, then ``insert`` on a miss, in one frame: the cache's
        one admission of an absent key (``insert`` comes here too)."""
        entries = self._entries
        stats = self.stats
        found = entries.pop(key, None)
        if found is not None:
            entries[key] = found  # move to MRU position
            stats.hits += 1
            return True, []
        stats.misses += 1
        capacity = self.capacity
        if not 0 < size <= capacity:
            if size <= 0:
                raise ValueError("size must be positive")
            # Cannot ever fit: reject (callers treat the key as uncached).
            return False, [key]
        used = self._used + size
        evicted: list[Hashable] = []
        while used > capacity:
            victim = next(iter(entries))  # the LRU end
            used -= entries.pop(victim)
            evicted.append(victim)
        stats.evictions += len(evicted)
        entries[key] = size
        self._used = used
        stats.insertions += 1
        return False, evicted

    def contains(self, key: Hashable) -> bool:
        return key in self._entries

    def insert(self, key: Hashable, cost: float = 1.0, size: int = 1) -> list[Hashable]:
        if size <= 0:
            raise ValueError("size must be positive")
        if size > self.capacity:
            # Cannot ever fit: reject (callers treat the key as uncached).
            return [key]
        old = self._entries.pop(key, None)
        if old is not None:  # re-insert: refresh size accounting only
            self._used -= old
        # An insert is not a lookup: take back the miss the admission counts.
        self.stats.misses -= 1
        return self.lookup_or_insert(key, cost, size)[1]

    def remove(self, key: Hashable) -> bool:
        size = self._entries.pop(key, None)
        if size is None:
            return False
        self._used -= size
        return True

    def __len__(self) -> int:
        return self._used

    def keys(self) -> Iterator[Hashable]:
        return iter(self._entries)
