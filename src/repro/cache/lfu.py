"""Least-Frequently-Used replacement (NC, SC, NC-EC, SC-EC in the paper).

The paper states "the caching schemes NC, NC-EC, SC and SC-EC employ LFU
cache replacement to minimize access latency" (§2).  Two classic LFU
flavours exist and the tech report detailing the authors' choice is
unavailable, so both are implemented (DESIGN.md §5):

* **Perfect-LFU** (default, ``reset_on_evict=False``): reference counts
  persist across evictions and count every reference (hit or miss).  This
  matches the paper's upper-bound methodology — it is the variant
  "minimizing access latency" given full frequency knowledge accumulates.
* **In-Cache-LFU** (``reset_on_evict=True``): a count lives only while the
  object is cached and restarts at 1 on re-insertion.

Eviction: minimum count, ties broken least-recently-updated first.
All operations O(log n) via :class:`~repro.cache.heapdict.HeapDict`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Hashable, Iterator

from .base import Cache
from .heapdict import HeapDict

__all__ = ["LfuCache"]


class LfuCache(Cache):
    """LFU cache; see module docstring for the two counting modes."""

    __slots__ = ("reset_on_evict", "_freq", "_sizes", "_heap", "_used")

    def __init__(self, capacity: int, reset_on_evict: bool = False) -> None:
        super().__init__(capacity)
        self.reset_on_evict = reset_on_evict
        self._freq: dict[Hashable, int] = {}
        self._sizes: dict[Hashable, int] = {}
        self._heap = HeapDict()
        self._used = 0

    def frequency(self, key: Hashable) -> int:
        """Current reference count known for ``key`` (0 if never seen)."""
        return self._freq.get(key, 0)

    def lookup(self, key: Hashable) -> bool:
        freq = self._freq
        if key in self._sizes:
            f = freq[key] + 1  # cached keys always have a count
            freq[key] = f
            # Count bumps are monotone: take the lazy heap's no-push path
            # (inlined HeapDict.push raise branch, friend access).
            heap = self._heap
            seq = heap._seq + 1
            heap._seq = seq
            heap._live[key] = (f, seq, False)
            self.stats.hits += 1
            return True
        # A miss is still a reference under perfect counting.
        if not self.reset_on_evict:
            freq[key] = freq.get(key, 0) + 1
        self.stats.misses += 1
        return False

    def lookup_or_insert(
        self, key: Hashable, cost: float = 1.0, size: int = 1
    ) -> tuple[bool, list[Hashable]]:
        """``lookup``, then ``insert`` on a miss, in one frame.

        This is the cache's one admission of an absent key (``insert``
        comes here too): the count, the victim loop with
        ``HeapDict.pop_min``'s lazy re-pushes, and the new key's eager
        heap push, all by friend access to the heap.  The ``while`` loop
        serves every size; both counting modes share it.
        """
        freq = self._freq
        heap = self._heap
        sizes = self._sizes
        if key in sizes:
            f = freq[key] + 1
            freq[key] = f
            # Same monotone no-push refresh as ``lookup``.
            seq = heap._seq + 1
            heap._seq = seq
            heap._live[key] = (f, seq, False)
            self.stats.hits += 1
            return True, []
        stats = self.stats
        stats.misses += 1
        # The count the key is admitted at: an absent key has none under
        # in-cache counting, so both modes take one more than they hold.
        f = freq.get(key, 0) + 1
        reset = self.reset_on_evict
        if not reset:
            freq[key] = f  # a miss is a reference, admitted or not
        capacity = self.capacity
        if not 0 < size <= capacity:
            if size <= 0:
                raise ValueError("size must be positive")
            return False, [key]
        freq[key] = f
        live = heap._live
        entries = heap._heap
        used = self._used + size
        evicted: list[Hashable] = []
        while used > capacity:
            # HeapDict.pop_min: drop heads whose key is gone or already
            # re-pushed, re-push lazily raised ones, pop the live minimum.
            # A resident exists (``size <= capacity``), so a head does too.
            while True:
                _prio, vseq, victim = entries[0]
                rec = live.get(victim)
                if rec is not None and rec[1] == vseq:
                    break
                heappop(entries)
                if rec is not None and not rec[2]:
                    live[victim] = (rec[0], rec[1], True)
                    heappush(entries, (rec[0], rec[1], victim))
            heappop(entries)
            del live[victim]
            used -= sizes.pop(victim)
            if reset:
                del freq[victim]
            evicted.append(victim)
        stats.evictions += len(evicted)
        sizes[key] = size
        self._used = used
        # HeapDict.push of a key it does not hold: an eager entry.
        seq = heap._seq + 1
        heap._seq = seq
        live[key] = (f, seq, True)
        heappush(entries, (f, seq, key))
        if len(entries) > (len(live) << 1) + 8:
            heap._compact()
        stats.insertions += 1
        return False, evicted

    def contains(self, key: Hashable) -> bool:
        return key in self._sizes

    def insert(self, key: Hashable, cost: float = 1.0, size: int = 1) -> list[Hashable]:
        if size <= 0:
            raise ValueError("size must be positive")
        sizes = self._sizes
        freq = self._freq
        if key in sizes:  # re-insert: refresh size accounting only
            self._used -= sizes.pop(key)
            # The key's stale heap entry must not be a victim candidate
            # (its bytes are already uncharged and it left the size table).
            self._heap.discard(key)
            if size > self.capacity:
                # A refresh that grew past capacity drops the stale copy
                # instead of keeping it cached while reporting it evicted.
                if self.reset_on_evict:
                    freq.pop(key, None)
                self.stats.evictions += 1
                return [key]
        elif size > self.capacity:
            return [key]
        # An insert is not a reference: the key keeps the count it has (1
        # at first sighting, e.g. a pass-down in Hier-GD tests).  Admit it
        # through ``lookup_or_insert``'s miss, which counts one reference
        # and one miss more -- both taken back here first.
        freq[key] = freq.get(key, 1) - 1
        self.stats.misses -= 1
        return self.lookup_or_insert(key, cost, size)[1]

    def remove(self, key: Hashable) -> bool:
        size = self._sizes.pop(key, None)
        if size is None:
            return False
        self._used -= size
        self._heap.discard(key)
        if self.reset_on_evict:
            self._freq.pop(key, None)
        return True

    def __len__(self) -> int:
        return self._used

    def keys(self) -> Iterator[Hashable]:
        return iter(self._sizes)
