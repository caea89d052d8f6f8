"""Greedy-dual replacement (Young 1998) — the policy inside Hier-GD.

The paper builds Hier-GD on the greedy-dual algorithm because "the
greedy-dual algorithm provides some implicit coordination among caches"
(§3, citing Korupolu & Dahlin).  The classical algorithm:

* every cached object carries a credit ``H``;
* on fetch or hit, ``H(obj) = L + cost(obj)`` where ``cost`` is the
  latency paid to retrieve the object and ``L`` is a running inflation
  value;
* on eviction, the object with minimum ``H`` goes, and ``L`` is raised to
  that minimum.

The *efficient implementation* the paper references (its tech report
[22]) is the standard one: never rewrite credits in place — keep absolute
priorities in a lazy-deletion heap and raise the global ``L`` on each
eviction, giving O(log n) per operation.  The implicit coordination
emerges because recently useful objects accumulate credit above ``L``
while untouched ones are overtaken as ``L`` inflates.

With variable object sizes the credit becomes ``L + cost/size``
(GreedyDual-Size, Cao & Irani); unit sizes reduce it to classic GD, which
is what the paper's equal-size assumption exercises.

This is the hottest data structure in the whole simulator (every Hier-GD
proxy and client cache is one), so the cache owns its heap instead of
going through :class:`~repro.cache.heapdict.HeapDict`, with the same lazy
reconciliation over fewer objects.  Each key has one mutable record
``[size, credit, priority, seq, heap_seq]`` in ``_entries``: ``credit``
is ``cost/size`` or ``cost`` (:attr:`credit_by_size`), ``(priority,
seq)`` the live heap key, and ``heap_seq`` the seq of the key's newest
heap entry — the key is in the heap at its live value iff ``heap_seq ==
seq``.  A hit (a raise: ``L`` never decreases) writes ``priority`` and
``seq`` and pushes nothing; the old entry still bounds it from below,
and the eviction loop re-pushes it, with one ``heapreplace``, when it
surfaces.  An eviction deletes the record; heap entries whose record is
gone or superseded are dropped as they surface.  An insert pushes its
entry eagerly, and when its last victim is the live head the pop and
the push are one ``heapreplace``.  Every ``(priority, seq)`` is unique,
so the victims come out in ascending live order whatever the heap's
layout.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import Hashable, Iterator

from .base import Cache

__all__ = ["GreedyDualCache"]


class GreedyDualCache(Cache):
    """Greedy-dual(-size) cache with the O(log n) inflation implementation."""

    __slots__ = (
        "default_cost",
        "credit_by_size",
        "inflation",
        "_entries",
        "_heap",
        "_seq",
        "_used",
    )

    def __init__(
        self,
        capacity: int,
        default_cost: float = 1.0,
        credit_by_size: bool = True,
    ) -> None:
        super().__init__(capacity)
        if default_cost <= 0:
            raise ValueError("default_cost must be positive")
        self.default_cost = default_cost
        #: GDS credit ``L + cost/size`` (Cao & Irani) when True; classic
        #: GD ``L + cost`` when False.  Identical at unit sizes either
        #: way (``cost/1 == cost`` exactly in IEEE arithmetic).
        self.credit_by_size = credit_by_size
        self.inflation = 0.0  # the running value L
        #: key -> [size, credit, priority, seq, heap_seq] (module docstring).
        self._entries: dict[Hashable, list] = {}
        #: Min-heap of (priority, seq, key), reconciled lazily.
        self._heap: list[tuple[float, int, Hashable]] = []
        self._seq = 0
        self._used = 0

    def lookup(self, key: Hashable) -> bool:
        rec = self._entries.get(key)
        if rec is None:
            self.stats.misses += 1
            return False
        # Restore full credit relative to the current inflation value: a
        # raise, so the key's heap entry still bounds it (no push).
        seq = self._seq + 1
        self._seq = seq
        rec[2] = self.inflation + rec[1]
        rec[3] = seq
        self.stats.hits += 1
        return True

    def contains(self, key: Hashable) -> bool:
        return key in self._entries

    def insert(self, key: Hashable, cost: float | None = None, size: int = 1) -> list[Hashable]:
        if size <= 0:
            raise ValueError("size must be positive")
        if cost is None:
            cost = self.default_cost
        if cost <= 0:
            raise ValueError("cost must be positive")
        # A refresh drops the cached copy first: its heap entries go stale,
        # and it is no victim candidate of its own insert.  One that can
        # never fit still drops it — counted as the eviction ``[key]``
        # reports — or the cache would keep serving the old version.
        old = self._entries.pop(key, None)
        if old is not None:
            self._used -= old[0]
            if size > self.capacity:
                self.stats.evictions += 1
        return self.insert_absent(key, cost, size)

    def insert_absent(self, key: Hashable, cost: float, size: int) -> list[Hashable]:
        """:meth:`insert` of a key the caller knows is not cached.

        Hier-GD's engine inserts only objects that just missed (proxy) or
        that no client of the cluster holds (pass-down), at a cost it paid
        itself.  An object larger than the whole cache is rejected
        (``[key]``); room is made by as many victims as it takes (the last
        one may leave free space behind); the credit is ``L + cost/size``
        or ``L + cost`` by :attr:`credit_by_size` (the same at unit size).
        """
        capacity = self.capacity
        if size > capacity:
            return [key]
        entries = self._entries
        hl = self._heap
        stats = self.stats
        used = self._used + size
        seq = self._seq + 1
        self._seq = seq
        credit = cost / size if size != 1 and self.credit_by_size else cost
        evicted: list[Hashable] = []
        if used > capacity:
            inflation = self.inflation
            while True:
                prio, hseq, victim = hl[0]
                rec = entries.get(victim)
                if rec is None:
                    heappop(hl)  # the key is gone
                elif rec[3] != hseq:
                    if rec[4] == rec[3]:
                        heappop(hl)  # its live entry is further down
                    else:
                        # Raised lazily since its newest entry: re-push it.
                        rec[4] = rec[3]
                        heapreplace(hl, (rec[2], rec[3], victim))
                else:
                    del entries[victim]
                    # Eviction raises L to the evicted credit — the dual
                    # update that makes everything else less protected.
                    if prio > inflation:
                        inflation = prio
                    used -= rec[0]
                    evicted.append(victim)
                    stats.evictions += 1
                    if used <= capacity:
                        break
                    heappop(hl)
            self.inflation = inflation
            prio = inflation + credit
            entries[key] = [size, credit, prio, seq, seq]
            heapreplace(hl, (prio, seq, key))  # pops the last victim
        else:
            prio = self.inflation + credit
            entries[key] = [size, credit, prio, seq, seq]
            heappush(hl, (prio, seq, key))
            if len(hl) > (len(entries) << 1) + 8:
                self._compact()
        self._used = used
        stats.insertions += 1
        return evicted

    def _compact(self) -> None:
        """Rebuild the heap from the live records once outdated entries
        outnumber them (invisible: the live order is unchanged)."""
        entries = self._entries
        hl = self._heap
        hl[:] = [(rec[2], rec[3], key) for key, rec in entries.items()]
        heapify(hl)
        for rec in entries.values():
            rec[4] = rec[3]

    def remove(self, key: Hashable) -> bool:
        rec = self._entries.pop(key, None)
        if rec is None:
            return False
        self._used -= rec[0]
        return True

    def __len__(self) -> int:
        return self._used

    def keys(self) -> Iterator[Hashable]:
        return iter(self._entries)
