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
proxy and client cache is one), so the hit path reaches into the friend
:class:`~repro.cache.heapdict.HeapDict` internals to push without a
method call — the pushed ``(priority, seq)`` entries are identical to
what ``HeapDict.push`` would produce.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Hashable, Iterator

from .base import Cache
from .heapdict import HeapDict

__all__ = ["GreedyDualCache"]


class GreedyDualCache(Cache):
    """Greedy-dual(-size) cache with the O(log n) inflation implementation."""

    __slots__ = (
        "default_cost",
        "credit_by_size",
        "inflation",
        "_entries",
        "_heap",
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
        #: key -> (size, credit): the credit is ``cost/size`` or ``cost``
        #: by :attr:`credit_by_size`, worked out once per insert (and
        #: without a division at unit size, where the two are equal).
        self._entries: dict[Hashable, tuple[int, float]] = {}
        self._heap = HeapDict()
        self._used = 0

    def credit(self, key: Hashable) -> float:
        """Current absolute credit H of a cached key (KeyError if absent)."""
        return self._heap.priority(key)

    def lookup(self, key: Hashable) -> bool:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return False
        # Restore full credit relative to the current inflation value.
        # The refresh is monotone (L never decreases and the credit is
        # fixed while cached), so the lazy heap's no-push path applies:
        # record the new (priority, seq) in the live dict and let the pop
        # loop reconcile (inlined HeapDict.push raise branch).
        heap = self._heap
        seq = heap._seq + 1
        heap._seq = seq
        heap._live[key] = (self.inflation + entry[1], seq, False)
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
        entries = self._entries
        used = self._used
        old = entries.pop(key, None)
        if old is not None:
            used -= old[0]
        if size > self.capacity:
            # The object cannot fit at any eviction cost.  Any stale copy
            # under the same key (a refresh-insert that grew past the
            # capacity) must still be dropped — its bytes are already
            # uncharged above — or the cache would keep serving the old
            # version while reporting the key evicted.
            if old is not None:
                self._heap.discard(key)
                self._used = used
                self.stats.evictions += 1
            return [key]
        evicted: list[Hashable] = []
        capacity = self.capacity
        heap = self._heap
        live = heap._live
        hl = heap._heap
        if used + size > capacity:
            if old is not None:
                # A refresh-insert that grew needs evictions; the key's
                # own stale heap entry must not be a victim candidate —
                # its bytes are already uncharged and it left entries.
                heap.discard(key)
            # Inlined HeapDict.pop_min (friend access): pop heads,
            # dropping outdated entries and re-pushing lazily-raised keys
            # exactly as ``_materialize_min`` would, until enough live
            # victims are evicted.  The victim sequence is identical to
            # repeated ``pop_min`` calls.
            inflation = self.inflation
            stats = self.stats
            while used + size > capacity:
                prio, seq, victim = heappop(hl)
                rec = live.get(victim)
                if rec is None:
                    continue
                if rec[1] != seq:
                    if not rec[2]:
                        live[victim] = (rec[0], rec[1], True)
                        heappush(hl, (rec[0], rec[1], victim))
                    continue
                del live[victim]
                # Eviction raises L to the evicted credit — the dual
                # update that makes everything else less protected.
                if prio > inflation:
                    inflation = prio
                used -= entries.pop(victim)[0]
                evicted.append(victim)
                stats.evictions += 1
            self.inflation = inflation
        credit = cost / size if size != 1 and self.credit_by_size else cost
        entries[key] = (size, credit)
        # Inlined HeapDict.push.  A refresh-insert may *lower* the credit
        # (a cheaper re-fetch), so unlike ``lookup`` this keeps the
        # eager/lazy comparison.
        seq = heap._seq + 1
        heap._seq = seq
        prio = self.inflation + credit
        old = live.get(key)
        if old is None or prio < old[0]:
            live[key] = (prio, seq, True)
            heappush(hl, (prio, seq, key))
            if len(hl) > (len(live) << 1) + 8:
                heap._compact()
        else:
            live[key] = (prio, seq, False)
        self._used = used + size
        self.stats.insertions += 1
        return evicted

    def insert_absent(self, key: Hashable, cost: float, size: int) -> list[Hashable]:
        """:meth:`insert` of a key the caller knows is not cached.

        Hier-GD's engine inserts only objects that just missed (proxy) or
        that no client of the cluster holds (pass-down), at a cost it paid
        itself — so the refresh branch and the eager/lazy credit
        comparison of :meth:`insert` collapse.  Its size handling stays:
        an object larger than the whole cache is rejected (``[key]``),
        room is made by as many victims as it takes (the last one may
        leave free space behind), and the credit is ``L + cost/size`` or
        ``L + cost`` by :attr:`credit_by_size` (the same at unit size).
        Same victims, heap entries and statistics as
        ``insert(key, cost=cost, size=size)``.
        """
        capacity = self.capacity
        if size > capacity:
            return [key]
        entries = self._entries
        used = self._used + size
        heap = self._heap
        live = heap._live
        hl = heap._heap
        inflation = self.inflation
        stats = self.stats
        evicted: list[Hashable] = []
        while used > capacity:
            # HeapDict's lazy reconciliation, as in ``insert``.
            prio, seq, victim = heappop(hl)
            rec = live.get(victim)
            if rec is None:
                continue
            if rec[1] != seq:
                if not rec[2]:
                    live[victim] = (rec[0], rec[1], True)
                    heappush(hl, (rec[0], rec[1], victim))
                continue
            del live[victim]
            if prio > inflation:
                inflation = prio
            used -= entries.pop(victim)[0]
            evicted.append(victim)
            stats.evictions += 1
        self.inflation = inflation
        credit = cost / size if size != 1 and self.credit_by_size else cost
        entries[key] = (size, credit)
        seq = heap._seq + 1
        heap._seq = seq
        prio = inflation + credit
        live[key] = (prio, seq, True)
        heappush(hl, (prio, seq, key))
        if len(hl) > (len(live) << 1) + 8:
            heap._compact()
        self._used = used
        stats.insertions += 1
        return evicted

    def remove(self, key: Hashable) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._used -= entry[0]
        self._heap.discard(key)
        return True

    def __len__(self) -> int:
        return self._used

    def keys(self) -> Iterator[Hashable]:
        return iter(self._entries)
