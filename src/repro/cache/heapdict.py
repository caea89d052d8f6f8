"""Addressable min-heap with lazy deletion — the policies' shared engine.

LFU, cost-benefit, the top-k tracker and the tiered unified cache all
need the same primitive: a priority queue whose entries' priorities
change as objects are referenced, with O(log n) update and O(log n)
amortised pop.  (Greedy-dual, the hottest policy, keeps the same lazy
scheme in one record per key of its own instead, :mod:`.greedy_dual`.)
Rebuilding a ``heapq`` on every priority change would be O(n); instead
the live ``(priority, seq)`` per key is kept in a dict and the heap is
reconciled lazily — the standard technique, factored out here once so
every policy stays thin and the (subtle) staleness logic is tested in
one place.

Priorities are ``(primary, tiebreak)`` pairs; the tiebreak is a
monotonically increasing sequence number, giving FIFO order among equal
priorities (for LFU this makes eviction among equal frequencies
least-recently-*updated* first, matching the classic policy).

**Lazy reinsertion.**  Cache hits dominate pushes, and a hit only ever
*raises* its key's priority (LFU counts grow; so do greedy-dual's
credits, ``L + cost/size`` with ``L`` non-decreasing).  A raise
therefore does not need a heap entry at all: the key's existing (lower)
entry still bounds it from below, so ``push`` just updates the live dict
and the pop loop re-pushes the key at its current value when the
outdated entry surfaces.  Each live record
carries an ``in_heap`` flag marking whether an entry at exactly its
``(priority, seq)`` exists in the heap; pops drop entries whose record
is missing or already superseded by a re-push, and re-push the ones
flagged lazy.  A push that *lowers* a key's priority cannot rely on the
old bound and goes to the heap eagerly — so arbitrary priority sequences
stay correct, monotone ones just get the cheap path.

The popped victim sequence is exactly the ascending order of live
``(priority, seq)`` pairs either way: every live key always has a heap
entry ≤ its live pair, so the first head that matches its live record is
the true minimum.  *When* entries are materialised is semantically
invisible, which is also why compaction (rebuilding the heap from the
live dict when outdated entries pile up) can trigger on a simple size
ratio.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Hashable, Iterator

__all__ = ["HeapDict"]


class HeapDict:
    """Min-priority queue with by-key addressing and lazy reconciliation."""

    __slots__ = ("_heap", "_live", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Hashable]] = []
        # key -> (priority, seq, in_heap); see module docstring.
        self._live: dict[Hashable, tuple[float, int, bool]] = {}
        self._seq = 0

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._live

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._live)

    def priority(self, key: Hashable) -> float:
        """Current priority of ``key`` (KeyError if absent)."""
        return self._live[key][0]

    def push(self, key: Hashable, priority: float) -> None:
        """Insert or update ``key`` at ``priority``."""
        live = self._live
        seq = self._seq + 1
        self._seq = seq
        old = live.get(key)
        if old is None or priority < old[0]:
            # New key, or a priority drop: the heap needs a real entry
            # (nothing in it bounds the new value from below).
            live[key] = (priority, seq, True)
            heap = self._heap
            heappush(heap, (priority, seq, key))
            if len(heap) > (len(live) << 1) + 8:
                self._compact()
        else:
            # Raise (or equal re-touch): the key's existing entry is a
            # lower bound — record the new value, reconcile at pop time.
            live[key] = (priority, seq, False)

    def discard(self, key: Hashable) -> bool:
        """Remove ``key`` if present (lazily); True if it was present."""
        if key in self._live:
            del self._live[key]
            return True
        return False

    def _materialize_min(self) -> bool:
        """Make the heap head the live minimum; False when empty.

        Drops heads whose key is gone or already re-pushed, and re-pushes
        keys whose live value was raised lazily.
        """
        heap = self._heap
        live = self._live
        while heap:
            _prio, seq, key = heap[0]
            rec = live.get(key)
            if rec is not None and rec[1] == seq:
                return True
            heappop(heap)
            if rec is not None and not rec[2]:
                live[key] = (rec[0], rec[1], True)
                heappush(heap, (rec[0], rec[1], key))
        return False

    def peek_min(self) -> tuple[Hashable, float]:
        """(key, priority) of the minimum without removing it."""
        if not self._materialize_min():
            raise KeyError("peek_min on empty HeapDict")
        prio, _seq, key = self._heap[0]
        return key, prio

    def pop_min(self) -> tuple[Hashable, float]:
        """Remove and return (key, priority) of the minimum."""
        if not self._materialize_min():
            raise KeyError("pop_min on empty HeapDict")
        prio, _seq, key = heappop(self._heap)
        del self._live[key]
        return key, prio

    def _compact(self) -> None:
        live = self._live
        self._heap = heap = [(p, s, k) for k, (p, s, _f) in live.items()]
        heapify(heap)
        for k, rec in live.items():
            if not rec[2]:
                live[k] = (rec[0], rec[1], True)

    def clear(self) -> None:
        self._heap.clear()
        self._live.clear()
