"""Top-K membership tracking over a dynamic valued set.

FC-EC needs to know, for every cached copy in a cluster, whether it sits
in the *proxy tier* (the cluster's S most valuable copies, hits at
``Tl``) or in the *client tier* (the rest, hits at ``Tl + Tp2p``), while
the copy set and copy values change as the coordinated replacement runs.

:class:`TopKTracker` maintains exactly that partition with two lazy
heaps: a min-heap over the top-K ("who gets demoted first") and a
max-heap over the rest ("who gets promoted first").  All operations are
O(log n); the balance invariant ``len(top) == min(k, total)`` is restored
after every mutation.

**Count mode needs no rebalance loop.**  Between calls the partition
rests at ``len(top) == min(k, n)`` and ``min(top) >= max(rest)``, and
every mutation changes one key, so at most one swap restores it:

(a) a value raise of a top key cannot change the partition — it is the
    heap's lazy raise (one dict write, no heap operation);
(b) a new key or a rest key at value ``v`` is compared with the top's
    minimum once: ``v <= min`` leaves it in the rest, ``v > min`` makes it
    the *unique* best of the rest (all others are ``<= min < v``), so it
    trades places with the top's minimum without visiting the rest heap;
(c) a value drop inside the top trades the key for the best of the rest
    if that now beats it (every other top key still does not lose to it);
(d) removing a top key promotes the best of the rest, removing a rest
    key moves nothing.

Every heap move of count mode is made by friend access, as the LFU's
hit path makes its own: a loop stands for ``HeapDict._materialize_min``
and a dict write plus ``heappush`` for ``HeapDict.push``, so a mutation
enters no ``HeapDict`` frame but the rare ``_compact``.  Where a key sits
is :meth:`TopKTracker.in_top` (the schemes read ``_top._live``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Hashable, Iterator

from .heapdict import HeapDict

__all__ = ["TopKTracker"]


class TopKTracker:
    """Partition a dynamic ``{key: value}`` set into top-K and rest.

    Two partition rules:

    * **count mode** (default): the top partition holds the ``k`` most
      valuable keys — the paper's equal-size reading, where a proxy tier
      of S objects holds exactly S copies.
    * **byte-budget mode** (``budget`` given): keys carry sizes and the
      top partition greedily holds the most valuable keys whose summed
      sizes fit ``budget`` — the size-aware proxy tier.  Greedy by value:
      promotion stops at the first best-of-rest that does not fit, and a
      value-ordered swap is only taken when it stays within budget.
      Unlike count mode, the resting state is *not* a fixed point of the
      rebalance (one promote / swap pass, in that order): with budget 2,
      ``add(a, 1.0, size=2)``, ``add(b, 1.0, size=1)``,
      ``add(c, 2.0, size=1)`` swaps ``c`` for ``a`` and leaves ``b`` in
      the rest although it now fits; the *next* mutation promotes it.
      The top partition can therefore sit under-filled for one step.

    **Byte mode skips the pass that would move nothing.**  The pass is
    the only code that moves a key between the heaps, and it leaves
    behind what its loops stopped on: the best of the rest and its value
    (it does not fit), the top's minimum (the best does not out-value it,
    or the trade does not fit), and whether it swapped.  A pass that
    swapped nothing left the partition *settled* — a second pass would
    stop on the same keys — and it stays settled across the mutations
    that keep those keys in place and ``top_bytes`` what it was:

    * a raise of a top key other than that minimum (of any top key while
      the rest is empty), size unchanged, is the heap's lazy raise — one
      dict write;
    * a new key, or a rest key other than that best, with no room in the
      top and a value ``<=`` the best's is one ``rest.push`` (a tie keeps
      the older best first);
    * removing a rest key other than that best is the removal alone.

    Everything else — a value drop or size change in the top, the two
    recorded keys themselves, anything that fits, a top remove, any
    mutation after a pass that swapped — lifts the key out and runs the
    pass as before.  The skipped passes are exactly those that would
    move nothing, so every ``(priority, seq)`` record, ``top_bytes`` and
    return value is what the pass would have produced, the
    under-filled-for-one-step quirk included: it follows a swap, and
    after a swap nothing is skipped.
    """

    __slots__ = (
        "k", "budget", "_top", "_rest", "_sizes", "_top_bytes", "_settled",
    )

    def __init__(self, k: int, budget: int | None = None) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative")
        self.k = k
        self.budget = budget
        self._top = HeapDict()  # min-heap by value
        self._rest = HeapDict()  # min-heap by -value (max access)
        #: Byte-budget mode only: key -> size captured at add time.
        self._sizes: dict[Hashable, int] = {}
        self._top_bytes = 0
        #: Byte-budget mode only: ``(best, best_value, low)`` — the best of
        #: the rest (value None: the rest is empty) and the top's minimum
        #: (None: one side is empty) — if the last pass swapped nothing.
        self._settled: tuple | None = None

    def __len__(self) -> int:
        return len(self._top) + len(self._rest)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._top or key in self._rest

    def __iter__(self) -> Iterator[Hashable]:
        yield from self._top
        yield from self._rest

    def in_top(self, key: Hashable) -> bool:
        return key in self._top

    @property
    def top_count(self) -> int:
        """Current size of the top partition (== min(k, len(self)) in
        count mode)."""
        return len(self._top)

    @property
    def top_bytes(self) -> int:
        """Bytes currently in the top partition (byte-budget mode)."""
        return self._top_bytes

    def value(self, key: Hashable) -> float:
        if key in self._top:
            return self._top.priority(key)
        return -self._rest.priority(key)

    def _rebalance_budget(self) -> None:
        """Promote, swap — greedily, one pass each — after a mutation.
        The only code that moves a key between the heaps in byte mode; it
        records in ``_settled`` the keys its loops stopped on."""
        top, rest = self._top, self._rest
        sizes = self._sizes
        budget = self.budget
        # Nothing to demote: ``_top_bytes <= budget`` holds at rest, a
        # lift-out only lowers it, and re-insertion, promotion and swap
        # each check the fit first (the budget is fixed at construction).
        best = best_val = top_key = None
        swapped = False
        # Promote the best of the rest while it fits (greedy by value).
        while len(rest):
            key, neg = rest.peek_min()
            if self._top_bytes + sizes[key] > budget:
                best, best_val = key, -neg
                break
            rest.pop_min()
            top.push(key, -neg)
            self._top_bytes += sizes[key]
        # Swap while the best of the rest beats the worst of the top and
        # the swap stays within budget.
        while len(top) and len(rest):
            top_key, top_val = top.peek_min()
            rest_key, rest_neg = rest.peek_min()
            if -rest_neg <= top_val:
                break
            if self._top_bytes - sizes[top_key] + sizes[rest_key] > budget:
                break
            swapped = True
            top.pop_min()
            rest.pop_min()
            top.push(rest_key, -rest_neg)
            rest.push(top_key, -top_val)
            self._top_bytes += sizes[rest_key] - sizes[top_key]
        # Only a swap can leave a promotion pending (the next pass's).
        self._settled = None if swapped else (best, best_val, top_key)

    def add(self, key: Hashable, value: float, size: int | None = None) -> bool | None:
        """Insert or update ``key`` at ``value``.

        Returns where the key sat *before* the call: True (top), False
        (rest) or None (new).  ``size`` matters only in byte-budget mode;
        when omitted on an update, the size captured at the original add
        is kept.
        """
        top, rest = self._top, self._rest
        if self.budget is not None:
            sizes = self._sizes
            if size is None:
                size = sizes.get(key, 1)
            elif size <= 0:
                raise ValueError("size must be positive")
            settled = self._settled
            if settled is not None:  # would the pass move anything?
                best, best_val, low = settled
                held = top._live.get(key)
                if held is not None:
                    # A raise over a minimum that stays the minimum, bytes
                    # unchanged: both loops would stop on the same keys.
                    if value >= held[0] and key != low and size == sizes[key]:
                        top.push(key, value)
                        return True
                elif (
                    best_val is not None
                    and value <= best_val  # a tie keeps the older best first
                    and key != best
                    and self._top_bytes + size > self.budget
                ):
                    # Lands in the rest behind its best, which still does
                    # not fit: both loops would stop on the same keys.
                    before = False if key in rest._live else None
                    sizes[key] = size
                    rest.push(key, -value)
                    return before
            before = None
            if top.discard(key):
                before = True
                self._top_bytes -= sizes[key]
            elif rest.discard(key):
                before = False
            sizes[key] = size
            if self._top_bytes + size <= self.budget:
                top.push(key, value)
                self._top_bytes += size
            else:
                rest.push(key, -value)
            self._rebalance_budget()
            return before
        # Count mode: decide the case, then push at most one key into each
        # heap.  ``up`` / ``down``: the ``(key, priority)`` the top / the
        # rest receives.
        top_live, rest_live = top._live, rest._live
        held = top_live.get(key)
        up = down = None
        if held is not None:
            before = True
            up = (key, value)  # case (a): a raise is one dict write
            if value < held[0] and rest_live:  # case (c)
                heap = rest._heap
                while True:  # the rest's minimum (it is not empty)
                    neg, seq, best = heap[0]
                    rec = rest_live.get(best)
                    if rec is not None and rec[1] == seq:
                        break
                    heappop(heap)
                    if rec is not None and not rec[2]:
                        rest_live[best] = (rec[0], rec[1], True)
                        heappush(heap, (rec[0], rec[1], best))
                if -neg > value:  # ... so ``key`` is the top's minimum
                    heappop(heap)
                    del rest_live[best]
                    del top_live[key]
                    up, down = (best, -neg), (key, -value)
        else:
            before = False if key in rest_live else None
            if len(top_live) < self.k:  # the rest is empty: ``key`` is new
                up = (key, value)
            else:
                down = (key, -value)  # case (b), stays below the top
                if self.k:
                    heap = top._heap
                    while True:  # the top's minimum (it is not empty)
                        low_val, seq, low = heap[0]
                        rec = top_live.get(low)
                        if rec is not None and rec[1] == seq:
                            break
                        heappop(heap)
                        if rec is not None and not rec[2]:
                            top_live[low] = (rec[0], rec[1], True)
                            heappush(heap, (rec[0], rec[1], low))
                    if value > low_val:  # case (b), swap
                        heappop(heap)
                        del top_live[low]
                        rest_live.pop(key, None)
                        up, down = (key, value), (low, -low_val)
        # ``HeapDict.push``: an entry for a new key or a lowered priority,
        # a lazy record for a raise.
        if up is not None:
            pushed, prio = up
            seq = top._seq + 1
            top._seq = seq
            old = top_live.get(pushed)
            if old is None or prio < old[0]:
                top_live[pushed] = (prio, seq, True)
                heappush(top._heap, (prio, seq, pushed))
                if len(top._heap) > (len(top_live) << 1) + 8:
                    top._compact()
            else:
                top_live[pushed] = (prio, seq, False)
        if down is not None:
            pushed, prio = down
            seq = rest._seq + 1
            rest._seq = seq
            old = rest_live.get(pushed)
            if old is None or prio < old[0]:
                rest_live[pushed] = (prio, seq, True)
                heappush(rest._heap, (prio, seq, pushed))
                if len(rest._heap) > (len(rest_live) << 1) + 8:
                    rest._compact()
            else:
                rest_live[pushed] = (prio, seq, False)
        return before

    def update(self, key: Hashable, value: float) -> None:
        if key not in self:
            raise KeyError(key)
        self.add(key, value)

    def remove(self, key: Hashable) -> bool:
        top, rest = self._top, self._rest
        # Friend access: ``HeapDict.discard`` is one dict delete.
        top_live, rest_live = top._live, rest._live
        in_top = key in top_live
        if in_top:
            del top_live[key]
        elif key in rest_live:
            del rest_live[key]
        else:
            return False
        if self.budget is not None:
            size = self._sizes.pop(key)
            if in_top:
                self._top_bytes -= size
            elif self._settled is not None and key != self._settled[0]:
                return True  # not the key the promote loop stopped on
            self._rebalance_budget()
        elif in_top and rest_live:  # case (d): promote the best of the rest
            heap = rest._heap
            while True:  # ``HeapDict.pop_min``, by friend access
                neg, seq, best = heap[0]
                rec = rest_live.get(best)
                if rec is not None and rec[1] == seq:
                    break
                heappop(heap)
                if rec is not None and not rec[2]:
                    rest_live[best] = (rec[0], rec[1], True)
                    heappush(heap, (rec[0], rec[1], best))
            heappop(heap)
            del rest_live[best]
            seq = top._seq + 1
            top._seq = seq
            top_live[best] = (-neg, seq, True)
            heappush(top._heap, (-neg, seq, best))
            if len(top._heap) > (len(top_live) << 1) + 8:
                top._compact()
        return True
