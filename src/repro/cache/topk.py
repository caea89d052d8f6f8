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

An optional ``on_tier`` listener observes the partition from outside:
it is called with ``(key, True)`` when a key lands in the top partition,
``(key, False)`` when it lands in the rest, and ``(key, None)`` when it
leaves the tracker.  Events may repeat a key's current placement (an
``add`` followed by a rebalance can report the same destination twice);
the *last* event per mutation always reflects the final placement, so
idempotent handlers (set insert/discard) see a consistent picture.  The
SC-EC's tier presence indexes hang off this hook.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator, Optional

from .heapdict import HeapDict

__all__ = ["TopKTracker"]

#: Listener signature: (key, in_top) with in_top True/False/None (removed).
TierListener = Callable[[Hashable, Optional[bool]], None]


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
    """

    __slots__ = ("k", "budget", "_top", "_rest", "_on_tier", "_sizes", "_top_bytes")

    def __init__(
        self,
        k: int,
        on_tier: TierListener | None = None,
        budget: int | None = None,
    ) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative")
        self.k = k
        self.budget = budget
        self._top = HeapDict()  # min-heap by value
        self._rest = HeapDict()  # min-heap by -value (max access)
        self._on_tier = on_tier
        #: Byte-budget mode only: key -> size captured at add time.
        self._sizes: dict[Hashable, int] = {}
        self._top_bytes = 0

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

    def _rebalance(self) -> None:
        on_tier = self._on_tier
        top, rest = self._top, self._rest
        while len(top) > self.k:
            key, value = top.pop_min()
            rest.push(key, -value)
            if on_tier is not None:
                on_tier(key, False)
        while len(top) < self.k and len(rest):
            key, neg = rest.pop_min()
            top.push(key, -neg)
            if on_tier is not None:
                on_tier(key, True)
        if self.k and len(top) and len(rest):
            # Swap while the best of the rest beats the worst of the top.
            while True:
                top_key, top_val = top.peek_min()
                rest_key, rest_neg = rest.peek_min()
                if -rest_neg <= top_val:
                    break
                top.pop_min()
                rest.pop_min()
                top.push(rest_key, -rest_neg)
                rest.push(top_key, -top_val)
                if on_tier is not None:
                    on_tier(rest_key, True)
                    on_tier(top_key, False)

    def _rebalance_budget(self) -> None:
        on_tier = self._on_tier
        top, rest = self._top, self._rest
        sizes = self._sizes
        budget = self.budget
        # Demote least-valuable keys while the top partition overflows.
        while self._top_bytes > budget and len(top):
            key, value = top.pop_min()
            self._top_bytes -= sizes[key]
            rest.push(key, -value)
            if on_tier is not None:
                on_tier(key, False)
        # Promote the best of the rest while it fits (greedy by value).
        while len(rest):
            key, neg = rest.peek_min()
            if self._top_bytes + sizes[key] > budget:
                break
            rest.pop_min()
            top.push(key, -neg)
            self._top_bytes += sizes[key]
            if on_tier is not None:
                on_tier(key, True)
        # Swap while the best of the rest beats the worst of the top and
        # the swap stays within budget.
        while len(top) and len(rest):
            top_key, top_val = top.peek_min()
            rest_key, rest_neg = rest.peek_min()
            if -rest_neg <= top_val:
                break
            if self._top_bytes - sizes[top_key] + sizes[rest_key] > budget:
                break
            top.pop_min()
            rest.pop_min()
            top.push(rest_key, -rest_neg)
            rest.push(top_key, -top_val)
            self._top_bytes += sizes[rest_key] - sizes[top_key]
            if on_tier is not None:
                on_tier(rest_key, True)
                on_tier(top_key, False)

    def add(self, key: Hashable, value: float, size: int | None = None) -> None:
        """Insert or update ``key`` at ``value``.

        ``size`` matters only in byte-budget mode; when omitted on an
        update, the size captured at the original add is kept.
        """
        if self.budget is None:
            self._top.discard(key)
            self._rest.discard(key)
            if len(self._top) < self.k:
                self._top.push(key, value)
                if self._on_tier is not None:
                    self._on_tier(key, True)
            else:
                self._rest.push(key, -value)
                if self._on_tier is not None:
                    self._on_tier(key, False)
            self._rebalance()
            return
        if self._top.discard(key):
            self._top_bytes -= self._sizes[key]
        else:
            self._rest.discard(key)
        if size is None:
            size = self._sizes.get(key, 1)
        elif size <= 0:
            raise ValueError("size must be positive")
        self._sizes[key] = size
        if self._top_bytes + size <= self.budget:
            self._top.push(key, value)
            self._top_bytes += size
            if self._on_tier is not None:
                self._on_tier(key, True)
        else:
            self._rest.push(key, -value)
            if self._on_tier is not None:
                self._on_tier(key, False)
        self._rebalance_budget()

    def update(self, key: Hashable, value: float) -> None:
        if key not in self:
            raise KeyError(key)
        self.add(key, value)

    def remove(self, key: Hashable) -> bool:
        in_top = self._top.discard(key)
        removed = in_top or self._rest.discard(key)
        if removed:
            if self.budget is not None:
                size = self._sizes.pop(key)
                if in_top:
                    self._top_bytes -= size
            if self._on_tier is not None:
                self._on_tier(key, None)
            if self.budget is None:
                self._rebalance()
            else:
                self._rebalance_budget()
        return removed
