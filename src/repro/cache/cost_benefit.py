"""Cost-benefit replacement — the FC / FC-EC upper-bound policy, one cache.

The paper (§2): "FC and FC-EC use a cost-benefit replacement to minimize
the average access latency of all the clients in the proxy cluster. ...
based on the assumption of the perfect frequency knowledge to each object,
the cost-benefit replacement algorithm minimizes the aggregate average
latency ... at the expense of computational complexity."

The referenced tech report is unavailable; this module implements the
documented reconstruction (DESIGN.md §5): a cached copy's *value* is

    value(obj) = frequency(obj) × benefit(obj)

where ``benefit`` is the latency saved per access by keeping the copy
(e.g. ``Ts − Tl`` for the only copy of an object at the local proxy) and
``frequency`` comes from either

* a **perfect-knowledge oracle** — total reference counts precomputed
  from the whole trace (the paper's upper-bound assumption), or
* **online counting** — counts observed so far (a practical variant).

Eviction removes the copy with minimum value *density* — value per byte,
``frequency × benefit / size`` — which at the paper's unit sizes is the
minimum value itself (``x / 1 == x`` exactly), so the size-aware
generalisation leaves every equal-size result byte-identical.  Capacity
is accounted in the same units as the inserted sizes (objects under the
paper's assumption, bytes when the workload carries real sizes).

No scheme runs this class: FC and FC-EC coordinate placement across
proxies in :mod:`repro.core.schemes.full`, over their own ``HeapDict``
copy store, and the -EC caches are LFU-ranked (:mod:`repro.cache.tiered`).
It is the single-cache reference of the policy, which the tests and the
performance ledger's ``cache.costbenefit_ops_per_s`` probe exercise.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator

from .base import Cache
from .heapdict import HeapDict

__all__ = ["CostBenefitCache", "FrequencyOracle"]


class FrequencyOracle:
    """Perfect-knowledge frequency table (object → total reference count).

    Built once per trace by the simulator; unknown objects report a count
    of 1 (they exist, so they were referenced at least once).
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: dict[Hashable, int]) -> None:
        self._counts = counts

    def __call__(self, key: Hashable) -> int:
        return self._counts.get(key, 1)

    def __len__(self) -> int:
        return len(self._counts)


class CostBenefitCache(Cache):
    """Value-based cache: evict the copy with minimum frequency × benefit."""

    def __init__(
        self,
        capacity: int,
        frequency: Callable[[Hashable], int] | None = None,
    ) -> None:
        """
        Parameters
        ----------
        capacity:
            Size in the same units objects are inserted with — objects
            under the paper's unit-size assumption, bytes otherwise.
        frequency:
            Perfect-knowledge oracle.  ``None`` selects online counting.
        """
        super().__init__(capacity)
        self._oracle = frequency
        self._online_counts: dict[Hashable, int] = {}
        self._benefit: dict[Hashable, float] = {}
        self._sizes: dict[Hashable, int] = {}
        self._heap = HeapDict()
        self._used = 0

    def _freq(self, key: Hashable) -> int:
        if self._oracle is not None:
            return self._oracle(key)
        return self._online_counts.get(key, 1)

    def value(self, key: Hashable) -> float:
        """Current retention value of a cached key (KeyError if absent)."""
        if key not in self._benefit:
            raise KeyError(key)
        return self._freq(key) * self._benefit[key]

    def lookup(self, key: Hashable) -> bool:
        if self._oracle is None:
            # Online mode counts every reference, hit or miss.
            self._online_counts[key] = self._online_counts.get(key, 0) + 1
        if key in self._benefit:
            if self._oracle is None:
                self._heap.push(key, self.value(key) / self._sizes[key])
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def contains(self, key: Hashable) -> bool:
        return key in self._benefit

    def insert(self, key: Hashable, cost: float = 1.0, size: int = 1) -> list[Hashable]:
        """Cache ``key`` whose copy saves ``cost`` latency per access.

        Admission is by value density: the incoming copy must beat the
        minimum-density incumbents it would displace, or it is rejected
        with the cache left untouched (value-based policies need the
        admission test, otherwise a stream of one-timers churns out the
        high-value working set).  A refresh-insert whose new size no
        longer fits drops the stale copy rather than keep serving it.
        """
        if size <= 0:
            raise ValueError("size must be positive")
        if cost < 0:
            raise ValueError("benefit (cost) must be non-negative")
        old_size = self._sizes.pop(key, None)
        if old_size is not None:
            self._used -= old_size
            del self._benefit[key]
            # The stale heap entry must not be trial-popped as a victim
            # below; it is re-pushed (or dropped) on the way out.
            self._heap.discard(key)
        if size > self.capacity:  # covers capacity == 0
            if old_size is not None:
                self._heap.discard(key)
                self.stats.evictions += 1
            return [key]
        evicted: list[Hashable] = []
        if self._used + size > self.capacity:
            new_density = self._freq(key) * cost / size
            # Trial-pop the minimum-density incumbents.  If one of them
            # is worth at least as much per byte as the newcomer, push
            # the popped victims back (same priorities, so the heap
            # behaves as if untouched) and reject.
            victims: list[tuple[Hashable, float]] = []
            freed = 0
            admit = True
            while self._used - freed + size > self.capacity:
                victim, victim_density = self._heap.peek_min()
                if victim_density >= new_density:
                    admit = False
                    break
                self._heap.pop_min()
                victims.append((victim, victim_density))
                freed += self._sizes[victim]
            if not admit:
                for victim, density in victims:
                    self._heap.push(victim, density)
                if old_size is not None:
                    # The refresh outgrew its displaceable share; the
                    # stale smaller copy is already uncharged above.
                    self._heap.discard(key)
                    self.stats.evictions += 1
                return [key]
            for victim, _density in victims:
                del self._benefit[victim]
                self._used -= self._sizes.pop(victim)
                evicted.append(victim)
                self.stats.evictions += 1
        self._benefit[key] = cost
        self._sizes[key] = size
        self._used += size
        self._heap.push(key, self._freq(key) * cost / size)
        self.stats.insertions += 1
        return evicted

    def remove(self, key: Hashable) -> bool:
        if self._benefit.pop(key, None) is None:
            return False
        self._used -= self._sizes.pop(key)
        self._heap.discard(key)
        return True

    def __len__(self) -> int:
        return self._used

    def keys(self) -> Iterator[Hashable]:
        return iter(self._benefit)
