"""Two-tier unified cache — the paper's model for the -EC schemes.

For NC-EC / SC-EC / FC-EC the paper simulates a proxy and its P2P client
cache as caches that "share cache contents and coordinate replacement so
that they appear as one unified cache" (§2), with the P2P client cache
modelled "as one single cache whose size is the sum of all client cache
sizes" (§5.1).  Latency-wise the two halves differ: a hit served from the
proxy tier costs ``Tl`` while a hit served from the client tier costs an
extra ``Tp2p`` LAN fetch — so *which tier holds an object matters* even
though replacement is unified.

:class:`TieredCache` composes two proven pieces:

* **replacement** is one :class:`~repro.cache.lfu.LfuCache` over the
  *combined* capacity — exactly the "one unified cache" of the paper, so
  the -EC schemes can never hit less often than their plain counterparts
  with the same proxy size;
* **tier membership** is a :class:`~repro.cache.topk.TopKTracker`: the
  ``proxy_capacity`` most frequently referenced residents count as the
  proxy tier.  A resident whose frequency grows past the proxy minimum is
  promoted on access — operationally this is the object being re-fetched
  through the proxy, so the upper-bound model stays implementable.

A hit reports the tier the object was in *when the request arrived*
(promotion is a consequence of the fetch, not its source).
"""

from __future__ import annotations

from typing import Hashable, Iterator

from .base import Cache
from .lfu import LfuCache
from .topk import TopKTracker

__all__ = ["TieredCache", "PROXY_TIER", "CLIENT_TIER"]

PROXY_TIER = "proxy"
CLIENT_TIER = "client"

_UNIT_ONLY = (
    "the unified EC model assumes unit object sizes "
    "(construct with by_bytes=True for size-aware mode)"
)


class TieredCache(Cache):
    """Unified proxy + P2P-client cache: one LFU store, ranked tiers."""

    __slots__ = (
        "proxy_capacity",
        "client_capacity",
        "by_bytes",
        "_store",
        "_tiers",
    )

    def __init__(
        self,
        proxy_capacity: int,
        client_capacity: int,
        lfu_reset_on_evict: bool = False,
        by_bytes: bool = False,
    ) -> None:
        """
        Parameters
        ----------
        proxy_capacity:
            Objects the proxy tier holds (hits cost ``Tl``).
        client_capacity:
            Objects the client tier (the aggregated P2P cache) holds.
        lfu_reset_on_evict:
            Counting mode of the underlying unified LFU (see
            :class:`~repro.cache.lfu.LfuCache`).
        by_bytes:
            When True, both capacities are *byte* budgets and inserts
            carry per-object sizes: replacement runs the size-aware LFU
            and the proxy tier holds the most valuable residents whose
            summed bytes fit ``proxy_capacity``.
        """
        if proxy_capacity < 0 or client_capacity < 0:
            raise ValueError("capacities must be non-negative")
        super().__init__(proxy_capacity + client_capacity)
        self.proxy_capacity = proxy_capacity
        self.client_capacity = client_capacity
        self.by_bytes = by_bytes
        self._store = LfuCache(self.capacity, reset_on_evict=lfu_reset_on_evict)
        self._tiers = TopKTracker(
            proxy_capacity,
            budget=proxy_capacity if by_bytes else None,
        )
        self.stats = self._store.stats  # single source of truth

    # -- inspection --------------------------------------------------------

    def tier_of(self, key: Hashable) -> str | None:
        """Which tier holds ``key`` (no bookkeeping), or None."""
        if not self._store.contains(key):
            return None
        return PROXY_TIER if self._tiers.in_top(key) else CLIENT_TIER

    def contains(self, key: Hashable) -> bool:
        return self._store.contains(key)

    def __len__(self) -> int:
        return len(self._store)

    def keys(self) -> Iterator[Hashable]:
        return self._store.keys()

    def frequency(self, key: Hashable) -> int:
        return self._store.frequency(key)

    # -- policy operations --------------------------------------------------

    def lookup(self, key: Hashable) -> bool:
        return self.lookup_tier(key) is not None

    def lookup_tier(self, key: Hashable) -> str | None:
        """Reference ``key``; returns the serving tier or None on miss.

        The tier is the one the object was in *before* promotion.  The
        tracker holds exactly the store's keys, so the store's residency
        test stands for both and the hit goes straight to the tracker's
        add path, which reports where the key sat when the request came.
        A miss is only counted: :meth:`request` also admits the key.
        """
        store = self._store
        if key in store._sizes:
            store.lookup(key)  # bumps the count, updates the LFU heap
            if self._tiers.add(key, float(store.frequency(key))):
                return PROXY_TIER
            return CLIENT_TIER
        store.lookup(key)  # a miss still counts as a reference
        return None

    def request(self, key: Hashable, size: int = 1) -> str | None:
        """:meth:`lookup_tier`, then :meth:`insert` on a miss: the schemes'
        one call per request.

        A proxy-tier hit stays in this frame: the store's refresh
        (``LfuCache.lookup``'s hit) and, in count mode, the tracker's
        case (a) -- a resident's frequency never drops, so its new value
        is ``HeapDict``'s lazy raise -- are a dict write each, by friend
        access.  A client-tier hit and any byte-budget placement go to
        ``TopKTracker.add`` / ``remove`` (count mode makes its heap moves
        there by friend access, entering no ``HeapDict`` frame).  A miss
        is one ``LfuCache.lookup_or_insert``, then ``remove`` for its
        victims and ``add`` for the admitted key
        (``tests/cache/test_tiered.py`` holds the path to the naive
        models).
        """
        store = self._store
        if key in store._sizes:
            freq = store._freq
            f = freq[key] + 1
            freq[key] = f
            heap = store._heap
            seq = heap._seq + 1
            heap._seq = seq
            heap._live[key] = (f, seq, False)
            store.stats.hits += 1
            value = float(f)
            tiers = self._tiers
            if not self.by_bytes:
                top = tiers._top
                held = top._live.get(key)
                if held is not None:
                    seq = top._seq + 1
                    top._seq = seq
                    top._live[key] = (value, seq, False)
                    return PROXY_TIER
            if tiers.add(key, value):
                return PROXY_TIER
            return CLIENT_TIER
        if size != 1 and not self.by_bytes:
            raise ValueError(_UNIT_ONLY)
        _hit, evicted = store.lookup_or_insert(key, 1.0, size)
        tiers = self._tiers
        for victim in evicted:
            tiers.remove(victim)
        if key in store._sizes:
            tiers.add(key, float(store._freq[key]), size)
        return None

    def insert(self, key: Hashable, cost: float = 1.0, size: int = 1) -> list[Hashable]:
        """Admit a fetched object; unified LFU evicts the global minimum."""
        if size != 1 and not self.by_bytes:
            raise ValueError(_UNIT_ONLY)
        evicted = self._store.insert(key, size=size)
        for victim in evicted:
            self._tiers.remove(victim)
        if self._store.contains(key):
            self._tiers.add(key, float(self._store.frequency(key)), size=size)
        return evicted

    def remove(self, key: Hashable) -> bool:
        self._tiers.remove(key)
        return self._store.remove(key)
