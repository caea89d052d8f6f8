"""NC and SC — the classical schemes without client caches (§2).

* **NC (No Cache Cooperation)** — every proxy runs a private LFU cache;
  a proxy miss always goes to the origin server.  NC is the baseline of
  the paper's latency-gain metric.
* **SC (Simple Cache Cooperation)** — proxies serve each other's misses:
  a proxy that misses locally probes its cooperating proxies and fetches
  from one that holds the object (at ``Tc``), then caches the object
  locally ("once a proxy fetches an object from another proxy, it caches
  the object locally" — duplication allowed, replacement uncoordinated).

Both use LFU replacement per §2, perfect-counting variant (DESIGN.md §5).
"""

from __future__ import annotations

from ...cache import LfuCache
from ...netmodel import TIER_COOP_PROXY, TIER_LOCAL_PROXY, TIER_SERVER
from ...protocol.transport import Transport
from ...workload import Trace
from ..config import SimulationConfig
from ..presence import PeerSurface, PresenceIndex
from ..simulator import CachingScheme

__all__ = ["NcScheme", "ScScheme"]


class NcScheme(CachingScheme):
    """No cache cooperation: isolated per-proxy LFU caches."""

    name = "nc"

    def __init__(
        self,
        config: SimulationConfig,
        traces: list[Trace],
        transport: Transport | None = None,
    ) -> None:
        super().__init__(config, traces, transport)
        self.caches = [
            LfuCache(s.proxy_size, reset_on_evict=config.lfu_reset_on_evict)
            for s in self.sizings
        ]

    def process(self, cluster: int, client: int, obj: int) -> str:
        sizes = self._size_list
        hit, _ = self.caches[cluster].lookup_or_insert(
            obj, 1.0, 1 if sizes is None else sizes[obj]
        )
        return TIER_LOCAL_PROXY if hit else TIER_SERVER

    def peer_surface(self) -> PeerSurface:
        # No cross-cluster state: sharding NC is pure data parallelism.
        return PeerSurface()


class ScScheme(CachingScheme):
    """Simple cooperation: serve each other's misses, no coordination.

    Message accounting (for the overhead-vs-benefit discussion): every
    local miss probes the cooperating proxies ICP-style — one probe per
    co-proxy until a hit — and every remote hit costs one fetch.
    """

    name = "sc"

    def __init__(
        self,
        config: SimulationConfig,
        traces: list[Trace],
        transport: Transport | None = None,
    ) -> None:
        super().__init__(config, traces, transport)
        self.caches = [
            LfuCache(s.proxy_size, reset_on_evict=config.lfu_reset_on_evict)
            for s in self.sizings
        ]
        #: object -> clusters caching it; replaces a per-miss probe scan
        #: (see :mod:`repro.core.presence` for the equivalence argument).
        self._presence = PresenceIndex()
        #: Each cluster's id in the index and the number of cooperating
        #: clusters (a shard peer view substitutes global ids and count).
        self._cluster_ids: list[int] | range = range(len(self.caches))
        self._n_clusters = len(self.caches)
        self._probes = 0
        self._coop_fetches = 0

    def process(self, cluster: int, client: int, obj: int) -> str:
        # Remote probes are membership-only (a probe is not a reference at
        # the remote cache) and never touch the local cache, so the fused
        # lookup-or-insert may run first.  The index is read and written
        # inline (``PresenceIndex.first_holder`` / ``add`` / ``discard``).
        sizes = self._size_list
        hit, evicted = self.caches[cluster].lookup_or_insert(
            obj, 1.0, 1 if sizes is None else sizes[obj]
        )
        if hit:
            return TIER_LOCAL_PROXY
        holders = self._presence._holders
        me = self._cluster_ids[cluster]
        # The ascending scan's first hit is the lowest holder bit: this
        # cluster missed, so its own bit is clear.
        mask = holders.get(obj, 0)
        if mask:
            first = (mask & -mask).bit_length() - 1
            # One probe per cluster visited, the requester skipped.
            self._probes += first if first > me else first + 1
            self._coop_fetches += 1
            tier = TIER_COOP_PROXY
        else:
            self._probes += self._n_clusters - 1  # every peer, no hit
            tier = TIER_SERVER
        bit = 1 << me
        for victim in evicted:
            if victim == obj:
                return tier  # capacity-zero cache rejected the insert
            gone = holders[victim]  # cached here: its bit is set
            if gone == bit:
                del holders[victim]
            else:
                holders[victim] = gone ^ bit
        holders[obj] = mask | bit
        return tier

    def peer_surface(self) -> PeerSurface:
        # A remote probe is membership-only (an index read, never
        # ``lookup``), so peers need the presence deltas and nothing else.
        def rekey(ids: list[int], total: int) -> None:
            self._cluster_ids, self._n_clusters = ids, total

        return PeerSurface([(self._presence, [c._sizes for c in self.caches])], rekey)

    def finalize(self) -> tuple[dict[str, int], dict[str, float]]:
        return {"coop_probes": self._probes, "coop_fetches": self._coop_fetches}, {}
