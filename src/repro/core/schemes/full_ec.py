"""FC-EC — full coordination over proxy *and* P2P client caches (§2).

The strongest upper bound in the paper: "all proxies and P2P client
caches not only share their cached objects but also coordinate object
replacement decisions", with cost-benefit replacement under perfect
frequency knowledge.

Implementation composes the two building blocks already proven out:

* the **global coordinated copy store** it inherits from
  :class:`FcScheme` (primary / duplicate copy values, greedy admission
  against the global minimum), with per-cluster capacity
  ``proxy_size + p2p_size``;
* a per-cluster :class:`~repro.cache.topk.TopKTracker` that partitions
  each cluster's copies into the proxy tier (the ``proxy_size`` most
  valuable copies, hits at ``Tl``) and the client tier (the rest, hits
  at ``Tl + Tp2p``) — the same hottest-objects-at-the-proxy discipline
  the unified -EC model uses, driven by copy values instead of raw
  frequency.

Serving a remote hit prefers a cluster holding the object in its proxy
tier (``Tc``) over one that must push it out of a client cache
(``Tc + Tp2p``).
"""

from __future__ import annotations

from ...cache.topk import TopKTracker
from ...netmodel import (
    TIER_COOP_P2P,
    TIER_COOP_PROXY,
    TIER_LOCAL_P2P,
    TIER_LOCAL_PROXY,
    TIER_SERVER,
)
from ...protocol.messages import PROXY_FETCH, PUSH
from ...protocol.transport import Transport
from ...workload import Trace
from ..config import SimulationConfig
from .full import FcScheme

__all__ = ["FcEcScheme"]


class FcEcScheme(FcScheme):
    """Full coordination across proxy caches and P2P client caches."""

    name = "fc-ec"

    def __init__(
        self,
        config: SimulationConfig,
        traces: list[Trace],
        transport: Transport | None = None,
    ) -> None:
        super().__init__(config, traces, transport)
        self.capacity = sum(s.proxy_size + s.p2p_size for s in self.sizings)
        self._tiers = [
            TopKTracker(
                s.proxy_size,
                budget=s.proxy_size if s.by_bytes else None,
            )
            for s in self.sizings
        ]

    # -- the copy store's mutations, mirrored into the cluster's tiers -------

    def _add_copy(self, obj: int, cluster: int) -> float:
        value = super()._add_copy(obj, cluster)
        sizes = self._size_list
        self._tiers[cluster].add(obj, value, size=1 if sizes is None else sizes[obj])
        return value

    def _drop_copy(self, obj: int, cluster: int) -> float | None:
        self._tiers[cluster].remove(obj)
        value = super()._drop_copy(obj, cluster)
        if value is not None:
            # A surviving duplicate was promoted: re-rank it at its
            # primary value.
            self._tiers[self._primary[obj]].update(obj, value)
        return value

    # -- request path ---------------------------------------------------------

    def process(self, cluster: int, client: int, obj: int) -> str:
        """Serve one request.

        A remote proxy-tier hit rides the cooperating-proxy link; a
        remote client-tier hit rides the push link (``Tc + Tp2p``).
        Local tiers (own proxy, own P2P partition) are LAN-side and stay
        fault-free, matching the Hier-GD model where only cooperation
        links degrade.
        """
        # ``TopKTracker.in_top``, by friend access: the top partition's keys.
        tiers = self._tiers
        if obj in self._local[cluster]:
            return TIER_LOCAL_PROXY if obj in tiers[cluster]._top._live else TIER_LOCAL_P2P
        holders = self._holders.get(obj)
        if holders:
            # Prefer a remote proxy-tier copy over a remote P2P push.
            tier, exchange = TIER_COOP_P2P, PUSH
            for q in holders:
                if obj in tiers[q]._top._live:
                    tier, exchange = TIER_COOP_PROXY, PROXY_FETCH
                    break
            if self._faulty and not self.transport.attempt(exchange):
                tier = TIER_SERVER
        else:
            tier = TIER_SERVER
        self._consider_copy(obj, cluster)
        return tier
