"""Squirrel-style decentralised P2P web cache (related-work baseline, §6).

Squirrel (Iyer, Rowstron & Druschel, PODC'02) pools the browser caches
of client machines into a serverless web cache over Pastry — *without*
a proxy.  The paper positions itself against Squirrel: federating client
caches *under* cooperating proxies keeps a fast dedicated tier and lets
organisations share objects across firewalls via the proxies, which
Squirrel's direct client-to-client model cannot do (§6).

This scheme implements Squirrel's **home-store** model so the claim is
measurable rather than rhetorical:

* each object has a *home node* — the client cache the overlay assigns
  the SHA-1 objectId (numerically closest cacheId under Pastry, the
  id's successor under Chord);
* a request routes to the home node; a home hit is served
  client-to-client over the LAN;
* on a home miss the home node fetches from the origin server, stores
  the object (LRU replacement, as in Squirrel's browser caches) and
  forwards it — the extra LAN detour is charged explicitly;
* there is **no inter-organisation sharing**: client caches sit behind
  the firewall, so each cluster's Squirrel instance is isolated.

Fair storage comparison: without a proxy box, the machines that would
have hosted the proxy cache contribute their disk to the pool instead:
the proxy budget is spread across the client caches so Squirrel and
Hier-GD manage the same total bytes.
"""

from __future__ import annotations

from ...cache import LruCache
from ...netmodel import TIER_LOCAL_P2P, TIER_SERVER
from ...overlay import (
    OverlayBackend,
    build_owner_table,
    make_overlay,
    object_ids_for_urls,
)
from ...protocol.messages import P2P_FETCH
from ...protocol.transport import Transport
from ...workload import Trace, object_url
from ..config import SimulationConfig
from ..simulator import CachingScheme

__all__ = ["SquirrelScheme"]


class SquirrelScheme(CachingScheme):
    """Home-store Squirrel: DHT-pooled browser caches, no proxy tier."""

    name = "squirrel"

    def __init__(
        self,
        config: SimulationConfig,
        traces: list[Trace],
        transport: Transport | None = None,
    ) -> None:
        super().__init__(config, traces, transport)
        #: Ask the transport about the home fetch only under a fault plan.
        self._faulty = self.transport.faulty
        self._t_p2p = config.network.t_p2p
        self.overlays: list[OverlayBackend] = [make_overlay(config) for _ in traces]
        self.idx_of_node: list[dict[int, int]] = []
        self.homes: list[list[LruCache]] = []
        #: Per cluster, object id -> its home LruCache.  Membership is
        #: static, so every home is precomputed: one batched SHA-1 pass
        #: plus one vectorised sorted-ring resolution per cluster; a
        #: sampled subset is still routed through the overlay so the
        #: mean-hops extra stays populated.
        self._home_table: list[list[LruCache]] = []
        n_objects = 0
        for trace in self.traces:
            if len(trace.object_ids):
                n_objects = max(n_objects, int(trace.object_ids.max()) + 1)
        keys = object_ids_for_urls(
            [object_url(i) for i in range(n_objects)], self.overlays[0].space
        )
        for ci, (sizing, overlay) in enumerate(zip(self.sizings, self.overlays)):
            nodes = overlay.bulk_add_named(
                [f"squirrel{ci}/cache{k}" for k in range(sizing.n_clients)]
            )
            mapping = {node.node_id: k for k, node in enumerate(nodes)}
            # The proxy budget spread over the client pool (see module doc).
            per_client = sizing.client_size + sizing.proxy_size // max(1, sizing.n_clients)
            homes = [LruCache(per_client) for _ in range(sizing.n_clients)]
            owners = build_owner_table(
                overlay, keys, sample_rate=config.hop_sample_rate, record_stats=True
            )
            self.idx_of_node.append(mapping)
            self.homes.append(homes)
            self._home_table.append([homes[mapping[nid]] for nid in owners])

    def process(self, cluster: int, client: int, obj: int) -> str:
        """Serve one request.

        Every request rides the overlay to its home node, so the
        client↔client fetch is the faultable exchange: when the retry
        budget is spent the requester fetches from the origin directly
        and the home store learns nothing (no proxy tier exists to fall
        back through — exactly the §6 structural weakness the paper
        holds against Squirrel, measurable here as degradation toward
        and below NC).
        """
        if self._faulty and not self.transport.attempt(P2P_FETCH):
            return TIER_SERVER
        sizes = self._size_list
        hit, _ = self._home_table[cluster][obj].lookup_or_insert(
            obj, 1.0, 1 if sizes is None else sizes[obj]
        )
        if hit:
            return TIER_LOCAL_P2P
        # Home miss: the home node fetches from the origin, stores the
        # object and relays it — one extra LAN leg on top of the server
        # round trip (``add_extra_latency``, inline).
        if not self._in_warmup:
            self.extra_latency += self._t_p2p
        return TIER_SERVER

    def finalize(self) -> tuple[dict[str, int], dict[str, float]]:
        total_msgs = sum(o.stats.messages for o in self.overlays)
        total_hops = sum(o.stats.total_hops for o in self.overlays)
        extras: dict[str, float] = {"extra_latency": self.extra_latency}
        if total_msgs:
            extras[f"mean_{self.overlays[0].name}_hops"] = total_hops / total_msgs
        messages: dict[str, int] = {}
        if self.transport.faulty:
            messages.update(self.transport.fault_counters)
        return messages, extras
