"""Hier-GD — the paper's cooperative hierarchical greedy-dual algorithm.

Unlike the upper-bound schemes, Hier-GD is simulated *mechanistically*,
i.e. with every moving part of §§3–4 actually running:

* the proxy and every individual client cache run the local greedy-dual
  algorithm (efficient O(log n) implementation);
* each client cluster's cooperative client caches form a real Pastry
  overlay (:mod:`repro.overlay`); objects are mapped to client caches by
  SHA-1 objectIds and DHT placement (§4.1);
* a proxy eviction ``d1`` is passed down per the Figure 1 pseudo-code:
  route to the destination cache A; if A has free space it stores d1;
  otherwise **object diversion** tries an overlay neighbour B with free
  space (A keeps a pointer, §4.3); otherwise A runs greedy-dual, stores
  d1, discards its own eviction d2, and the proxy's **lookup directory**
  (Exact or Bloom, §4.2) is updated for both d1 and d2 via store
  receipts / eviction notices;
* destaged objects are **piggybacked** on HTTP responses (§4.4) — the
  simulator counts the connections this saves;
* a cooperating proxy reaches objects in this cluster's P2P cache
  through the **push protocol** (§4.5), because client caches sit behind
  the firewall: request → owner proxy → Pastry-routed push request →
  client pushes to its proxy → forwarded to the requesting proxy.

Inter-proxy cooperation is SC-style (serve each other's misses) — the
point of Hier-GD is that full replacement coordination is *not* needed:
greedy-dual provides implicit coordination (§3).

Latency/cost coupling: the greedy-dual ``cost`` of an object is the
latency the proxy actually paid to fetch it (``Tp2p``, ``Tc``,
``Tc+Tp2p`` or ``Ts``) — this is what makes GD cost-aware and is why it
approaches the cost-benefit upper bound.

Two request engines serve the same algorithm; which one a run gets is
decided once, in :meth:`HierGdScheme.__init__`, from what the run can
observe:

* the **protocol-chain engine** (this module + :mod:`repro.protocol.chain`)
  routes every cooperation hop through the scheme's transport.  It is
  the only engine for fault transports and subclasses that change
  membership mid-run (:class:`~repro.core.churn.HierGdChurnScheme`, whose
  zero-event form ``HierGdChurnScheme(config, traces, events=[])`` is
  also how a test runs a fault-free chain);
* the **indexed engine** (:mod:`repro.core.hiergd_indexed`) answers the
  same questions from presence indexes and placement tables — every
  other run, i.e. a fault-free transport with static membership, unit
  or sized objects.

Results are identical wherever both apply.  That includes the backend's
``mean_<overlay>_hops`` extra on sized runs, where both engines resolve
placement on first touch through the cluster's :class:`Dht`; a unit-size
indexed run builds its whole owner table up front and samples different
keys for that one statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cache import Cache, GreedyDualCache, LfuCache, LruCache
from ..netmodel import TIER_LOCAL_PROXY
from ..overlay import Dht, OverlayBackend, make_overlay, object_ids_for_urls
from ..protocol.chain import serve_miss
from ..protocol.transport import Transport
from ..workload import Trace, object_url
from .config import SimulationConfig
from .directory import LookupDirectory, LossyDirectory, make_directory
from .presence import PeerSurface
from .simulator import CachingScheme

__all__ = ["HierGdScheme"]


class _FirstTouchOwners(dict):
    """A cluster's object -> owner table, filled as objects are first asked for.

    A missing key is resolved through the cluster's :class:`Dht` — whose
    memo-miss counter decides which keys are also routed for the hop
    statistic, so *when* an object is first asked for is observable in
    ``mean_<overlay>_hops`` — and kept; every later ``[]`` is a plain
    dict probe.
    """

    __slots__ = ("_state",)

    def __init__(self, state: _ClusterState) -> None:
        self._state = state

    def __missing__(self, obj: int) -> int:
        state = self._state
        idx = state.idx_of_node[state.dht.owner(state.object_keys[obj])]
        self[obj] = idx
        return idx


@dataclass(slots=True)
class _ClusterState:
    """Everything one proxy + its P2P client cache carries at runtime."""

    proxy: Cache
    clients: list[Cache]
    overlay: OverlayBackend
    dht: Dht
    idx_of_node: dict[int, int]
    node_of_idx: list[int]
    directory: LookupDirectory
    #: Ground truth: objects currently stored somewhere in the P2P cache.
    p2p_present: set[int] = field(default_factory=set)
    #: Owner-side diversion pointers: owner idx -> {obj -> holder idx}.
    pointers: dict[int, dict[int, int]] = field(default_factory=dict)
    #: PAST-style extra copies: obj -> replica holder idxs (primary excluded).
    replicas: dict[int, set[int]] = field(default_factory=dict)
    #: Last retrieval cost per object (greedy-dual's cost input).
    costs: dict[int, float] = field(default_factory=dict)
    #: objectId per object: one SHA-1 pass per run, shared by every cluster.
    object_keys: np.ndarray | None = None
    #: First-touch placement, object -> owner client index; membership
    #: changes drop it wholesale.
    owner_memo: _FirstTouchOwners = field(init=False)

    def __post_init__(self) -> None:
        self.owner_memo = _FirstTouchOwners(self)

    def owner(self, obj: int) -> int:
        """Client index of the DHT owner of ``obj`` in this cluster."""
        return self.owner_memo[obj]


class HierGdScheme(CachingScheme):
    """The practical scheme: GD caches + Pastry P2P tier + directories."""

    name = "hier-gd"

    #: Whether the class fails or joins clients mid-run.  Read once, by
    #: the engine choice in ``__init__``: stale directories and shifting
    #: placement are states the indexed engine's indexes cannot mirror.
    mutates_membership = False

    def __init__(
        self,
        config: SimulationConfig,
        traces: list[Trace],
        transport: Transport | None = None,
    ) -> None:
        super().__init__(config, traces, transport)
        net = config.network
        self._t_server = net.t_server
        self._t_coop = net.t_coop
        self._t_p2p = net.t_p2p
        faulty = self.transport.faulty
        # The one engine choice.  A fault layer needs every cooperation
        # hop routed through the transport, which the indexed engine
        # inlines away, and its indexes assume the membership the run
        # started with.
        indexed = not (faulty or self.mutates_membership)
        #: Where a directory over-claim is counted: a stale entry under
        #: fault injection (exact directories go stale through dropped
        #: eviction notices), a false positive otherwise (Bloom).
        self._overclaim_key = (
            "stale_directory_hits"
            if faulty and config.directory == "exact"
            else "directory_false_positives"
        )
        self._promote = config.promote_on_p2p_hit
        self._diversion = config.object_diversion
        self._replicas_extra = config.p2p_replicas - 1
        self._destage_key = (
            "piggybacked_destages" if config.piggyback
            else "dedicated_destage_connections"
        )
        self._msg: dict[str, int] = {
            "passdowns": 0,
            "piggybacked_destages": 0,
            "dedicated_destage_connections": 0,
            "store_receipts": 0,
            "diversions": 0,
            "client_evictions": 0,
            "p2p_lookups": 0,
            "push_requests": 0,
            "directory_false_positives": 0,
            "replicas_stored": 0,
        }
        # A fault layer merges its FAULT_COUNTERS into this dict (no-op
        # under the base transport).
        self.transport.install_counters(self._msg)
        #: Mean object size (bytes) when sized — converts byte-denominated
        #: capacities into expected object counts for directory sizing.
        self._mean_size = (
            float(self.sizes.mean()) if self.sizes is not None else 1.0
        )
        state_cls = _ClusterState
        if indexed:
            from . import hiergd_indexed  # it extends _ClusterState

            state_cls = hiergd_indexed.IndexedCluster
        # Placement is resolved on first touch (hops sampled from routes
        # over one-by-one joins) everywhere but a unit-size indexed run,
        # which takes the bulk build and a whole owner table up front.
        # Both feed ``mean_<overlay>_hops``, which result digests pin.
        bulk = indexed and self.sizes is None
        self.states: list[_ClusterState] = []
        for ci, sizing in enumerate(self.sizings):
            overlay = make_overlay(config)
            names = [f"cluster{ci}/cache{k}" for k in range(sizing.n_clients)]
            # Join order shapes the overlay's routing tables (not its
            # placement), which the sampled hop statistic reads.
            if bulk:
                nodes = overlay.bulk_add_named(names)
            else:
                nodes = [overlay.add_named(name) for name in names]
            node_of_idx = [node.node_id for node in nodes]
            self.states.append(
                state_cls(
                    proxy=self._make_cache(sizing.proxy_size),
                    clients=[
                        self._make_cache(sizing.client_size)
                        for _ in range(sizing.n_clients)
                    ],
                    overlay=overlay,
                    dht=Dht(overlay, hop_sample_rate=config.hop_sample_rate),
                    idx_of_node={nid: k for k, nid in enumerate(node_of_idx)},
                    node_of_idx=node_of_idx,
                    directory=self.transport.wrap_directory(
                        make_directory(
                            config.directory,
                            # Directory capacity is an *object count*; under
                            # byte-denominated sizing, estimate it from the
                            # mean object size.
                            capacity=max(1, round(sizing.p2p_size / self._mean_size)),
                            fp_rate=config.bloom_fp_rate,
                        ),
                        ci,
                    ),
                )
            )
        n_objects = 0
        for trace in traces:
            if len(trace.object_ids):
                n_objects = max(n_objects, int(trace.object_ids.max()) + 1)
        object_keys = object_ids_for_urls(
            [object_url(i) for i in range(n_objects)], self.states[0].overlay.space
        )
        for state in self.states:
            state.object_keys = object_keys
        #: Whether the indexed engine serves this run; if not, the
        #: methods below (the protocol-chain engine) do.
        self.indexed = indexed
        if indexed:
            hiergd_indexed.install(self)  # binds process / _proxy_insert

    def _make_cache(self, capacity: int) -> Cache:
        """Local replacement policy per :attr:`SimulationConfig.hiergd_policy`.

        The default is greedy-dual (the algorithm's namesake); LRU and
        LFU exist to measure the paper's §3 claim that GD's implicit
        coordination beats both.
        """
        policy = self.config.hiergd_policy
        if policy == "gd":
            return GreedyDualCache(
                capacity,
                default_cost=self._t_server,
                credit_by_size=self.config.gd_cost_model == "gds",
            )
        if policy == "lru":
            return LruCache(capacity)
        return LfuCache(capacity, reset_on_evict=self.config.lfu_reset_on_evict)

    # -- shared mechanism: locating and replicating stored objects -----------

    def _locate(
        self, state: _ClusterState, obj: int, owner: int | None = None
    ) -> int | None:
        """Actual holder of ``obj``: owner, divertee, or a live replica.

        Callers that already resolved the owner pass it in so the DHT
        placement is computed once per request, not once per step.
        """
        if owner is None:
            owner = state.owner(obj)
        if state.clients[owner].contains(obj):
            return owner
        holder = state.pointers.get(owner, {}).get(obj)
        if holder is not None and state.clients[holder].contains(obj):
            return holder
        reps = state.replicas.get(obj)
        if reps:
            for idx in list(reps):
                if state.clients[idx].contains(obj):
                    return idx
                reps.discard(idx)  # lazily drop dead replica entries
            if not reps:
                del state.replicas[obj]
        return None

    def _replicate(
        self,
        state: _ClusterState,
        obj: int,
        cost: float,
        primary_idx: int,
        neighbours: list[int],
    ) -> None:
        """Best-effort PAST-style replication in the owner's neighbourhood.

        Extra copies (``p2p_replicas - 1``) go to the members of
        ``neighbours`` (the owner's overlay neighbourhood as client
        indexes) with free space — never displacing cached objects, so
        replication costs no capacity under pressure, only spare space.
        Replicas are availability insurance: under client churn an object
        survives as long as one copy does (see :mod:`repro.core.churn`).
        """
        extra = self._replicas_extra
        size = self._size_of(obj)
        existing = state.replicas.get(obj, ())
        for idx in neighbours:
            if extra <= 0:
                break
            if idx == primary_idx or idx in existing:
                continue
            cache = state.clients[idx]
            if cache.free_space >= size and not cache.contains(obj):
                cache.insert(obj, cost=cost, size=size)
                state.replicas.setdefault(obj, set()).add(idx)
                self._msg["replicas_stored"] += 1
                extra -= 1

    # -- Figure 1: pass-down with object diversion -----------------------------

    def _pass_down(self, state: _ClusterState, obj: int) -> None:
        """Destage a proxy-evicted object into the P2P client cache."""
        msg = self._msg
        msg["passdowns"] += 1
        msg[self._destage_key] += 1

        cost = state.costs.get(obj, self._t_server)
        size = self._size_of(obj)
        owner_idx = state.owner(obj)
        holder = self._locate(state, obj, owner_idx)
        if holder is not None:
            # Already stored (e.g. destaged before and later promoted back
            # up): refresh its greedy-dual credit instead of duplicating.
            state.clients[holder].lookup(obj)
            return

        owner_cache = state.clients[owner_idx]
        stored_at: int | None = owner_idx
        if owner_cache.free_space >= size:
            # (3)-(5): free space at the destination — store directly.
            owner_cache.insert(obj, cost=cost, size=size)
        else:
            # (7)-(10): object diversion to an overlay neighbour with free space.
            divertee = (
                self._pick_divertee(state, owner_idx, size)
                if self._diversion
                else None
            )
            if divertee is not None:
                state.clients[divertee].insert(obj, cost=cost, size=size)
                state.pointers.setdefault(owner_idx, {})[obj] = divertee
                msg["diversions"] += 1
                stored_at = divertee
            else:
                # (12)-(14): replacement at the destination; its eviction
                # d2 is simply discarded (§3) after notifying the proxy's
                # directory.
                for d2 in owner_cache.insert(obj, cost=cost, size=size):
                    if d2 == obj:
                        stored_at = None  # zero-capacity client caches reject
                    else:
                        self._on_client_eviction(state, owner_idx, d2)
        if stored_at is not None:
            self._record_store(state, obj)
            if self._replicas_extra > 0:
                self._replicate(
                    state, obj, cost, stored_at,
                    self._neighbour_indexes(state, owner_idx),
                )

    def _neighbour_indexes(self, state: _ClusterState, owner_idx: int) -> list[int]:
        """Overlay neighbourhood of ``owner_idx`` as client indexes."""
        owner_nid = state.node_of_idx[owner_idx]
        return [state.idx_of_node[nb] for nb in state.overlay.neighbourhood(owner_nid)]

    def _pick_divertee(
        self, state: _ClusterState, owner_idx: int, size: int = 1
    ) -> int | None:
        """Neighbourhood member with the most free space (storage balancing).

        Only members that can actually hold the object (free space of at
        least ``size``) qualify; at unit sizes that is the original
        "any free space" rule.
        """
        best: int | None = None
        best_free = size - 1  # a candidate must fit the object
        clients = state.clients
        for idx in self._neighbour_indexes(state, owner_idx):
            cache = clients[idx]
            # == cache.free_space: every policy here tracks used units in
            # ``_used`` and the insert paths keep it <= capacity.
            free = cache.capacity - cache._used
            if free > best_free:
                best, best_free = idx, free
        return best

    def _record_store(self, state: _ClusterState, obj: int) -> None:
        """Store receipt: destination confirms, proxy updates directory."""
        self._msg["store_receipts"] += 1
        if obj not in state.p2p_present:
            state.p2p_present.add(obj)
            state.directory.add(obj)

    def _on_client_eviction(self, state: _ClusterState, holder_idx: int, obj: int) -> None:
        """Eviction notice: clean pointers/replicas and the directory.

        With replication, the object only leaves the directory when its
        *last* copy dies — a surviving replica keeps it reachable via
        :meth:`_locate`.
        """
        self._msg["client_evictions"] += 1
        owner = state.owner(obj)
        if owner != holder_idx:
            ptrs = state.pointers.get(owner)
            if ptrs and ptrs.get(obj) == holder_idx:
                del ptrs[obj]
        reps = state.replicas.get(obj)
        if reps:
            reps.discard(holder_idx)
            if not reps:
                del state.replicas[obj]
        if obj in state.p2p_present and self._locate(state, obj, owner) is None:
            state.p2p_present.discard(obj)
            state.directory.remove(obj)

    # -- proxy-side insert (GD on each fetched object) -------------------------

    def _proxy_insert(self, state: _ClusterState, obj: int, cost: float) -> None:
        state.costs[obj] = cost
        for d1 in state.proxy.insert(obj, cost=cost, size=self._size_of(obj)):
            if d1 != obj:
                self._pass_down(state, d1)

    # -- request path -----------------------------------------------------------

    def process(self, cluster: int, client: int, obj: int) -> str:
        """Serve one request on the protocol-chain engine.

        :func:`repro.protocol.chain.serve_miss` under the base transport
        is the paper's fault-free flow; under a fault transport the same
        chain acquires timeout → retry → fallback semantics.
        """
        state = self.states[cluster]
        if state.proxy.lookup(obj):
            return TIER_LOCAL_PROXY
        return serve_miss(self, state, cluster, obj)

    def peer_surface(self) -> PeerSurface | None:
        """The indexed engine's two presence indexes, when it keeps both
        (an exact directory); no other Hier-GD run has any to share."""
        if not self.indexed or self._dir_presence is None:
            return None
        from . import hiergd_indexed

        return hiergd_indexed.peer_surface(self)

    # -- reporting ------------------------------------------------------------------

    def finalize(self) -> tuple[dict[str, int], dict[str, float]]:
        extras: dict[str, float] = {"extra_latency": self.extra_latency}
        total_msgs = sum(s.overlay.stats.messages for s in self.states)
        total_hops = sum(s.overlay.stats.total_hops for s in self.states)
        if total_msgs:
            extras[f"mean_{self.states[0].overlay.name}_hops"] = total_hops / total_msgs
        extras["directory_bytes"] = float(
            sum(s.directory.memory_bytes() for s in self.states)
        )
        extras["p2p_objects"] = float(sum(len(s.p2p_present) for s in self.states))
        messages = dict(self._msg)
        if self.transport.faulty:
            messages["dropped_eviction_notices"] = sum(
                s.directory.dropped_notices
                for s in self.states
                if isinstance(s.directory, LossyDirectory)
            )
        return messages, extras
