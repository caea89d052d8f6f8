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

The request path — :meth:`HierGdScheme.process`, ``_proxy_insert``,
``_pass_down`` and ``_push_stage`` — is written once and serves every
run: any sizes, a ``transport.faulty`` stack, membership that changes
mid-run.  Which index a step asks is decided by what the state holds,
never by a flag; the constructor builds the cluster states and these
indexes, each exact on the runs listed:

* ``owner_of`` — placement, object -> owner client index, against the
  current overlay epoch: the whole table, built up front over bulk joins,
  on a unit-size static run (fault-free, fixed membership); elsewhere a
  memo filled on first touch through the cluster's :class:`Dht`;
* ``member_maps`` — each client cache's own membership dict, so "does
  this client hold it" is one dict probe (every run);
* ``free_clients`` — ``{k : capacity − used > 0}`` (every run): the
  engine updates it after each insert it makes, ``_replicate`` after each
  replica store, :meth:`IndexedCluster.fail` / ``join``; diversion filters
  its neighbour scan by it and skips the scan when it is empty;
* ``p2p_present`` — what the P2P cache stores (every run); while the
  scheme's ``mutates_membership`` is false, anything ``_locate`` can
  find is listed, so it gates the pass-down's "already stored?"
  ``_locate``.  Under churn ``_locate`` repairs directory entries as a
  side effect and every pass-down asks it; an eviction notice asks only
  about objects ``p2p_present`` lists on every run.  On a static run
  with an exact directory it *is* the directory's backing set, so a
  store receipt or an eviction notice is one set operation;
* ``dir_probe`` — the directory's own membership structure (its
  ``members``), step 2's probe and ``_push_stage``'s: Bloom false
  positives and stale entries are modelled behaviour and must keep
  happening.  Wherever ``p2p_present`` is another set, the directory's
  own ``add`` / ``remove`` apply (a lossy one may drop a notice);
* the scheme's ``_proxy_presence`` (every run) and ``_dir_presence``
  (exact directory, static run) — which clusters hold an object
  (:mod:`repro.core.presence`); without the latter, step 4 is
  ``_push_stage``'s scan, so a false positive or a stale entry keeps
  costing its wasted round.

Every holder is found through ``_locate`` — which, on a run with churn,
repairs the directory entry of an object it cannot find — after the
owner's membership dict; ``LOOKUP_QUERY`` and ``PROXY_FETCH`` are asked
of the transport only when a fault layer is present.  The greedy-dual
proxy hit, the presence-index updates and the sizes are inlined, and
inserts of known-absent keys go through ``insert_absent``.  The naive
model of all this — one pass-down, one scan-everything miss chain, every
hop through the transport — is ``tests/integration/chain_model.py``; the
equivalence suite (``test_hotpath_equivalence.py``) holds the engine to
it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..cache import Cache, GreedyDualCache, LfuCache, LruCache
from ..netmodel import (
    TIER_COOP_P2P,
    TIER_COOP_PROXY,
    TIER_LOCAL_P2P,
    TIER_LOCAL_PROXY,
    TIER_SERVER,
)
from ..overlay import (
    Dht,
    OverlayBackend,
    build_owner_table,
    make_overlay,
    object_ids_for_urls,
)
from ..protocol.messages import LOOKUP_QUERY, PROXY_FETCH, PUSH
from ..protocol.transport import Transport
from ..workload import Trace, object_url
from .churn import ChurnEvent
from .config import SimulationConfig
from .directory import LookupDirectory, LossyDirectory, make_directory
from .presence import PeerSurface, PresenceIndex
from .simulator import CachingScheme

__all__ = ["HierGdScheme", "IndexedCluster", "member_map"]


class _FirstTouchOwners(dict):
    """A cluster's object -> owner table, filled as objects are first asked for.

    A missing key is resolved through the cluster's :class:`Dht` — whose
    memo-miss counter decides which keys are also routed for the hop
    statistic, so *when* an object is first asked for is observable in
    ``mean_<overlay>_hops`` — and kept; every later ``[]`` is a plain
    dict probe.
    """

    __slots__ = ("_state",)

    def __init__(self, state: IndexedCluster) -> None:
        self._state = state

    def __missing__(self, obj: int) -> int:
        state = self._state
        idx = state.idx_of_node[state.dht.owner(state.object_keys[obj])]
        self[obj] = idx
        return idx


@dataclass(slots=True)
class IndexedCluster:
    """One proxy + its P2P client cache at runtime, and the indexes its
    requests are served from (module docstring)."""

    proxy: Cache
    clients: list[Cache]
    overlay: OverlayBackend
    dht: Dht
    idx_of_node: dict[int, int]
    node_of_idx: list[int]
    directory: LookupDirectory
    #: This cluster's id in the presence indexes (a shard peer view
    #: re-keys it to the global index).
    cluster: int
    #: Whether placement is resolved on first touch instead of tabulated
    #: up front (every run but a unit-size fault-free static one).
    first_touch: bool
    #: objectId per object: one SHA-1 pass per run, shared by every cluster.
    object_keys: np.ndarray | None = None
    #: Ground truth: objects currently stored somewhere in the P2P cache
    #: (the exact directory's own set on a static run).
    p2p_present: set[int] = field(default_factory=set)
    #: Owner-side diversion pointers: owner idx -> {obj -> holder idx}.
    pointers: dict[int, dict[int, int]] = field(default_factory=dict)
    #: PAST-style extra copies: obj -> replica holder idxs (primary excluded).
    replicas: dict[int, set[int]] = field(default_factory=dict)
    #: Last retrieval cost per object (greedy-dual's cost input).
    costs: dict[int, float] = field(default_factory=dict)
    #: First-touch placement, object -> owner client index; a membership
    #: change drops it wholesale.
    owner_memo: _FirstTouchOwners = field(init=False)
    #: DHT placement, object id -> owner client index: the whole table,
    #: or ``owner_memo`` when :attr:`first_touch`.
    owner_of: list[int] | dict[int, int] = field(default_factory=list)
    #: Per client index: overlay neighbourhood (Pastry leaf set / Chord
    #: successor list) as client indexes, in the backend's contract order
    #: — the candidates diversion and replication walk.  Empty for a
    #: failed client, which owns nothing.
    neighbour_idx: list[list[int]] = field(default_factory=list)
    #: Overlay epoch the placement tables were built against.
    built_epoch: int = -1
    #: Client indexes with free space, ``{k : capacity − used > 0}``.
    free_clients: set[int] = field(default_factory=set)
    #: Per client: that cache's membership dict (friend access), so
    #: ``contains`` is one dict probe — ``_locate``'s on every run.
    #: ``Cache.clear`` keeps a dict's identity; a joining client appends
    #: its own.
    member_maps: list[dict] = field(default_factory=list)
    #: Directory membership probe (step 2, the push scan): the
    #: directory's ``members``.
    dir_probe: Any = None
    #: Failed client indexes (their slots stay, dead).
    dead: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.owner_memo = _FirstTouchOwners(self)

    def fail(self, client: int, locate: Callable[..., int | None]) -> int:
        """Client ``client``'s machine is gone: cache contents, pointer
        table and overlay membership vanish at once.  Returns how many
        objects it held.

        Diversion pointers and replica entries naming the dead cache are
        swept (the owners notice their neighbourhood member die through
        overlay repair).  An object leaves ``p2p_present`` only if its
        *last* copy died, which the scheme's ``_locate`` answers without
        repair; the directory is repaired lazily, on failed lookups.
        """
        cache = self.clients[client]
        lost = list(cache.keys())
        cache.clear()
        if cache.capacity > 0:
            self.free_clients.add(client)
        self.pointers.pop(client, None)
        self.overlay.fail(self.node_of_idx[client])
        self.dead.add(client)
        # DHT placement shifted: the owner memo is stale wholesale.
        self.owner_memo.clear()
        for ptrs in self.pointers.values():
            stale = [obj for obj, holder in ptrs.items() if holder == client]
            for obj in stale:
                del ptrs[obj]
        for obj in lost:
            reps = self.replicas.get(obj)
            if reps:
                reps.discard(client)
                if not reps:
                    del self.replicas[obj]
            if locate(self, obj, None, False) is None:
                self.p2p_present.discard(obj)
        return len(lost)

    def join(self, name: str, cache: Cache) -> None:
        """A new machine joins the overlay as ``name`` with ``cache``,
        under the next client index.

        Placement shifts toward the newcomer: objects it now owns but
        does not hold become unreachable at their old holders and are
        repaired lazily, as after a failure.
        """
        idx = len(self.clients)
        node = self.overlay.add_named(name)
        self.node_of_idx.append(node.node_id)
        self.idx_of_node[node.node_id] = idx
        self.clients.append(cache)
        self.member_maps.append(member_map(cache))
        if cache.capacity > 0:
            self.free_clients.add(idx)
        self.owner_memo.clear()

    def build_placement(self) -> None:
        """(Re)build the placement tables against the current overlay epoch.

        Up front, a sampled subset of keys is routed hop-by-hop so the
        mean-hops extra stays populated, each delivery asserted against
        the table; on first touch, the :class:`Dht` does the sampling.
        """
        overlay = self.overlay
        idx_of_node = self.idx_of_node
        if self.first_touch:
            self.owner_memo.clear()
            self.owner_of = self.owner_memo
        else:
            owners = build_owner_table(
                overlay,
                self.object_keys,
                sample_rate=self.dht.hop_sample_rate,
                record_stats=True,
            )
            self.owner_of = [idx_of_node[nid] for nid in owners]
        self.neighbour_idx = [
            [idx_of_node[nb] for nb in overlay.neighbourhood(nid)]
            if nid in overlay
            else []
            for nid in self.node_of_idx
        ]
        self.built_epoch = overlay.epoch

    def owner(self, obj: int) -> int:
        """Client index of the DHT owner of ``obj`` in this cluster."""
        if self.built_epoch != self.overlay.epoch:
            self.build_placement()
        return self.owner_of[obj]


def member_map(cache: Cache) -> dict:
    """The cache's key-membership dict (friend access; identity is
    stable — no policy rebinds it after construction)."""
    if isinstance(cache, LfuCache):
        return cache._sizes
    return cache._entries  # GreedyDualCache and LruCache


class HierGdScheme(CachingScheme):
    """The practical scheme: GD caches + Pastry P2P tier + directories."""

    name = "hier-gd"

    def __init__(
        self,
        config: SimulationConfig,
        traces: list[Trace],
        transport: Transport | None = None,
        events: list[ChurnEvent] | None = None,
    ) -> None:
        super().__init__(config, traces, transport)
        net = config.network
        self._t_server = net.t_server
        self._t_coop = net.t_coop
        self._t_p2p = net.t_p2p
        #: Read once: whether the cooperation hops are exchanges that can
        #: fail (a fault layer somewhere in the stack).
        self._faulty = self.transport.faulty
        #: Where a directory over-claim is counted: a stale entry under
        #: fault injection (exact directories go stale through dropped
        #: eviction notices), a false positive otherwise (Bloom).
        self._overclaim_key = (
            "stale_directory_hits"
            if self._faulty and config.directory == "exact"
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
        #: Whether clients fail or join mid-run: exactly the runs given a
        #: schedule, even an empty one.  With ``transport.faulty``, what
        #: the engine reads to tell whether its indexes can mirror the
        #: directories; on its own, whether ``p2p_present`` lists all
        #: ``_locate`` can find.
        self.mutates_membership = events is not None
        # Pinned as it is (ROADMAP item 1(a)): without a fault layer an
        # eviction notice's probe repairs like a lookup, and the entry is
        # then removed a second time.
        self._notice_repairs = self.mutates_membership and not self._faulty
        if events is not None:
            self._schedule(events)

        # -- the cluster states and their indexes (module docstring) --------
        #: Whether nothing can make a directory diverge from what the client
        #: caches hold: no fault layer drops a notice, no client fails or joins.
        static = not (self._faulty or self.mutates_membership)
        sized = self.sizes is not None
        #: Greedy-dual caches: the proxy hit path (the single hottest branch
        #: of the whole simulator) is inlined.
        self._gd_inline = config.hiergd_policy == "gd"
        #: object -> clusters whose *proxy* currently caches it (step 3).
        self._proxy_presence = PresenceIndex()
        #: object -> clusters whose exact directory lists it (step 4); None
        #: under Bloom directories, whose false positives must keep firing,
        #: and wherever entries go stale — step 4 is the scan there.
        exact = static and config.directory == "exact"
        self._dir_presence = PresenceIndex() if exact else None
        #: Mean object size (bytes) when sized — converts byte-denominated
        #: capacities into expected object counts for directory sizing.
        mean_size = float(self.sizes.mean()) if sized else 1.0
        # Placement is resolved on first touch (hops sampled from routes
        # over one-by-one joins) everywhere but a unit-size static run,
        # which takes the bulk build and a whole owner table up front.
        # Both feed ``mean_<overlay>_hops``, which result digests pin.
        first_touch = sized or not static
        self.states = states = []
        for ci, sizing in enumerate(self.sizings):
            overlay = make_overlay(config)
            names = [f"cluster{ci}/cache{k}" for k in range(sizing.n_clients)]
            # Join order shapes the overlay's routing tables (not its
            # placement), which the sampled hop statistic reads.
            if first_touch:
                nodes = [overlay.add_named(name) for name in names]
            else:
                nodes = overlay.bulk_add_named(names)
            node_of_idx = [node.node_id for node in nodes]
            state = IndexedCluster(
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
                        capacity=max(1, round(sizing.p2p_size / mean_size)),
                        fp_rate=config.bloom_fp_rate,
                    ),
                    ci,
                ),
                cluster=ci,
                first_touch=first_touch,
            )
            state.member_maps = [member_map(c) for c in state.clients]
            # Caches start empty: free <=> nonzero capacity.
            state.free_clients = {
                k for k, c in enumerate(state.clients) if c.capacity > 0
            }
            state.dir_probe = state.directory.members
            if exact:
                state.p2p_present = state.dir_probe
            states.append(state)
        n_objects = 0
        for trace in self.traces:
            if len(trace.object_ids):
                n_objects = max(n_objects, int(trace.object_ids.max()) + 1)
        object_keys = object_ids_for_urls(
            [object_url(i) for i in range(n_objects)], states[0].overlay.space
        )
        for state in states:
            state.object_keys = object_keys
        #: Cluster id -> its state, or None for a cluster served elsewhere (a
        #: shard peer view narrows this to the clusters its worker owns).
        self._state_at = states.__getitem__

    # -- client churn ------------------------------------------------------------

    def _schedule(self, events: list[ChurnEvent]) -> None:
        """Carry ``events`` (:mod:`repro.core.churn`), which the engine
        fires as they fall due; refuse a schedule that names a cluster
        or a client that is not there, or fails a client twice."""
        self.name = "hier-gd-churn"
        self._events = sorted(events, key=lambda e: e.at_request)
        n_clients = [s.n_clients for s in self.sizings]
        dead: list[set[int]] = [set() for _ in n_clients]
        for ev in self._events:
            if not 0 <= ev.cluster < len(n_clients):
                raise ValueError(f"event cluster {ev.cluster} out of range")
            if ev.kind == "join":
                n_clients[ev.cluster] += 1  # the newcomer takes the next index
            elif ev.client in dead[ev.cluster]:
                raise ValueError(
                    f"client {ev.client} of cluster {ev.cluster} already failed"
                )
            elif not 0 <= ev.client < n_clients[ev.cluster]:
                raise ValueError(f"client {ev.client} out of range")
            else:
                dead[ev.cluster].add(ev.client)
        self._next_event = 0
        #: Requests served so far, and the count at which the engine next
        #: calls :meth:`_fire_due_events` (which moves it on).
        self._processed = 0
        self._next_due = 0
        self._msg.update(
            dict.fromkeys(
                ("client_failures", "client_joins", "objects_lost", "directory_repairs"), 0
            )
        )

    def _fire_due_events(self) -> None:
        events = self._events
        msg = self._msg
        while (
            self._next_event < len(events)
            and events[self._next_event].at_request <= self._processed
        ):
            ev = events[self._next_event]
            self._next_event += 1
            state = self.states[ev.cluster]
            if ev.kind == "fail":
                msg["client_failures"] += 1
                msg["objects_lost"] += state.fail(ev.client, self._locate)
            else:
                msg["client_joins"] += 1
                state.join(
                    f"cluster{ev.cluster}/cache{len(state.clients)}",
                    self._make_cache(self.sizings[ev.cluster].client_size),
                )
        self._next_due = (
            events[self._next_event].at_request
            if self._next_event < len(events)
            else float("inf")
        )

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

    # -- locating and replicating stored objects ------------------------------

    def _locate(
        self,
        state: IndexedCluster,
        obj: int,
        owner: int | None = None,
        repair: bool = True,
    ) -> int | None:
        """Actual holder of ``obj``: owner, divertee, or a live replica.

        Callers that already resolved the owner pass it in so the DHT
        placement is computed once per request, not once per step.  Each
        "does this client hold it" is one probe of the cache's own
        membership dict (``state.member_maps``).  On a run with churn, a
        lookup that finds no holder repairs the proxy's directory lazily,
        as a deployment would; ``repair=False`` only asks (a failure's
        "did the last copy die?", an eviction notice's probe).
        """
        if owner is None:
            owner = state.owner(obj)
        member_maps = state.member_maps
        if obj in member_maps[owner]:
            return owner
        holder = state.pointers.get(owner, {}).get(obj)
        if holder is not None and obj in member_maps[holder]:
            return holder
        reps = state.replicas.get(obj)
        if reps:
            for idx in list(reps):
                if obj in member_maps[idx]:
                    return idx
                reps.discard(idx)  # lazily drop dead replica entries
            if not reps:
                del state.replicas[obj]
        if repair and self.mutates_membership:
            # Reachability lost through churn (owner moved): the object
            # physically exists but the DHT can no longer find it.  Treat
            # it as lost — it will age out of its old holder's cache.
            state.p2p_present.discard(obj)
            # ``dir_probe`` is the directory's own membership structure on
            # a churning run: the probe enters no directory wrapper.
            if obj in state.dir_probe:
                # The proxy fixing its own table is local: under a fault
                # transport ``repair()`` bypasses the lossy eviction-notice
                # channel (plain directories: the same as ``remove``).
                state.directory.repair(obj)
                self._msg["directory_repairs"] += 1
        return None

    def _replicate(
        self,
        state: IndexedCluster,
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
                if cache._used >= cache.capacity:
                    state.free_clients.discard(idx)
                state.replicas.setdefault(obj, set()).add(idx)
                self._msg["replicas_stored"] += 1
                extra -= 1

    def peer_surface(self) -> PeerSurface | None:
        """What clusters share in steps 3-4 of the miss chain: proxy and
        directory membership, and step 4's GD credit refresh at the holder.
        Only a run that keeps both presence indexes (an exact directory
        nothing can make stale) has any to share."""
        if self._dir_presence is None:
            return None
        states = self.states

        def rekey(ids: list[int], total: int) -> None:
            for state, g in zip(states, ids):
                state.cluster = g
            self._state_at = dict(zip(ids, states)).get

        def on_push(i: int, obj: int) -> bool:
            # Listed objects were passed down, so the placement is built.
            return obj in states[i].p2p_present and self._refresh_holder(states[i], obj)

        return PeerSurface(
            [
                (self._proxy_presence, [member_map(s.proxy) for s in states]),
                (self._dir_presence, [s.p2p_present for s in states]),
            ],
            rekey,
            on_push,
        )

    # -- Figure 1: pass-down with object diversion ---------------------------------

    def _pass_down(self, state: IndexedCluster, obj: int) -> None:
        """Figure 1: destage a proxy-evicted object into the P2P client cache.

        Route to the destination cache A; with room there, store; otherwise
        divert to the overlay neighbour with the most room (A keeps a
        pointer, §4.3); otherwise A replaces, and each of its victims is
        discarded after an eviction notice.  Store receipts and eviction
        notices are inlined.
        """
        msg = self._msg
        msg["passdowns"] += 1
        clients = state.clients
        member_maps = state.member_maps
        owner_of = state.owner_of
        owner_idx = owner_of[obj]
        # Under churn ``_locate`` repairs as it looks, so it is always asked;
        # with fixed membership it can find only what ``p2p_present`` lists.
        churn = self.mutates_membership
        if churn or obj in state.p2p_present:
            holder = (
                owner_idx
                if obj in member_maps[owner_idx]
                else self._locate(state, obj, owner_idx)
            )
            if holder is not None:
                # Already stored (e.g. destaged before and later promoted back
                # up): refresh its greedy-dual credit instead of duplicating.
                clients[holder].lookup(obj)
                return

        cost = state.costs.get(obj, self._t_server)
        sizes = self._size_list
        size = 1 if sizes is None else sizes[obj]
        free = state.free_clients
        owner_cache = clients[owner_idx]
        dir_presence = self._dir_presence
        # (3)-(5): room at the destination; else (7)-(10): the neighbourhood
        # member with the most room, if any has enough.  A client outside
        # ``free`` has none, so filtering keeps the scan's order and ties.
        owner_free = owner_idx in free
        if owner_free and owner_cache.capacity - owner_cache._used >= size:
            target = owner_idx
        else:
            target = None
            if free and self._diversion:
                best_free = size - 1
                for idx in state.neighbour_idx[owner_idx]:
                    if idx in free:
                        c = clients[idx]
                        f = c.capacity - c._used
                        if f > best_free:
                            target, best_free = idx, f
        if target is not None:
            cache = clients[target]
            # The owner does not hold obj (asked above); a divertee may — a
            # copy a membership change left unreachable — and then the
            # insert is a refresh.
            if target == owner_idx or obj not in member_maps[target]:
                cache.insert_absent(obj, cost, size)
            else:
                cache.insert(obj, cost=cost, size=size)
            if cache._used >= cache.capacity:
                free.discard(target)
            if target != owner_idx:
                state.pointers.setdefault(owner_idx, {})[obj] = target
                msg["diversions"] += 1
        else:
            # (12)-(14): replacement at the destination, as many victims as
            # the object's size takes; each is discarded (§3) after its notice.
            evicted = owner_cache.insert_absent(obj, cost, size)
            if owner_cache._used < owner_cache.capacity:
                free.add(owner_idx)  # sized victims may leave room behind
            elif owner_free:
                free.discard(owner_idx)
            present = state.p2p_present
            for d2 in evicted:
                if d2 == obj:
                    return  # no room at any eviction cost: rejected
                # The notice: clean pointers and replicas, and the directory
                # once the *last* copy died.  Its reachability probe is
                # ``_locate`` repairing only where ``_notice_repairs`` says so,
                # unrolled: the owner, then the diversion pointer, then —
                # wherever the probe can find more (replicas) or has side
                # effects (churn) — ``_locate`` itself.
                msg["client_evictions"] += 1
                d2_owner = owner_of[d2]
                ptrs = state.pointers.get(d2_owner)
                if d2_owner != owner_idx and ptrs is not None and ptrs.get(d2) == owner_idx:
                    del ptrs[d2]
                reps = state.replicas.get(d2)
                if reps:
                    reps.discard(owner_idx)
                    if not reps:
                        del state.replicas[d2]
                        reps = None
                if d2 not in present or d2 in member_maps[d2_owner]:
                    continue
                if ptrs is not None:
                    holder2 = ptrs.get(d2)
                    if holder2 is not None and d2 in member_maps[holder2]:
                        continue
                if (reps or churn) and self._locate(
                    state, d2, d2_owner, self._notice_repairs
                ) is not None:
                    continue
                present.discard(d2)
                if dir_presence is None:
                    state.directory.remove(d2)
                else:
                    # ``present`` is the exact directory's set; the inlined
                    # PresenceIndex.discard on the directory index (d2 was
                    # listed, so its bit is set).
                    holders = dir_presence._holders
                    mask = holders[d2]
                    bit = 1 << state.cluster
                    if mask == bit:
                        del holders[d2]
                    else:
                        holders[d2] = mask ^ bit
        # Store receipt: obj is new to the cluster's P2P cache (``_locate``
        # found no holder), so the directory adds it once.
        msg["store_receipts"] += 1
        state.p2p_present.add(obj)
        if dir_presence is None:
            state.directory.add(obj)
        else:
            # ``p2p_present`` is the exact directory's set; the inlined
            # PresenceIndex.add on the directory index.
            holders = dir_presence._holders
            holders[obj] = holders.get(obj, 0) | 1 << state.cluster
        if self._replicas_extra > 0:
            self._replicate(
                state, obj, cost,
                owner_idx if target is None else target,
                state.neighbour_idx[owner_idx],
            )

    # -- proxy-side insert (GD on each fetched object) -----------------------------

    def _proxy_insert(self, state: IndexedCluster, obj: int, cost: float) -> None:
        """Cache a just-fetched object at the proxy (greedy-dual on every
        fetched object, §3) and destage its victims.

        Callers reach this only after ``obj`` missed the proxy, which is
        what ``insert_absent`` requires.  The proxy presence index's ``add``
        / ``discard`` are inlined.
        """
        state.costs[obj] = cost
        sizes = self._size_list
        evicted = state.proxy.insert_absent(obj, cost, 1 if sizes is None else sizes[obj])
        holders = self._proxy_presence._holders
        bit = 1 << state.cluster
        for d1 in evicted:
            if d1 == obj:
                return  # larger than the whole proxy cache: rejected
            mask = holders[d1]  # d1 was cached here: its bit is set
            if mask == bit:
                del holders[d1]
            else:
                holders[d1] = mask ^ bit
            self._pass_down(state, d1)
        holders[obj] = holders.get(obj, 0) | bit

    # -- request path ---------------------------------------------------------------

    def _refresh_holder(self, state: IndexedCluster, obj: int) -> bool:
        """The push protocol's effect at the serving cluster: a GD credit
        refresh at whichever client holds ``obj`` (False if none does)."""
        owner = state.owner_of[obj]
        holder = (
            owner
            if obj in state.member_maps[owner]
            else self._locate(state, obj, owner)
        )
        if holder is None:
            return False
        state.clients[holder].lookup(obj)
        return True

    def process(self, cluster: int, client: int, obj: int) -> str:
        """Serve one request: proxy, own P2P cache, cooperating proxies,
        their P2P caches (push protocol), origin server.

        The run's membership events fall due by request index, before the
        request is served.  Under a fault layer each cooperation hop is an
        exchange that can time out: a failed one drops the request to the
        next step, ultimately to the origin server, which never fails (why
        faulty Hier-GD degrades toward NC, never below it).
        """
        if self.mutates_membership:
            n = self._processed
            if n >= self._next_due:
                self._fire_due_events()
            self._processed = n + 1
        state = self.states[cluster]
        proxy = state.proxy
        # 1. Local proxy cache.  ~3 of every 4 requests end right here, so
        # with GD proxies the hit path is inlined (friend access into the
        # cache's record: exactly the two slots ``GreedyDualCache.lookup``
        # writes).
        if self._gd_inline:
            rec = proxy._entries.get(obj)
            if rec is not None:
                seq = proxy._seq + 1
                proxy._seq = seq
                rec[2] = proxy.inflation + rec[1]
                rec[3] = seq
                proxy.stats.hits += 1
                return TIER_LOCAL_PROXY
            proxy.stats.misses += 1
        elif proxy.lookup(obj):
            return TIER_LOCAL_PROXY
        if state.built_epoch != state.overlay.epoch:
            state.build_placement()
        msg = self._msg
        faulty = self._faulty

        # 2. Own P2P client cache: a directory claim sends one LOOKUP_QUERY
        # into the overlay (``dir_probe``: the directory's membership
        # structure).  An over-claim — a Bloom false positive, a stale entry —
        # wastes the Tp2p round; on ladder exhaustion the redirect is
        # abandoned unserved (a stale entry survives undetected: the proxy
        # never learned it was wrong).
        if obj in state.dir_probe:
            msg["p2p_lookups"] += 1
            if not faulty or self.transport.attempt(LOOKUP_QUERY):
                owner = state.owner_of[obj]
                holder = (
                    owner
                    if obj in state.member_maps[owner]
                    else self._locate(state, obj, owner)
                )
                if holder is not None:
                    state.clients[holder].lookup(obj)  # GD credit refresh
                    if self._promote:
                        self._proxy_insert(state, obj, self._t_p2p)
                    return TIER_LOCAL_P2P
                msg[self._overclaim_key] += 1
                self.add_extra_latency(self._t_p2p)

        # 3. Cooperating proxies' own caches first (cheaper than a push); a
        # spent retry budget falls back a tier, it does not try the next
        # proxy.  Any holder but this cluster will do (a holder bit besides
        # its own): serving needs no holder-side mutation, so a holder in
        # another shard (present as of the last round boundary) serves
        # exactly like a local one.
        me = state.cluster
        others = ~(1 << me)
        if self._proxy_presence._holders.get(obj, 0) & others and (
            not faulty or self.transport.attempt(PROXY_FETCH)
        ):
            self._proxy_insert(state, obj, self._t_coop)
            return TIER_COOP_PROXY
        # ... then their P2P client caches through the push protocol.
        dir_presence = self._dir_presence
        if dir_presence is not None:
            # Exact directories nothing can make stale: the first listed
            # cluster (inlined PresenceIndex.first_holder) serves, with one
            # push request and no hop to fail.  A holder in another shard is
            # refreshed through a queued push record (one proxy lookup per
            # request: accesses - 1 is its index).
            listed = dir_presence._holders.get(obj, 0) & others
            if listed:
                other = (listed & -listed).bit_length() - 1
                msg["push_requests"] += 1
                other_state = self._state_at(other)
                if other_state is None:
                    self._queue_remote_push(proxy.stats.accesses - 1, me, other, obj)
                else:
                    self._refresh_holder(other_state, obj)
                self._proxy_insert(state, obj, self._t_coop + self._t_p2p)
                return TIER_COOP_P2P
        else:
            tier = self._push_stage(state, cluster, obj)
            if tier is not None:
                return tier

        # 4. Origin server.
        self._proxy_insert(state, obj, self._t_server)
        return TIER_SERVER

    def _push_stage(self, state: IndexedCluster, cluster: int, obj: int) -> str | None:
        """Step 3, continued, wherever a directory can over-claim (Bloom
        filters, exact directories gone stale under faults or churn): other
        clusters' P2P caches through the push protocol (§4.5), scanned in
        ascending order.  Returns the serving tier or None.

        Each remote directory claim costs one ``PUSH`` round trip.  An
        over-claiming directory wastes ``Tc + Tp2p``; an unresponsive holder
        (firewalled/hung client, §4.3) never answers, so the proxy pays the
        whole timeout ladder before moving on.  Under the base transport
        every attempt succeeds; under a fault layer a failed exchange moves
        on to the next claiming cluster, ultimately to the origin server.
        """
        msg = self._msg
        transport = self.transport
        for other, other_state in enumerate(self.states):
            if other == cluster or obj not in other_state.dir_probe:
                continue
            msg["push_requests"] += 1
            holder = self._locate(other_state, obj)
            if holder is None:
                msg[self._overclaim_key] += 1
                self.add_extra_latency(self._t_coop + self._t_p2p)
                continue
            if transport.unresponsive(other, holder):
                transport.attempt(PUSH, force_fail=True)
                msg["failed_pushes"] += 1
                continue
            if transport.attempt(PUSH):
                other_state.clients[holder].lookup(obj)  # GD credit refresh
                self._proxy_insert(state, obj, self._t_coop + self._t_p2p)
                return TIER_COOP_P2P
            msg["failed_pushes"] += 1
        return None

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
        # Every pass-down is one destage, over the connection the config says.
        messages[self._destage_key] = messages["passdowns"]
        if self.transport.faulty:
            messages["dropped_eviction_notices"] = sum(
                s.directory.dropped_notices
                for s in self.states
                if isinstance(s.directory, LossyDirectory)
            )
        if self.mutates_membership:
            extras["live_clients"] = float(
                sum(len(s.clients) - len(s.dead) for s in self.states)
            )
        return messages, extras
