"""Hier-GD's indexed request engine.

Same algorithm as the protocol-chain engine in :mod:`repro.core.hiergd`
(Figure 1 pass-down, diversion, directories, push protocol), answered
from indexes instead of scans and per-object resolution: placement
tables (:mod:`repro.overlay.placement`), cross-cluster presence indexes
(:mod:`repro.core.presence`), membership maps, and the greedy-dual hit
and known-absent insert paths without their general-case branches.

Those shortcuts hold for a transport that never fails an exchange (the
hops are inlined away) and a membership that never changes mid-run,
which is why :class:`~repro.core.hiergd.HierGdScheme` gives a run this
engine only then.  Object sizes split the engine in two without a
branch on either side:

* unit sizes (:func:`process`, :func:`proxy_insert`, :func:`pass_down`)
  — the whole owner table is built up front, client caches only ever
  fill (free-client sets) and every insert is one unit;
* sized workloads (:func:`process_sized`, :func:`proxy_insert_sized`,
  :func:`pass_down_sized`) — the owner table is the chain's first-touch
  one, so the hop statistic samples the same keys; free space is
  ``capacity - used >= size`` per candidate, because a multi-victim
  eviction can leave a full cache with room again; inserts carry the
  size.  They spell the steps with the helpers the unit functions
  inline (:func:`refresh_holder`, :func:`client_evicted`,
  :func:`record_store`, the :class:`PresenceIndex` methods).

Like the chain's stages, the engine is free functions over the scheme;
:func:`install` builds the indexes and binds the pair that fits as the
scheme's ``process`` / ``_proxy_insert``.  The engine equivalence suite
(``tests/integration/test_hotpath_equivalence.py``) holds it to the chain
engine's results — ``mean_<overlay>_hops`` excepted on unit-size runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MethodType
from typing import Any

from ..cache import Cache, LfuCache
from ..netmodel import (
    TIER_COOP_P2P,
    TIER_COOP_PROXY,
    TIER_LOCAL_P2P,
    TIER_LOCAL_PROXY,
    TIER_SERVER,
)
from ..overlay import build_owner_table
from ..protocol.chain import push_stage
from .hiergd import _ClusterState
from .presence import PeerSurface, PresenceIndex

__all__ = ["IndexedCluster", "install"]


@dataclass(slots=True)
class IndexedCluster(_ClusterState):
    """A cluster's state plus the indexes its requests are served from."""

    #: This cluster's id in the presence indexes (a shard peer view
    #: re-keys it to the global index).
    cluster: int = -1
    #: Whether placement is resolved on first touch (sized runs) instead
    #: of tabulated up front.
    first_touch: bool = False
    #: DHT placement, object id -> owner client index: the whole table,
    #: or ``owner_memo`` when :attr:`first_touch`.
    owner_of: list[int] | dict[int, int] = field(default_factory=list)
    #: Per client index: overlay neighbourhood (Pastry leaf set / Chord
    #: successor list) as client indexes, in the backend's contract order
    #: so diversion/replication walk the same candidates as the chain.
    neighbour_idx: list[list[int]] = field(default_factory=list)
    #: Overlay epoch the placement tables were built against.
    built_epoch: int = -1
    #: Client indexes with free space (unit sizes: client caches only
    #: ever fill; unused by the sized functions).
    free_clients: set[int] = field(default_factory=set)
    #: Per client: that cache's membership dict (friend access), so
    #: ``contains`` is one dict probe.
    member_maps: list[dict] = field(default_factory=list)
    #: Exact directory's backing set (friend access) — None under Bloom,
    #: where add/remove must go through the filter's methods.
    dir_set: set | None = None
    #: Step-2 membership probe: the ``p2p_present`` set when the
    #: directory is exact (identical membership, cheaper probe), the
    #: directory itself when it is a Bloom filter (false positives are
    #: modelled behaviour and must keep happening).
    dir_probe: Any = None

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
            for nid in self.node_of_idx
        ]
        self.built_epoch = overlay.epoch

    def owner(self, obj: int) -> int:
        if self.built_epoch != self.overlay.epoch:
            self.build_placement()
        return self.owner_of[obj]


def _member_map(cache: Cache) -> dict:
    """The cache's key-membership dict (friend access; identity is
    stable — no policy rebinds it after construction)."""
    if isinstance(cache, LfuCache):
        return cache._sizes
    return cache._entries  # GreedyDualCache and LruCache


def install(scheme: Any) -> None:
    """Index ``scheme``'s finished cluster states and bind the engine."""
    config = scheme.config
    #: Greedy-dual caches: ``process`` inlines the proxy hit path (the
    #: single hottest branch of the whole simulator) and inserts go
    #: through ``insert_absent``.
    scheme._gd_inline = config.hiergd_policy == "gd"
    #: object -> clusters whose *proxy* currently caches it (step 3).
    scheme._proxy_presence = PresenceIndex()
    #: object -> clusters whose exact directory lists it (step 4); None
    #: under Bloom directories, whose false positives must keep firing,
    #: so step 4 keeps the chain's scan there.
    scheme._dir_presence = PresenceIndex() if config.directory == "exact" else None
    #: Cluster id -> its state, or None for a cluster served elsewhere (a
    #: shard peer view narrows this to the clusters its worker owns).
    scheme._state_at = scheme.states.__getitem__
    sized = scheme.sizes is not None
    for ci, state in enumerate(scheme.states):
        state.cluster = ci
        state.first_touch = sized
        # Caches start empty: free <=> nonzero capacity.
        state.free_clients = {
            k for k, c in enumerate(state.clients) if c.capacity > 0
        }
        state.member_maps = [_member_map(c) for c in state.clients]
        if scheme._dir_presence is None:
            state.dir_probe = state.directory
        else:
            state.dir_set = state.directory._entries
            state.dir_probe = state.p2p_present
    scheme.process = MethodType(process_sized if sized else process, scheme)
    scheme._proxy_insert = MethodType(
        proxy_insert_sized if sized else proxy_insert, scheme
    )


def peer_surface(self: Any) -> PeerSurface:
    """What clusters share in steps 3-4 of the miss chain: proxy and
    directory membership, and step 4's GD credit refresh at the holder."""
    states = self.states

    def rekey(ids: list[int], total: int) -> None:
        for state, g in zip(states, ids):
            state.cluster = g
        self._state_at = dict(zip(ids, states)).get

    def on_push(i: int, obj: int) -> bool:
        # Listed objects were passed down, so the placement is built.
        return obj in states[i].p2p_present and refresh_holder(self, states[i], obj)

    return PeerSurface(
        [
            (self._proxy_presence, [_member_map(s.proxy) for s in states]),
            (self._dir_presence, [s.p2p_present for s in states]),
        ],
        rekey,
        on_push,
    )


# -- Figure 1: pass-down with object diversion -----------------------------


def pass_down(self: Any, state: IndexedCluster, obj: int) -> None:
    """The chain's ``_pass_down`` with every helper inlined.

    Same Figure-1 mechanism, three structural shortcuts (each held
    equivalent by the engine equivalence suite):

    * the already-stored refresh probe is one ``p2p_present`` set test
      (``obj in p2p_present`` iff ``_locate`` finds a holder — the
      directory-consistency invariant);
    * the free-space checks walk ``state.free_clients``, which shrinks
      monotonically as client caches fill, instead of re-deriving
      free space per candidate — membership filtering preserves the
      divertee scan's candidate order and max-free tie-breaks;
    * store receipts and eviction notices are inlined with the
      owner-holds ``_locate`` probe answered by the membership dict.
    """
    msg = self._msg
    msg["passdowns"] += 1
    msg[self._destage_key] += 1
    clients = state.clients
    owner_of = state.owner_of
    owner_idx = owner_of[obj]
    locate = self._locate
    if obj in state.p2p_present:
        # Already stored (e.g. destaged before and later promoted back
        # up): refresh its greedy-dual credit instead of duplicating.
        holder = (
            owner_idx
            if obj in state.member_maps[owner_idx]
            else locate(state, obj, owner_idx)
        )
        clients[holder].lookup(obj)
        return

    cost = state.costs.get(obj, self._t_server)
    free = state.free_clients
    # (3)-(5): free space at the destination — store directly; else
    # (7)-(10): divert to the neighbourhood member with the most.
    stored = True
    target = owner_idx if owner_idx in free else None
    if target is None and self._diversion and free:
        best_free = 0
        for idx in state.neighbour_idx[owner_idx]:
            if idx in free:
                c = clients[idx]
                f = c.capacity - c._used
                if f > best_free:
                    target, best_free = idx, f
    if target is not None:
        cache = clients[target]
        cache.insert(obj, cost=cost)
        if cache._used >= cache.capacity:
            free.discard(target)
        if target != owner_idx:
            state.pointers.setdefault(owner_idx, {})[obj] = target
            msg["diversions"] += 1
    else:
        # (12)-(14): replacement at the destination; its eviction d2 is
        # discarded (§3) after notifying the directory.  obj is cached
        # nowhere in the cluster (p2p_present checked above), which is
        # what ``insert_absent`` requires.
        owner_cache = clients[owner_idx]
        if self._gd_inline:
            evicted = owner_cache.insert_absent(obj, cost)
        else:
            evicted = owner_cache.insert(obj, cost=cost)
        member_maps = state.member_maps
        present = state.p2p_present
        for d2 in evicted:
            if d2 == obj:
                stored = False  # zero-capacity client caches reject
                continue
            # Inlined _on_client_eviction(state, owner_idx, d2), with the
            # _locate reachability probe unrolled — the common outcome is
            # "last copy died" (the victim lived at its owner, no pointer,
            # no replicas), so the cheap membership probes usually decide.
            msg["client_evictions"] += 1
            d2_owner = owner_of[d2]
            ptrs = state.pointers.get(d2_owner)
            if (
                d2_owner != owner_idx
                and ptrs is not None
                and ptrs.get(d2) == owner_idx
            ):
                del ptrs[d2]
            reps = state.replicas.get(d2)
            if reps:
                reps.discard(owner_idx)
                if not reps:
                    del state.replicas[d2]
                    reps = None
            if d2 not in present:
                continue
            if d2 in member_maps[d2_owner]:
                continue  # still at its owner
            if ptrs is not None:
                holder2 = ptrs.get(d2)
                if holder2 is not None and d2 in member_maps[holder2]:
                    continue  # reachable through a diversion pointer
            if reps and locate(state, d2, d2_owner) is not None:
                continue  # a live replica keeps it reachable
            present.discard(d2)
            ds = state.dir_set
            if ds is not None:
                # Exact directory: direct set ops plus the inlined
                # PresenceIndex.discard on the directory index.
                ds.discard(d2)
                holders = self._dir_presence._holders
                s = holders.get(d2)
                if s is not None:
                    s.discard(state.cluster)
                    if not s:
                        del holders[d2]
            else:
                state.directory.remove(d2)
    if stored:
        # Inlined _record_store: obj was not in p2p_present (checked
        # at the top, nothing re-added it since), so add directly.
        msg["store_receipts"] += 1
        state.p2p_present.add(obj)
        ds = state.dir_set
        if ds is not None:
            # Exact directory: direct set ops plus the inlined
            # PresenceIndex.add on the directory index.
            ds.add(obj)
            holders = self._dir_presence._holders
            s = holders.get(obj)
            if s is None:
                holders[obj] = {state.cluster}
            else:
                s.add(state.cluster)
        else:
            state.directory.add(obj)
        if self._replicas_extra > 0:
            self._replicate(
                state, obj, cost,
                owner_idx if target is None else target,
                state.neighbour_idx[owner_idx],
            )
            for idx in state.replicas.get(obj, ()):
                cache = clients[idx]
                if cache._used >= cache.capacity:
                    free.discard(idx)


def client_evicted(self: Any, state: IndexedCluster, holder_idx: int, obj: int) -> None:
    """Eviction notice (the chain's ``_on_client_eviction``) plus the
    directory index; :func:`pass_down` inlines this."""
    self._msg["client_evictions"] += 1
    owner = state.owner_of[obj]
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
        if state.dir_set is not None:
            state.dir_set.discard(obj)
            self._dir_presence.discard(obj, state.cluster)
        else:
            state.directory.remove(obj)


def record_store(self: Any, state: IndexedCluster, obj: int) -> None:
    """Store receipt for an object new to the cluster's P2P cache (the
    chain's ``_record_store``) plus the directory index; :func:`pass_down`
    inlines this."""
    self._msg["store_receipts"] += 1
    state.p2p_present.add(obj)
    if state.dir_set is not None:
        state.dir_set.add(obj)
        self._dir_presence.add(obj, state.cluster)
    else:
        state.directory.add(obj)


def pass_down_sized(self: Any, state: IndexedCluster, obj: int) -> None:
    """:func:`pass_down` for sized objects.

    No free-client sets: whether a cache has room depends on the object
    (``capacity - used >= size``), and an eviction that took several
    victims can leave room behind, so free space is read per candidate
    as the chain does.  The owner is asked for exactly where the chain
    asks (first thing on either branch, then once per eviction notice).
    """
    msg = self._msg
    msg["passdowns"] += 1
    msg[self._destage_key] += 1
    if obj in state.p2p_present:
        refresh_holder(self, state, obj)  # already stored: refresh, don't duplicate
        return

    clients = state.clients
    cost = state.costs.get(obj, self._t_server)
    size = self._size_list[obj]
    owner_idx = state.owner_of[obj]
    owner_cache = clients[owner_idx]
    # (3)-(5): room at the destination; else (7)-(10): the neighbourhood
    # member with the most room, if any has enough.
    target = owner_idx if owner_cache.capacity - owner_cache._used >= size else None
    if target is None and self._diversion:
        best_free = size - 1
        for idx in state.neighbour_idx[owner_idx]:
            c = clients[idx]
            f = c.capacity - c._used
            if f > best_free:
                target, best_free = idx, f
    gd = self._gd_inline
    if target is not None:
        # obj is cached nowhere in the cluster (p2p_present checked
        # above), which is what ``insert_absent_sized`` requires.
        if gd:
            clients[target].insert_absent_sized(obj, cost, size)
        else:
            clients[target].insert(obj, cost=cost, size=size)
        if target != owner_idx:
            state.pointers.setdefault(owner_idx, {})[obj] = target
            msg["diversions"] += 1
    else:
        # (12)-(14): replacement at the destination, as many victims as
        # the object's size takes.
        if gd:
            evicted = owner_cache.insert_absent_sized(obj, cost, size)
        else:
            evicted = owner_cache.insert(obj, cost=cost, size=size)
        for d2 in evicted:
            if d2 == obj:
                return  # larger than the whole client cache: rejected
            client_evicted(self, state, owner_idx, d2)
    record_store(self, state, obj)
    if self._replicas_extra > 0:
        self._replicate(
            state, obj, cost,
            owner_idx if target is None else target,
            state.neighbour_idx[owner_idx],
        )


# -- proxy-side insert (GD on each fetched object) -------------------------


def proxy_insert(self: Any, state: IndexedCluster, obj: int, cost: float) -> None:
    """Cache a just-fetched object at the proxy and destage its victims.

    Callers reach this only after ``obj`` missed the proxy, which is
    what ``insert_absent`` requires.
    """
    state.costs[obj] = cost
    proxy = state.proxy
    if self._gd_inline:
        evicted = proxy.insert_absent(obj, cost)
    else:
        evicted = proxy.insert(obj, cost=cost)
    # Inlined PresenceIndex.add/discard on the proxy index.
    holders = self._proxy_presence._holders
    cluster = state.cluster
    stored = True
    for d1 in evicted:
        if d1 != obj:
            s = holders.get(d1)
            if s is not None:
                s.discard(cluster)
                if not s:
                    del holders[d1]
            pass_down(self, state, d1)
        else:
            stored = False  # capacity-zero proxies reject the insert
    if stored:
        s = holders.get(obj)
        if s is None:
            holders[obj] = {cluster}
        else:
            s.add(cluster)


def proxy_insert_sized(self: Any, state: IndexedCluster, obj: int, cost: float) -> None:
    """:func:`proxy_insert` for sized objects."""
    state.costs[obj] = cost
    size = self._size_list[obj]
    if self._gd_inline:
        evicted = state.proxy.insert_absent_sized(obj, cost, size)
    else:
        evicted = state.proxy.insert(obj, cost=cost, size=size)
    presence = self._proxy_presence
    cluster = state.cluster
    for d1 in evicted:
        if d1 == obj:
            return  # larger than the whole proxy cache: rejected
        presence.discard(d1, cluster)
        pass_down_sized(self, state, d1)
    presence.add(obj, cluster)


# -- request path -----------------------------------------------------------


def refresh_holder(self: Any, state: IndexedCluster, obj: int) -> bool:
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


def process(self: Any, cluster: int, client: int, obj: int) -> str:
    state = self.states[cluster]
    # 1. Local proxy cache (greedy-dual bookkeeping on hit).  ~3 of
    # every 4 requests end right here, so with GD proxies the hit path
    # is inlined (friend access into the cache and its heap; the
    # pushed entries are exactly what ``lookup`` pushes).
    if self._gd_inline:
        proxy = state.proxy
        entry = proxy._entries.get(obj)
        if entry is not None:
            # Monotone credit refresh -> lazy-heap no-push path
            # (mirrors GreedyDualCache.lookup; entries here are always
            # unit-size ``(1, cost)``, so cost/size is just entry[1]).
            heap = proxy._heap
            seq = heap._seq + 1
            heap._seq = seq
            heap._live[obj] = (proxy.inflation + entry[1], seq, False)
            proxy.stats.hits += 1
            return TIER_LOCAL_PROXY
        proxy.stats.misses += 1
    elif state.proxy.lookup(obj):
        return TIER_LOCAL_PROXY
    if state.built_epoch != state.overlay.epoch:
        state.build_placement()
    msg = self._msg

    # 2. Own P2P client cache, via the lookup directory.
    if obj in state.dir_probe:
        msg["p2p_lookups"] += 1
        owner = state.owner_of[obj]
        holder = (
            owner
            if obj in state.member_maps[owner]
            else self._locate(state, obj, owner)
        )
        if holder is not None:
            state.clients[holder].lookup(obj)  # GD credit refresh
            if self._promote:
                proxy_insert(self, state, obj, self._t_p2p)
            return TIER_LOCAL_P2P
        # Bloom false positive: a wasted LAN round into the overlay.
        msg["directory_false_positives"] += 1
        self.add_extra_latency(self._t_p2p)

    # 3. Cooperating proxies, via the proxy presence index — the
    # smallest holder id is what the chain's ascending scan hits (inlined
    # PresenceIndex.first_holder).  Serving needs no holder-side
    # mutation, so a holder in another shard (present as of the last
    # round boundary) serves exactly like a local one.
    me = state.cluster
    s = self._proxy_presence._holders.get(obj)
    if s:
        first = None
        for c in s:
            if c != me and (first is None or c < first):
                first = c
        if first is not None:
            proxy_insert(self, state, obj, self._t_coop)
            return TIER_COOP_PROXY

    # ... then their P2P client caches through the push protocol.
    if self._dir_presence is not None:
        # Exact directories: membership mirrors p2p_present, so the
        # first listed cluster always serves (no false positives) and
        # exactly one push request goes out — as in the scan.
        other = self._dir_presence.first_holder(obj, me)
        if other is not None:
            msg["push_requests"] += 1
            other_state = self._state_at(other)
            if other_state is None:
                # The holder lives in another shard: its GD credit
                # refresh crosses the bus as a queued push record.  (One
                # proxy lookup per request: accesses - 1 is its index.)
                self._queue_remote_push(state.proxy.stats.accesses - 1, me, other, obj)
            else:
                refresh_holder(self, other_state, obj)
            proxy_insert(self, state, obj, self._t_coop + self._t_p2p)
            return TIER_COOP_P2P
    else:
        # Bloom directories: keep the chain's scan — a remote false
        # positive must still cost a wasted push round per §4.2's
        # accounting.
        tier = push_stage(self, state, cluster, obj)
        if tier is not None:
            return tier

    # 4. Origin server.
    proxy_insert(self, state, obj, self._t_server)
    return TIER_SERVER


def process_sized(self: Any, cluster: int, client: int, obj: int) -> str:
    """:func:`process` for sized objects.

    The same four steps with two differences: a greedy-dual proxy hit
    earns the credit ``GreedyDualCache.lookup`` gives it (``cost/size``
    under ``gds``), and fetched objects go through
    :func:`proxy_insert_sized`.  The steps themselves are spelled with
    the helpers :func:`process` inlines.
    """
    state = self.states[cluster]
    proxy = state.proxy
    if self._gd_inline:
        entry = proxy._entries.get(obj)
        if entry is not None:
            heap = proxy._heap
            seq = heap._seq + 1
            heap._seq = seq
            credit = entry[1] / entry[0] if proxy.credit_by_size else entry[1]
            heap._live[obj] = (proxy.inflation + credit, seq, False)
            proxy.stats.hits += 1
            return TIER_LOCAL_PROXY
        proxy.stats.misses += 1
    elif proxy.lookup(obj):
        return TIER_LOCAL_PROXY
    if state.built_epoch != state.overlay.epoch:
        state.build_placement()
    msg = self._msg

    # 2. Own P2P client cache, via the lookup directory.
    if obj in state.dir_probe:
        msg["p2p_lookups"] += 1
        if refresh_holder(self, state, obj):
            if self._promote:
                proxy_insert_sized(self, state, obj, self._t_p2p)
            return TIER_LOCAL_P2P
        # Bloom false positive: a wasted LAN round into the overlay.
        msg["directory_false_positives"] += 1
        self.add_extra_latency(self._t_p2p)

    # 3. Cooperating proxies, then their P2P client caches.
    me = state.cluster
    if self._proxy_presence.first_holder(obj, me) is not None:
        proxy_insert_sized(self, state, obj, self._t_coop)
        return TIER_COOP_PROXY
    if self._dir_presence is not None:
        other = self._dir_presence.first_holder(obj, me)
        if other is not None:
            msg["push_requests"] += 1
            other_state = self._state_at(other)
            if other_state is None:
                self._queue_remote_push(proxy.stats.accesses - 1, me, other, obj)
            else:
                refresh_holder(self, other_state, obj)
            proxy_insert_sized(self, state, obj, self._t_coop + self._t_p2p)
            return TIER_COOP_P2P
    else:
        tier = push_stage(self, state, cluster, obj)
        if tier is not None:
            return tier

    # 4. Origin server.
    proxy_insert_sized(self, state, obj, self._t_server)
    return TIER_SERVER
