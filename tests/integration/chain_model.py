"""Naive model of Hier-GD's request path: the protocol chain.

What served every faulty and churning run before Hier-GD had one engine
(``core/hiergd.py`` + ``protocol/chain.py``), kept as the oracle the
equivalence suite holds the engine of ``repro.core.hiergd`` to.  Nothing is
indexed or inlined: every miss scans the other clusters in ascending
order, every holder is found through ``_locate``, free space is read per
candidate, the neighbourhood is asked of the overlay per diversion,
every insert is the cache's general ``insert``, and every cooperation
hop is an exchange asked of the transport — fault layer or not.

It always carries a churn schedule (placement on first touch over
one-by-one joins, membership events, the repairing ``_locate``); with no
events and the base transport it is plain Hier-GD.  Shared with the
program: cluster state and its ``fail`` / ``join``, ``_locate`` /
``_replicate``, the schedule's firing.  Every engine method its stages
would otherwise reach (``process``, ``_proxy_insert``, ``_pass_down``,
``_push_stage``) is overridden here.
"""

from repro.core.hiergd import HierGdScheme
from repro.netmodel import (
    TIER_COOP_P2P,
    TIER_COOP_PROXY,
    TIER_LOCAL_P2P,
    TIER_LOCAL_PROXY,
    TIER_SERVER,
)
from repro.protocol.messages import LOOKUP_QUERY, PROXY_FETCH, PUSH


class ChainHierGd(HierGdScheme):
    def __init__(self, config, traces, events=(), transport=None):
        super().__init__(config, traces, transport, list(events))

    # -- the miss chain: lookup -> coop proxies -> push -> origin ----------

    def process(self, cluster, client, obj):
        self._fire_due_events()
        self._processed += 1
        state = self.states[cluster]
        if state.proxy.lookup(obj):
            return TIER_LOCAL_PROXY
        return (
            self._lookup_stage(state, obj)
            or self._coop_proxy_stage(state, cluster, obj)
            or self._push_stage(state, cluster, obj)
            or self._fetched(state, obj, self._t_server, TIER_SERVER)
        )

    def _fetched(self, state, obj, cost, tier):
        self._proxy_insert(state, obj, cost)
        return tier

    def _lookup_stage(self, state, obj):
        if obj not in state.directory:
            return None
        self._msg["p2p_lookups"] += 1
        if self.transport.attempt(LOOKUP_QUERY):
            holder = self._locate(state, obj)
            if holder is not None:
                state.clients[holder].lookup(obj)  # GD credit refresh
                if self._promote:
                    self._proxy_insert(state, obj, self._t_p2p)
                return TIER_LOCAL_P2P
            self._msg[self._overclaim_key] += 1
            self.add_extra_latency(self._t_p2p)
        return None

    def _coop_proxy_stage(self, state, cluster, obj):
        for other, other_state in enumerate(self.states):
            if other != cluster and other_state.proxy.contains(obj):
                if self.transport.attempt(PROXY_FETCH):
                    return self._fetched(state, obj, self._t_coop, TIER_COOP_PROXY)
                break  # retry budget spent: fall back a tier, don't re-scan
        return None

    def _push_stage(self, state, cluster, obj):
        msg, transport = self._msg, self.transport
        for other, other_state in enumerate(self.states):
            if other == cluster or obj not in other_state.directory:
                continue
            msg["push_requests"] += 1
            holder = self._locate(other_state, obj)
            if holder is None:
                msg[self._overclaim_key] += 1
                self.add_extra_latency(self._t_coop + self._t_p2p)
            elif transport.unresponsive(other, holder):
                transport.attempt(PUSH, force_fail=True)
                msg["failed_pushes"] += 1
            elif transport.attempt(PUSH):
                other_state.clients[holder].lookup(obj)  # GD credit refresh
                return self._fetched(
                    state, obj, self._t_coop + self._t_p2p, TIER_COOP_P2P
                )
            else:
                msg["failed_pushes"] += 1
        return None

    # -- proxy insert and Figure 1's pass-down --------------------------------

    def _proxy_insert(self, state, obj, cost):
        state.costs[obj] = cost
        for d1 in state.proxy.insert(obj, cost=cost, size=self._size_of(obj)):
            if d1 != obj:
                self._pass_down(state, d1)

    def _neighbour_indexes(self, state, owner_idx):
        nid = state.node_of_idx[owner_idx]
        return [state.idx_of_node[nb] for nb in state.overlay.neighbourhood(nid)]

    def _pass_down(self, state, obj):
        msg = self._msg
        msg["passdowns"] += 1
        cost = state.costs.get(obj, self._t_server)
        size = self._size_of(obj)
        owner_idx = state.owner(obj)
        holder = self._locate(state, obj, owner_idx)
        if holder is not None:
            state.clients[holder].lookup(obj)  # already stored: refresh
            return
        owner_cache = state.clients[owner_idx]
        stored_at = owner_idx
        if owner_cache.free_space >= size:
            owner_cache.insert(obj, cost=cost, size=size)
        else:
            divertee, most = None, size - 1  # a candidate must fit the object
            if self._diversion:
                for idx in self._neighbour_indexes(state, owner_idx):
                    if state.clients[idx].free_space > most:
                        divertee, most = idx, state.clients[idx].free_space
            if divertee is not None:
                state.clients[divertee].insert(obj, cost=cost, size=size)
                state.pointers.setdefault(owner_idx, {})[obj] = divertee
                msg["diversions"] += 1
                stored_at = divertee
            else:
                for d2 in owner_cache.insert(obj, cost=cost, size=size):
                    if d2 == obj:
                        stored_at = None  # no room at any eviction cost
                    else:
                        self._on_client_eviction(state, owner_idx, d2)
        if stored_at is not None:
            msg["store_receipts"] += 1
            if obj not in state.p2p_present:
                state.p2p_present.add(obj)
                state.directory.add(obj)
            if self._replicas_extra > 0:
                self._replicate(
                    state, obj, cost, stored_at,
                    self._neighbour_indexes(state, owner_idx),
                )

    def _on_client_eviction(self, state, holder_idx, obj):
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
        # Under a fault transport the notice's probe is read-only (a
        # repair would undo the notice drop being modelled); without one
        # it repairs like any lookup — pinned, ROADMAP item 1(a).
        repair = not self._faulty
        if obj in state.p2p_present and self._locate(state, obj, owner, repair) is None:
            state.p2p_present.discard(obj)
            state.directory.remove(obj)


class ChurnWithoutRepair(ChainHierGd):
    """The chain minus the lazy directory repair of runs with churn.

    A run with churn repairs every directory entry a lookup fails to
    back — it cannot tell a Bloom false positive from an entry gone stale
    through churn.  On an exact directory the extra removals are no-ops;
    on a counting Bloom filter each one decrements counters other objects
    share.  Plain Hier-GD has no churn and repairs nothing, so its Bloom
    rows compare against the chain without the repair (until ROADMAP
    item 1(a)).
    """

    def _locate(self, state, obj, owner=None, repair=True):
        return HierGdScheme._locate(self, state, obj, owner, repair=False)
