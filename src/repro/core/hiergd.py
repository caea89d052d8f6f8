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

This module is the scheme: its parameters, its counters, how a stored
object is located and replicated, and what a run reports.  The request
path — pass-down, eviction notices, the miss chain — is
:mod:`repro.core.hiergd_indexed`, the one engine every Hier-GD run is
served by (fault-free or under a fault transport, static or churning
membership, unit or sized objects); its functions are this class's
``process`` / ``_proxy_insert``.
"""

from __future__ import annotations

from ..cache import Cache, GreedyDualCache, LfuCache, LruCache
from ..protocol.transport import Transport
from ..workload import Trace
from . import hiergd_indexed
from .churn import ChurnEvent
from .config import SimulationConfig
from .directory import LossyDirectory
from .hiergd_indexed import IndexedCluster
from .presence import PeerSurface
from .simulator import CachingScheme

__all__ = ["HierGdScheme"]


class HierGdScheme(CachingScheme):
    """The practical scheme: GD caches + Pastry P2P tier + directories."""

    name = "hier-gd"

    # The request path is the engine's, one set of functions for every run.
    process = hiergd_indexed.process
    _proxy_insert = hiergd_indexed.proxy_insert

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
        hiergd_indexed.install(self)  # builds self.states

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
        """The engine's two presence indexes, when it keeps both (an exact
        directory nothing can make stale); no other run has any to share."""
        if self._dir_presence is None:
            return None
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
