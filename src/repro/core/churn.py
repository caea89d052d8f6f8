"""Client churn for Hier-GD: node failures and joins during a run.

The paper leans on Pastry for the P2P client cache being "efficient,
scalable, fault-resilient, and self-organizing ... in the presence of
heavy load and network and node failure" (§4.1, §6) but never simulates
failures.  This module adds that experiment: client machines crash (their
browser caches vanish) and new machines join *while the trace replays*.

What failure does to the system (all mechanisms, not abstractions):

* the overlay repairs its routing state — Pastry's leaf sets and
  routing tables, Chord's successor lists and (lazily) fingers
  (:meth:`~repro.overlay.contract.OverlayBackend.fail`) — and DHT
  placement shifts: objectIds owned by the dead cache acquire new
  owners;
* the objects stored on the dead cache are gone, but the proxy's lookup
  directory *does not know yet* — entries go stale.  Repair is lazy, as
  it would be in a real deployment: the next lookup that redirects into
  the P2P cache and finds nothing repairs the entry (and is charged the
  wasted ``Tp2p`` round, same as a Bloom false positive);
* diversion pointers through or to the dead cache dangle and are swept;
* objects whose DHT owner changed remain physically cached at the old
  owner but become unreachable — they age out of the old owner's
  greedy-dual cache naturally (a DHT would *migrate* keys; a cache
  rationally chooses not to copy data on churn and re-fetches instead).

A join shifts placement the same way (keys split toward the newcomer)
without losing data.

Use :class:`HierGdChurnScheme` directly (it is not in the scheme
registry: churn schedules are experiment-specific)::

    events = [ChurnEvent(at_request=5_000, kind="fail", cluster=0, client=3)]
    result = HierGdChurnScheme(config, traces, events).run()
"""

from __future__ import annotations

from dataclasses import dataclass

from ..protocol.transport import Transport
from ..workload import Trace
from .config import SimulationConfig
from .hiergd import HierGdScheme
from .hiergd_indexed import IndexedCluster, member_map

__all__ = ["ChurnEvent", "HierGdChurnScheme"]


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change, fired before the ``at_request``-th request.

    ``client`` indexes the cluster's client list for ``kind="fail"``; it
    is ignored for ``kind="join"`` (the newcomer gets the next index).
    """

    at_request: int
    kind: str  # "fail" | "join"
    cluster: int
    client: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("fail", "join"):
            raise ValueError("kind must be 'fail' or 'join'")
        if self.at_request < 0:
            raise ValueError("at_request must be non-negative")


class HierGdChurnScheme(HierGdScheme):
    """Hier-GD under a scheduled client churn workload.

    The class is its membership events and its repairing ``_locate``;
    requests are served by the engine's general functions
    (:mod:`repro.core.hiergd_indexed`), which fire the events as they
    fall due.  A failed machine's users keep arriving at the proxy: no
    Hier-GD request path reads the requesting client.
    """

    name = "hier-gd-churn"

    #: Stale directory entries are the *point* of this experiment: the
    #: directory deliberately diverges from ground truth until a lookup
    #: repairs it, which no presence index can mirror.
    mutates_membership = True

    def __init__(
        self,
        config: SimulationConfig,
        traces: list[Trace],
        events: list[ChurnEvent],
        transport: Transport | None = None,
    ) -> None:
        super().__init__(config, traces, transport)
        if not self._faulty:
            # Pinned as it is (ROADMAP item 1 step 0): without a fault
            # layer an eviction notice's reachability probe repairs like
            # a lookup, and the entry is then removed a second time.
            self._eviction_probe = self._locate
        for ev in events:
            if not 0 <= ev.cluster < len(self.states):
                raise ValueError(f"event cluster {ev.cluster} out of range")
        self._events = sorted(events, key=lambda e: e.at_request)
        self._next_event = 0
        #: Requests served so far, and the count at which the engine next
        #: calls :meth:`_fire_due_events` (which moves it on).
        self._processed = 0
        self._next_due = 0
        #: Failed client indices per cluster (their slots stay, dead).
        self._dead: list[set[int]] = [set() for _ in self.states]
        self._msg.update(
            {
                "client_failures": 0,
                "client_joins": 0,
                "objects_lost": 0,
                "directory_repairs": 0,
            }
        )

    # -- event execution -------------------------------------------------

    def _fire_due_events(self) -> None:
        events = self._events
        while (
            self._next_event < len(events)
            and events[self._next_event].at_request <= self._processed
        ):
            ev = events[self._next_event]
            self._next_event += 1
            if ev.kind == "fail":
                self._fail_client(ev.cluster, ev.client)
            else:
                self._join_client(ev.cluster)
        self._next_due = (
            events[self._next_event].at_request
            if self._next_event < len(events)
            else float("inf")
        )

    def _fail_client(self, cluster: int, client: int) -> None:
        state = self.states[cluster]
        if client in self._dead[cluster]:
            raise ValueError(f"client {client} of cluster {cluster} already failed")
        if not 0 <= client < len(state.clients):
            raise ValueError(f"client {client} out of range")
        self._msg["client_failures"] += 1

        lost = list(state.clients[client].keys())
        self._msg["objects_lost"] += len(lost)

        # The machine is gone: cache contents, pointer table and overlay
        # membership all vanish at once.
        cache = state.clients[client]
        cache.clear()
        if cache.capacity > 0:
            state.free_clients.add(client)
        state.pointers.pop(client, None)
        state.overlay.fail(state.node_of_idx[client])
        self._dead[cluster].add(client)
        # DHT placement shifted: the owner memo is stale wholesale.
        state.owner_memo.clear()

        # Dangling diversion pointers and replica entries naming the dead
        # cache are swept (the owners notice their neighbourhood member
        # die through overlay repair).
        for ptrs in state.pointers.values():
            stale = [obj for obj, holder in ptrs.items() if holder == client]
            for obj in stale:
                del ptrs[obj]
        for obj in lost:
            reps = state.replicas.get(obj)
            if reps:
                reps.discard(client)
                if not reps:
                    del state.replicas[obj]
        # Ground truth: an object left the P2P cache only if its *last*
        # copy died (replication keeps it alive otherwise).  The proxy's
        # directory is repaired lazily on failed lookups either way.
        for obj in lost:
            if HierGdScheme._locate(self, state, obj) is None:
                state.p2p_present.discard(obj)

    def _join_client(self, cluster: int) -> None:
        state = self.states[cluster]
        sizing = self.sizings[cluster]
        self._msg["client_joins"] += 1
        idx = len(state.clients)
        node = state.overlay.add_named(f"cluster{cluster}/cache{idx}")
        state.node_of_idx.append(node.node_id)
        state.idx_of_node[node.node_id] = idx
        cache = self._make_cache(sizing.client_size)
        state.clients.append(cache)
        state.member_maps.append(member_map(cache))
        if cache.capacity > 0:
            state.free_clients.add(idx)
        # Placement shifted toward the newcomer: objects it now owns but
        # does not hold become unreachable at their old holders and are
        # repaired lazily, like after a failure.
        state.owner_memo.clear()

    # -- lazily repaired lookup ---------------------------------------------

    def _locate(
        self, state: IndexedCluster, obj: int, owner: int | None = None
    ) -> int | None:
        holder = super()._locate(state, obj, owner)
        if holder is None:
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
        return holder

    def finalize(self) -> tuple[dict[str, int], dict[str, float]]:
        messages, extras = super().finalize()
        extras["live_clients"] = float(
            sum(
                len(s.clients) - len(dead)
                for s, dead in zip(self.states, self._dead)
            )
        )
        return messages, extras
