"""FC — fully coordinated cooperative caching (the paper's upper bound).

"FC is the fully coordinated form of cooperative caching, where proxies
cooperate both in serving each other's cache misses and in making object
replacement decisions" using "a cost-benefit replacement to minimize the
average access latency of all the clients in the proxy cluster ... based
on the assumption of the perfect frequency knowledge" (§2).

The referenced tech report is unavailable, so the coordination follows
the documented reconstruction (DESIGN.md §§3,5).  The proxy cluster is
one coordinated store of aggregate capacity ``Σ proxy_size``; each
cached *copy* carries the latency it saves the cluster per unit time:

* the **primary** (first) copy of object *o* held at cluster *c*:
  ``value = f_total(o)·(Ts − Tc) + f_c(o)·Tc``
  (every cluster stops paying the server, *c* additionally stops paying
  the co-proxy hop);
* a **duplicate** copy at cluster *q*: ``value = f_q(o)·Tc``
  (only *q*'s accesses improve, from co-proxy to local).

``f`` are perfect per-cluster reference counts from the traces.
Replacement is globally greedy: a new copy is admitted iff its value
exceeds the globally least valuable cached copy, which is then evicted;
when a primary copy dies but duplicates survive, the most-referenced
survivor is promoted to primary (its value gains the ``f_total·(Ts−Tc)``
term).  Cold start is honest: the first access of any object pays the
server no matter what the placement will be.

A local hit is served in ``process`` alone; a miss adds one
``_consider_copy`` frame, which reads sizes, the newcomer's value and the
store's cheapest copy itself (friend access to the ``HeapDict``), so only
a placement or an eviction enters the mutation methods.  The naive model
of the store is ``tests/models/fc_store.py``.
"""

from __future__ import annotations

from heapq import heappop, heappush

from ...cache import HeapDict
from ...netmodel import TIER_COOP_PROXY, TIER_LOCAL_PROXY, TIER_SERVER
from ...protocol.messages import PROXY_FETCH
from ...protocol.transport import Transport
from ...workload import Trace
from ..config import SimulationConfig
from ..simulator import CachingScheme

__all__ = ["FcScheme"]


class FcScheme(CachingScheme):
    """Fully coordinated placement/replacement with perfect frequencies."""

    name = "fc"

    def __init__(
        self,
        config: SimulationConfig,
        traces: list[Trace],
        transport: Transport | None = None,
    ) -> None:
        super().__init__(config, traces, transport)
        #: Ask the transport about remote fetches only under a fault plan.
        self._faulty = self.transport.faulty
        counts = [t.reference_counts() for t in traces]
        #: Perfect per-cluster and total reference counts, as lists: the
        #: value arithmetic reads them per miss.
        self._freq = [c.tolist() for c in counts]
        self._freq_total = sum(counts).tolist()
        self.capacity = sum(s.proxy_size for s in self.sizings)
        net = config.network
        self._benefit_remote = net.benefit_first_copy_remote  # Ts - Tc
        self._benefit_local = net.benefit_local_copy  # Tc
        # Copy store: (obj, cluster) -> value density; plus placement.
        # The heap priority is value *per capacity unit* (value/size);
        # at unit sizes that is the raw value, the paper's rule.
        self._copies = HeapDict()
        self._holders: dict[int, set[int]] = {}
        self._primary: dict[int, int] = {}
        self._local: list[set[int]] = [set() for _ in traces]
        self._placement_updates = 0
        #: Capacity units in use (== copy count under unit sizes).
        self._used = 0

    # -- placement mutations -------------------------------------------------
    #
    # A copy's value: ``f_c·Tc`` at cluster ``c``, plus ``f_total·(Ts−Tc)``
    # for the primary.  It is computed inline where it is needed.

    def _add_copy(self, obj: int, cluster: int) -> float:
        """Place a copy; returns its value (FC-EC ranks its tiers by it)."""
        value = self._freq[cluster][obj] * self._benefit_local
        holders = self._holders.get(obj)
        if holders is None:  # the primary copy
            self._holders[obj] = {cluster}
            self._primary[obj] = cluster
            value += self._freq_total[obj] * self._benefit_remote
        else:
            holders.add(cluster)
        self._local[cluster].add(obj)
        self._placement_updates += 1
        sizes = self._size_list
        size = 1 if sizes is None else sizes[obj]
        self._used += size
        self._copies.push((obj, cluster), value / size)
        return value

    def _drop_copy(self, obj: int, cluster: int) -> float | None:
        """Bookkeeping for a dying copy (its heap entry already popped,
        or discarded here if a promotion re-pushed it in the meantime).
        Returns the promoted heir's primary value, None if none was."""
        self._placement_updates += 1
        self._copies.discard((obj, cluster))
        sizes = self._size_list
        size = 1 if sizes is None else sizes[obj]
        self._used -= size
        self._local[cluster].discard(obj)
        holders = self._holders[obj]
        holders.discard(cluster)
        if not holders:
            del self._holders[obj]
            del self._primary[obj]
            return None
        if self._primary[obj] != cluster:
            return None
        # Promote the most-referenced surviving duplicate to primary.
        freq = self._freq
        heir = max(holders, key=lambda q: freq[q][obj])
        self._primary[obj] = heir
        value = freq[heir][obj] * self._benefit_local
        value += self._freq_total[obj] * self._benefit_remote
        self._copies.push((obj, heir), value / size)
        return value

    def _consider_copy(self, obj: int, cluster: int) -> None:
        """Admit a copy of ``obj`` at ``cluster``, which holds none, if
        globally worthwhile.

        Size-aware: admission frees min-density incumbents until the new
        copy fits, and aborts the moment an incumbent is at least as dense
        as the newcomer; the incumbents it popped then go back with their
        own records.  Under unit sizes the loop runs at most one iteration
        against the raw copy value and pops nothing it does not evict —
        exactly the paper's single-victim rule.

        Sizes, the value and the store's minimum are read in this frame:
        the heap by friend access (the inner loop is
        ``HeapDict._materialize_min``).
        """
        sizes = self._size_list
        size = 1 if sizes is None else sizes[obj]
        capacity = self.capacity
        if size > capacity:
            return
        used = self._used + size
        if used <= capacity:
            self._add_copy(obj, cluster)
            return
        value = self._freq[cluster][obj] * self._benefit_local
        if obj not in self._holders:
            value += self._freq_total[obj] * self._benefit_remote
        density = value / size
        heap, live = self._copies._heap, self._copies._live
        victims: list[tuple[tuple[int, int], tuple[float, int, bool]]] = []
        while used > capacity:
            while True:
                vdensity, seq, victim = heap[0]
                rec = live.get(victim)
                if rec is not None and rec[1] == seq:
                    break
                heappop(heap)
                if rec is not None and not rec[2]:
                    live[victim] = (rec[0], rec[1], True)
                    heappush(heap, (rec[0], rec[1], victim))
            if vdensity >= density:
                for key, rec in victims:  # rejected: restore what was popped
                    live[key] = rec
                    heappush(heap, (rec[0], rec[1], key))
                return
            heappop(heap)
            del live[victim]
            victims.append((victim, rec))
            used -= 1 if sizes is None else sizes[victim[0]]
        for (vobj, vcluster), _rec in victims:
            self._drop_copy(vobj, vcluster)
        self._add_copy(obj, cluster)

    # -- request path -------------------------------------------------------------

    def process(self, cluster: int, client: int, obj: int) -> str:
        """Serve one request.

        The coordinated *placement* is an oracle (perfect frequencies),
        so faults bite only the serving path: a remote hit that cannot
        be fetched within the retry budget falls back to the origin
        server.  The copy-store bookkeeping is unchanged — the object is
        fetched and placed as planned, just from farther away.
        """
        if obj in self._local[cluster]:
            return TIER_LOCAL_PROXY
        if obj in self._holders and (
            not self._faulty or self.transport.attempt(PROXY_FETCH)
        ):
            tier = TIER_COOP_PROXY
        else:
            tier = TIER_SERVER
        self._consider_copy(obj, cluster)
        return tier

    def finalize(self) -> tuple[dict[str, int], dict[str, float]]:
        """Coordination cost: one update message per placement change."""
        messages = {"placement_updates": self._placement_updates}
        extras: dict[str, float] = {}
        if self.transport.faulty:
            messages.update(self.transport.fault_counters)
            extras["extra_latency"] = self.extra_latency
        return messages, extras
