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
"""

from __future__ import annotations

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
        self._freq = [t.reference_counts() for t in traces]
        self._freq_total = sum(self._freq)
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

    # -- value model -------------------------------------------------------

    def _value(self, obj: int, cluster: int, primary: bool) -> float:
        v = float(self._freq[cluster][obj]) * self._benefit_local
        if primary:
            v += float(self._freq_total[obj]) * self._benefit_remote
        return v

    # -- placement mutations -------------------------------------------------

    def _add_copy(self, obj: int, cluster: int) -> float:
        """Place a copy; returns its value (FC-EC ranks its tiers by it)."""
        holders = self._holders.setdefault(obj, set())
        primary = not holders
        holders.add(cluster)
        if primary:
            self._primary[obj] = cluster
        self._local[cluster].add(obj)
        self._placement_updates += 1
        value = self._value(obj, cluster, primary)
        size = self._size_of(obj)
        self._used += size
        self._copies.push((obj, cluster), value / size)
        return value

    def _drop_copy(self, obj: int, cluster: int) -> None:
        """Bookkeeping for a dying copy (its heap entry already popped,
        or discarded here if a promotion re-pushed it in the meantime)."""
        self._placement_updates += 1
        self._copies.discard((obj, cluster))
        self._used -= self._size_of(obj)
        self._local[cluster].discard(obj)
        holders = self._holders[obj]
        holders.discard(cluster)
        if not holders:
            del self._holders[obj]
            del self._primary[obj]
            return
        if self._primary[obj] == cluster:
            # Promote the most-referenced surviving duplicate to primary.
            new_primary = max(holders, key=lambda q: self._freq[q][obj])
            self._primary[obj] = new_primary
            self._copies.push(
                (obj, new_primary),
                self._value(obj, new_primary, True) / self._size_of(obj),
            )

    def _consider_copy(self, obj: int, cluster: int) -> None:
        """Admit a copy at ``cluster`` if globally worthwhile.

        Size-aware: admission frees min-density incumbents until the new
        copy fits, and aborts (restoring the incumbents untouched) the
        moment an incumbent is at least as dense as the newcomer.  Under
        unit sizes the loop runs at most one iteration against the raw
        copy value — exactly the paper's single-victim rule.
        """
        if obj in self._local[cluster]:
            return
        size = self._size_of(obj)
        if size > self.capacity:
            return
        primary = obj not in self._holders
        if self._used + size <= self.capacity:
            self._add_copy(obj, cluster)
            return
        density = self._value(obj, cluster, primary) / size
        victims: list[tuple[tuple[int, int], float]] = []
        freed = 0
        admit = True
        while self._used - freed + size > self.capacity:
            victim, vdensity = self._copies.peek_min()
            if vdensity >= density:
                admit = False
                break
            self._copies.pop_min()
            victims.append((victim, vdensity))
            freed += self._size_of(victim[0])
        if not admit:
            for key, prio in victims:
                self._copies.push(key, prio)  # rejection leaves no trace
            return
        for (vobj, vcluster), _prio in victims:
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
