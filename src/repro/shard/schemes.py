"""Shard-aware scheme variants: global cluster ids + round digests.

A sharded worker owns a *subset* of the simulation's client clusters but
must cooperate with clusters living in other processes.  The variants
here are thin subclasses of the single-process schemes with three
changes:

* **Global ids.**  ``state.cluster`` and every presence-index entry use
  the cluster's *global* index, so a presence set can hold local and
  remote clusters side by side and ``first_holder`` picks exactly the
  cluster an all-in-one-process ascending scan would pick.
* **Round deltas.**  :meth:`collect_round` diffs each local cluster's
  proxy membership and P2P presence against the previous round boundary
  (plain set arithmetic — the hot path is never instrumented) and drains
  the round's outgoing cross-shard pushes; :meth:`apply_remote` folds
  the other shards' deltas into the local presence indexes and replays
  incoming pushes in global-position order.
* **Remote serves.**  Step 3 of the Hier-GD miss chain (cooperating
  proxy) needs no remote mutation at all, so a remote holder serves
  straight from the presence index.  Step 4 (push protocol) refreshes
  greedy-dual credit at the holder — a genuine remote write — so the
  requester queues a push record and the owning shard applies it at the
  next boundary.  A push whose object was evicted inside the staleness
  window is counted as ``stale_remote_pushes`` by the owner and
  (requester-side) still served: the paper's push protocol would have
  found the copy when the request was issued.

Multi-shard runs are **seed-stable** (same seed, same shard count, same
round size → identical results) but not byte-identical to the
single-process engine: remote presence is one round stale by design.
``shards=1`` never reaches this module — the engine delegates straight
to :func:`repro.core.run.run_scheme`, which is how byte-identity at one
shard is a structural fact rather than a test target.
"""

from __future__ import annotations

from ..core.config import SimulationConfig
from ..core.hiergd import HierGdScheme
from ..core.hiergd_indexed import refresh_holder
from ..core.schemes.baselines import NcScheme, ScScheme
from ..protocol.transport import Transport
from .digest import ClusterDelta

__all__ = ["ShardedHierGd", "ShardedNc", "ShardedSc", "SHARDED_SCHEMES", "make_sharded_scheme"]


class _ShardMixin:
    """Shared shard plumbing: identity maps, warmup override, sync hook."""

    def _init_shard(
        self, global_clusters: list[int], total_clusters: int, warmup_n: int
    ) -> None:
        self._global_of = list(global_clusters)
        self._local_of = {g: i for i, g in enumerate(self._global_of)}
        self._total_clusters = total_clusters
        self._warmup_n = warmup_n
        #: Worker-installed round callback (sends/receives digests).
        self._sync = None
        #: Worker-installed per-cluster block bound (round size).
        self._round_requests: int | None = None

    def _warmup_requests(self, total_expected: int) -> int:
        # The shard's slice of the *global* warmup window, precomputed by
        # partition.local_warmup; the base fraction-of-local would warm
        # the wrong prefix.
        return self._warmup_n

    def _block_requests(self, length: int) -> int:
        if self._round_requests is None:
            return super()._block_requests(length)
        return max(1, min(self._round_requests, length))

    def _after_block(self, upto: int) -> None:
        if self._sync is not None:
            self._sync(upto)

    # -- round protocol (overridden where there is cross-shard state) -----

    def collect_round(self) -> tuple[dict[int, ClusterDelta], list]:
        """This round's per-cluster deltas and outgoing pushes."""
        return {}, []

    def apply_remote(self, deltas: dict[int, ClusterDelta], pushes: list) -> None:
        """Fold the other shards' round state into local indexes."""


class ShardedNc(_ShardMixin, NcScheme):
    """NC has no cross-cluster state: sharding is pure data parallelism."""

    def __init__(
        self,
        config: SimulationConfig,
        traces,
        global_clusters: list[int],
        total_clusters: int,
        warmup_n: int,
        transport: Transport | None = None,
    ) -> None:
        super().__init__(config, traces, transport)
        self._init_shard(global_clusters, total_clusters, warmup_n)


class ShardedSc(_ShardMixin, ScScheme):
    """SC over shards: remote probes answered by digested presence.

    A remote SC probe is membership-only (an ICP-style probe calls
    ``contains``, never ``lookup``), so cross-shard cooperation needs no
    remote writes at all — just the presence deltas.
    """

    def __init__(
        self,
        config: SimulationConfig,
        traces,
        global_clusters: list[int],
        total_clusters: int,
        warmup_n: int,
        transport: Transport | None = None,
    ) -> None:
        super().__init__(config, traces, transport)
        self._init_shard(global_clusters, total_clusters, warmup_n)
        self._cluster_ids = self._global_of
        self._n_clusters = total_clusters
        self._round_base = [set(c._sizes) for c in self.caches]

    def collect_round(self) -> tuple[dict[int, ClusterDelta], list]:
        deltas: dict[int, ClusterDelta] = {}
        for i, cache in enumerate(self.caches):
            now = set(cache._sizes)
            base = self._round_base[i]
            if now != base:
                deltas[self._global_of[i]] = (
                    sorted(now - base), sorted(base - now), [], []
                )
                self._round_base[i] = now
        return deltas, []

    def apply_remote(self, deltas: dict[int, ClusterDelta], pushes: list) -> None:
        presence = self._presence
        local = self._local_of
        for g, (adds, removes, _, _) in deltas.items():
            if g in local:
                continue
            for obj in adds:
                presence.add(obj, g)
            for obj in removes:
                presence.discard(obj, g)


class ShardedHierGd(_ShardMixin, HierGdScheme):
    """Hier-GD over shards: digested steps 3–4 of the miss chain.

    Rides the indexed engine (:mod:`repro.core.hiergd_indexed`), so it
    needs what that engine needs — unit sizes, a fault-free transport —
    plus an exact directory (the Bloom path's false positives are a
    per-probe phenomenon the digest cannot carry).  The request path is
    the engine's own: clusters carry their global ids, and a step-4
    holder this worker does not own takes :meth:`_queue_remote_push`.
    """

    def __init__(
        self,
        config: SimulationConfig,
        traces,
        global_clusters: list[int],
        total_clusters: int,
        warmup_n: int,
        transport: Transport | None = None,
    ) -> None:
        super().__init__(config, traces, transport)
        if self.sizes is not None:
            raise ValueError(
                "sharded hier-gd does not support sized workloads (the "
                "digest protocol rides the indexed engine, which assumes "
                "equal-size objects); run with shards=1"
            )
        if not self.indexed:
            raise ValueError("sharded hier-gd requires a fault-free transport")
        if self._dir_presence is None:
            raise ValueError("sharded hier-gd requires directory='exact'")
        self._init_shard(global_clusters, total_clusters, warmup_n)
        # Re-key every cluster's identity to its global index *before*
        # any request runs: the presence indexes are still empty, so no
        # local-id entries exist to migrate.
        for state, g in zip(self.states, self._global_of):
            state.cluster = g
        self._state_at = dict(zip(self._global_of, self.states)).get
        self._msg["stale_remote_pushes"] = 0
        self._out_pushes: list[tuple[int, int, int, int]] = []
        self._round_base = [
            (set(s.proxy._entries), set(s.p2p_present)) for s in self.states
        ]

    def _queue_remote_push(self, state, other: int, obj: int) -> None:
        """Step 4 served by a cluster in another shard: the requester
        serves at push cost now, the owning shard refreshes the holder's
        GD credit at the next boundary."""
        # The proxy sees exactly one lookup per request of its cluster,
        # so its access count is that cluster's request index — which,
        # interleaved with the cluster id, is the global position.
        index = state.proxy.stats.accesses - 1
        g = state.cluster
        self._out_pushes.append((index * self._total_clusters + g, g, other, obj))

    # -- round protocol ---------------------------------------------------

    def collect_round(self) -> tuple[dict[int, ClusterDelta], list]:
        deltas: dict[int, ClusterDelta] = {}
        for i, state in enumerate(self.states):
            proxy_base, dir_base = self._round_base[i]
            proxy_now = set(state.proxy._entries)
            dir_now = set(state.p2p_present)
            if proxy_now != proxy_base or dir_now != dir_base:
                deltas[state.cluster] = (
                    sorted(proxy_now - proxy_base),
                    sorted(proxy_base - proxy_now),
                    sorted(dir_now - dir_base),
                    sorted(dir_base - dir_now),
                )
                self._round_base[i] = (proxy_now, dir_now)
        pushes = self._out_pushes
        self._out_pushes = []
        return deltas, pushes

    def apply_remote(self, deltas: dict[int, ClusterDelta], pushes: list) -> None:
        local = self._local_of
        proxy_presence = self._proxy_presence
        dir_presence = self._dir_presence
        for g, (p_add, p_rm, d_add, d_rm) in deltas.items():
            if g in local:
                continue
            for obj in p_add:
                proxy_presence.add(obj, g)
            for obj in p_rm:
                proxy_presence.discard(obj, g)
            for obj in d_add:
                dir_presence.add(obj, g)
            for obj in d_rm:
                dir_presence.discard(obj, g)
        for _pos, _src, dst, obj in pushes:
            i = local.get(dst)
            if i is None:
                continue  # another shard's cluster
            state = self.states[i]
            if obj in state.p2p_present:
                if state.built_epoch != state.overlay.epoch:
                    state.build_placement()
                if refresh_holder(self, state, obj):
                    continue
            # Evicted inside the staleness window: the requester already
            # served the object (the copy existed when it asked).
            self._msg["stale_remote_pushes"] += 1


#: Registry of shard-capable schemes (a subset of SCHEME_REGISTRY: the
#: remaining schemes are oracles whose global state — e.g. FC's shared
#: frequency table — has no bounded-staleness decomposition).
SHARDED_SCHEMES: dict[str, type] = {
    "nc": ShardedNc,
    "sc": ShardedSc,
    "hier-gd": ShardedHierGd,
}


def make_sharded_scheme(
    name: str,
    config: SimulationConfig,
    traces,
    global_clusters: list[int],
    total_clusters: int,
    warmup_n: int,
):
    """Instantiate the sharded variant of ``name`` for one worker."""
    try:
        cls = SHARDED_SCHEMES[name]
    except KeyError:
        raise ValueError(
            f"scheme {name!r} cannot run sharded; "
            f"shardable: {', '.join(SHARDED_SCHEMES)}"
        ) from None
    return cls(config, traces, global_clusters, total_clusters, warmup_n)
