"""The shard peer view: clusters in other processes, one round stale.

A sharded worker owns a *subset* of the simulation's client clusters but
must cooperate with clusters living in other processes.  Its scheme is
the registry class every run gets (:func:`repro.core.run.build_scheme`);
what differs is which peers it can see — a :class:`ShardView`, attached
after construction as the event-fed carrier and the recording layer are.
The scheme declares its cooperative surface
(:class:`~repro.core.presence.PeerSurface`); the view does the rest:

* **Global ids.**  Every cluster is re-keyed to its *global* index, so a
  presence index holds local and remote clusters side by side and
  ``first_holder`` picks exactly the cluster an all-in-one-process
  ascending scan would pick.  The warmup window is the worker's slice of
  the global one, and blocks are round-sized.
* **Round deltas.**  At each boundary :meth:`ShardView.collect` diffs
  every local cluster's live membership against the previous boundary
  (plain set arithmetic — the request path is never instrumented) and
  :meth:`ShardView.apply` folds the other shards' deltas into the indexes.
* **Remote writes.**  A cooperating proxy serves without mutating
  anything, so a remote one serves straight from the index.  Hier-GD's
  push protocol refreshes greedy-dual credit at the holder — a genuine
  remote write — so the requester queues a push record tagged with its
  global stream position and the owning shard applies it, in that order,
  at the next boundary.  A push whose object was evicted inside the
  staleness window is counted as ``stale_remote_pushes`` by the owner and
  (requester-side) still served: the paper's push protocol would have
  found the copy when the request was issued.

Multi-shard runs are **seed-stable** (same seed, shard count and round
size → identical results) but not byte-identical to the single-process
engine: remote presence is one round stale by design.  A view that owns
every cluster changes nothing; ``shards=1`` does not build one at all.
Which runs can be sharded is decided in one place, :func:`check_shardable`.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.config import SimulationConfig, UnsupportedConfiguration
from ..core.schemes import SCHEME_REGISTRY
from ..core.simulator import CachingScheme
from ..protocol.trace import active_trace_recorder
from .digest import ClusterDelta
from .partition import global_position

__all__ = ["ShardView", "check_shardable"]


def check_shardable(name: str, config: SimulationConfig) -> None:
    """Raise :class:`UnsupportedConfiguration` unless this run can be
    dealt over more than one worker process.

    The only place that refuses a sharded combination;
    :func:`~repro.shard.engine.run_scheme_sharded` asks it before a
    process is forked.  Shardable means the scheme declares a
    cooperative surface *and* the run keeps both presence indexes —
    predicted here from the inputs the way
    :class:`~repro.core.hiergd.HierGdScheme`'s constructor builds them —
    *and* no exchange-trace recorder is open.
    """
    # The rest are oracles whose global state — e.g. FC's shared frequency
    # table — has no bounded-staleness decomposition.
    shardable = [
        n for n, cls in SCHEME_REGISTRY.items()
        if cls.peer_surface is not CachingScheme.peer_surface
    ]
    for refused, why in (
        (name not in shardable, f"scheme {name!r} cannot run sharded (no cooperative "
         f"surface for a peer view to mirror); shardable: {', '.join(shardable)}"),
        (active_trace_recorder() is not None, "exchange-trace recording captures a "
         "single-process transport stack; record with shards=1"),
        # A Bloom directory's false positives are a per-probe phenomenon
        # the digest cannot carry.
        (name == "hier-gd" and config.directory != "exact", "sharded hier-gd "
         "requires directory='exact'"),
    ):
        if refused:
            raise UnsupportedConfiguration(why)


class ShardView:
    """One worker's view of the clusters it does not own."""

    def __init__(
        self,
        clusters: list[int],
        total_clusters: int,
        warmup: int,
        round_requests: int,
        exchange: Callable[[int, dict, list], tuple[dict, list]],
    ) -> None:
        """``clusters``: the global index of each local cluster, of
        ``total_clusters``; ``warmup``: this worker's share of the global
        window (:func:`~repro.shard.partition.local_warmup`);
        ``exchange(round, deltas, pushes)`` returns every shard's, merged."""
        self.clusters = list(clusters)
        self.total_clusters = total_clusters
        self.warmup = warmup
        self.round_requests = round_requests
        self.exchange = exchange
        self.rounds = 0
        #: Counters the view adds to the worker's ``messages``.
        self.messages: dict[str, int] = {}
        self._local = {g: i for i, g in enumerate(self.clusters)}
        self._out_pushes: list[tuple[int, int, int, int]] = []

    def attach(self, scheme: Any) -> None:
        """Give ``scheme`` global ids and this view's round protocol."""
        check_shardable(scheme.name, scheme.config)
        self.scheme = scheme
        self.surface = surface = scheme.peer_surface()
        surface.rekey(self.clusters, self.total_clusters)
        self._base = [[set(m) for m in members] for _, members in surface.indexes]
        if surface.on_push is not None:
            self.messages["stale_remote_pushes"] = 0
            scheme._queue_remote_push = self.queue_push
        scheme._warmup_requests = lambda total_expected: self.warmup
        scheme._block_requests = lambda length: max(1, min(self.round_requests, length))
        scheme._after_block = self.sync

    def queue_push(self, request_index: int, src: int, dst: int, obj: int) -> None:
        """A remote write: ``src`` was served ``obj`` by ``dst``, a
        cluster in another shard, at its ``request_index``-th request."""
        position = global_position(request_index, src, self.total_clusters)
        self._out_pushes.append((position, src, dst, obj))

    def sync(self, upto: int) -> None:
        """One round boundary: report, wait for every shard, fold in."""
        merged = self.exchange(self.rounds, *self.collect())
        self.rounds += 1
        self.apply(*merged)

    def collect(self) -> tuple[dict[int, ClusterDelta], list]:
        """This round's per-cluster deltas and outgoing pushes."""
        deltas: dict[int, ClusterDelta] = {}
        for i, g in enumerate(self.clusters):
            parts: list[list[int]] = []
            for base, (_, members) in zip(self._base, self.surface.indexes):
                now = set(members[i])
                parts += [sorted(now - base[i]), sorted(base[i] - now)]
                base[i] = now
            if any(parts):
                # A digest frame has room for two indexes.
                deltas[g] = tuple(parts + [[]] * (4 - len(parts)))  # type: ignore[assignment]
        pushes, self._out_pushes = self._out_pushes, []
        return deltas, pushes

    def apply(self, deltas: dict[int, ClusterDelta], pushes: list) -> None:
        """Fold the other shards' round into the shared indexes, then
        replay incoming pushes (already in global-position order)."""
        local = self._local
        for g, parts in deltas.items():
            if g in local:
                continue
            for k, (index, _) in enumerate(self.surface.indexes):
                for obj in parts[2 * k]:
                    index.add(obj, g)
                for obj in parts[2 * k + 1]:
                    index.discard(obj, g)
        on_push = self.surface.on_push
        for _position, _src, dst, obj in pushes:
            i = local.get(dst)
            if i is not None and not on_push(i, obj):
                # Evicted inside the staleness window: the requester
                # already served the object (the copy existed when it
                # asked).
                self.messages["stale_remote_pushes"] += 1
