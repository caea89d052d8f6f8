"""Trace-driven simulation engine.

The paper evaluates every scheme by replaying request traces against the
cache hierarchy and accumulating client-perceived latency (§5.1).  This
module provides the engine those schemes plug into:

* :class:`CachingScheme` — the per-scheme contract: given (cluster,
  client, object), decide which tier serves the request, mutating cache
  state along the way.
* :meth:`CachingScheme.run` — replays the per-cluster traces round-robin
  (request i of every cluster before request i+1 of any; the traces carry
  no timestamps because the paper's clusters are statistically
  identical), maps each served tier to its latency, and assembles the
  :class:`~repro.core.metrics.SchemeResult`.

The engine is deliberately minimal: all intelligence lives in the
schemes, so the simulator core stays identical for the upper-bound
models and the mechanism-level Hier-GD, and a measured difference between
two schemes can only come from the schemes themselves.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter, deque
from itertools import islice

import numpy as np

from ..netmodel import ALL_TIERS
from ..protocol.transport import Transport
from ..workload import Trace
from .config import ClusterSizing, SimulationConfig
from .metrics import SchemeResult
from .presence import PeerSurface

__all__ = ["CachingScheme"]

#: Requests, across all clusters, that :meth:`CachingScheme.run` turns
#: into Python ints per ``map`` call: the bound on the engine's live
#: request state, whatever the trace length.
WINDOW_REQUESTS = 1 << 14


class CachingScheme(ABC):
    """Base class for all caching schemes (NC … FC-EC, Hier-GD)."""

    #: Registry name; subclasses must override.
    name = "abstract"

    def __init__(
        self,
        config: SimulationConfig,
        traces: list[Trace],
        transport: Transport | None = None,
    ) -> None:
        if len(traces) != config.n_proxies:
            raise ValueError(
                f"{config.n_proxies} proxies need {config.n_proxies} traces, "
                f"got {len(traces)}"
            )
        if not traces:
            raise ValueError("at least one trace required")
        self.config = config
        self.traces = traces
        sized = [getattr(t, "sizes", None) is not None for t in traces]
        if any(sized) and not all(sized):
            raise ValueError("all cluster traces must agree on carrying sizes")
        #: Shared per-object size table (bytes) when the workload carries
        #: sizes, else ``None``.  It is one Web: every cluster's trace is
        #: built over the same object universe, so the table from any
        #: trace serves all clusters.
        self.sizes = traces[0].sizes if sized[0] else None
        #: Same table as a plain list (fast per-request indexing).
        self._size_list = self.sizes.tolist() if self.sizes is not None else None
        self.sizings: list[ClusterSizing] = [config.sizing_for(t) for t in traces]
        #: Latency not attributable to a serving tier (e.g. wasted rounds
        #: caused by Bloom-directory false positives); added to the total.
        #: Schemes must report it through :meth:`add_extra_latency` so it
        #: respects the warmup window (or test ``_in_warmup`` themselves,
        #: as Squirrel's per-request charge does).
        self.extra_latency = 0.0
        self._in_warmup = False
        #: The cooperation-message carrier (:mod:`repro.protocol`): the
        #: base transport is the fault-free identity; a fault or recording
        #: stack gives the *same* scheme failure semantics or a trace.
        self.transport = Transport(config.network) if transport is None else transport
        self.transport.bind(self)

    def add_extra_latency(self, amount: float) -> None:
        """Record off-tier latency (ignored during the warmup window)."""
        if not self._in_warmup:
            self.extra_latency += amount

    def _size_of(self, obj: int) -> int:
        """Object size in cache-capacity units (1 when sizes are off)."""
        return 1 if self._size_list is None else self._size_list[obj]

    # -- scheme contract ----------------------------------------------------

    @abstractmethod
    def process(self, cluster: int, client: int, obj: int) -> str:
        """Serve one request; return the serving tier (see netmodel)."""

    def finalize(self) -> tuple[dict[str, int], dict[str, float]]:
        """(messages, extras) accounting collected during the run.

        Upper-bound schemes have no protocol messages; Hier-GD overrides.
        """
        return {}, {}

    def peer_surface(self) -> PeerSurface | None:
        """What this run's clusters share; ``None`` (no override, or an
        engine without presence indexes) means it cannot be sharded."""
        return None

    # -- engine ----------------------------------------------------------------
    # A shard peer view (:mod:`repro.shard.view`) rebinds the three hooks
    # below on the instance it is attached to; no class overrides them.

    def _warmup_requests(self, total_expected: int) -> int:
        """Requests excluded from statistics while caches warm.

        Under a shard peer view: the worker's slice of the *global*
        round-robin warmup window, not a fraction of the local stream.
        """
        return int(self.config.warmup_fraction * total_expected)

    def _block_requests(self, length: int) -> int:
        """Per-cluster requests read per engine block.

        A block is the unit of trace reading and of :meth:`_after_block`:
        in-memory traces are one block of numpy views, chunk-backed traces
        one chunk per block (one disk read per trace).  The request loop
        turns a block into Python ints one :data:`WINDOW_REQUESTS` window
        at a time, so the block size does not set the engine's memory.
        """
        block = length
        for t in self.traces:
            if getattr(t, "chunked", False):
                block = min(block, t.chunk_requests)
        return max(1, block)

    def _after_block(self, upto: int) -> None:
        """Hook: one block (requests ``[·, upto)`` of every cluster) has
        been fully processed.  No-op here; under a shard peer view, where
        presence digests are exchanged."""

    def run(self) -> SchemeResult:
        """Replay all traces and return the aggregated result.

        Each block is read once per trace and flattened into the
        round-robin interleave one window of :data:`WINDOW_REQUESTS`
        requests at a time (one numpy transpose each), so the request
        loop runs entirely inside ``map`` — no per-request interpreter
        iteration, length checks or warmup branching — and its live
        Python ints stay one window whatever the trace length.  A cluster
        whose trace has run out drops out of the interleave (a length
        mask over the window).  The warmup prefix is drained into a
        zero-length deque (statistics excluded), the rest is tallied by
        ``Counter`` at C speed, and latency is aggregated per tier at the
        end instead of per request.
        """
        net = self.config.network
        latency_of = {tier: net.latency(tier) for tier in ALL_TIERS}
        # Byte accounting (size-aware runs only): bytes served per tier
        # over the measured window.
        size_of = self._size_list
        bytes_by_tier = dict.fromkeys(ALL_TIERS, 0) if size_of is not None else None

        traces = self.traces
        ends = np.array([len(t) for t in traces])
        shortest, longest, total = int(ends.min()), int(ends.max()), int(ends.sum())
        warmup_n = self._warmup_requests(total)
        self._in_warmup = warmup_n > 0
        counted: Counter = Counter()
        to_warm = warmup_n
        rows = max(1, WINDOW_REQUESTS // len(traces))  # per cluster and window
        # A full window's cluster ids; ``map`` stops with a shorter window.
        round_robin = list(range(len(traces))) * rows
        block = self._block_requests(longest)
        for a in range(0, longest, block):
            b = min(longest, a + block)
            obj_cols = [t.object_slice(a, b) for t in traces]
            cli_cols = [t.client_slice(a, b) for t in traces]
            for i in range(0, b - a, rows):
                j = min(b - a, i + rows)
                if a + j <= shortest:
                    objs = np.stack([c[i:j] for c in obj_cols], axis=1).ravel().tolist()
                    clients = np.stack([c[i:j] for c in cli_cols], axis=1).ravel().tolist()
                    clusters = round_robin
                else:
                    # A trace ends inside the window: ``np.resize`` fills
                    # the short slices' tails and the length mask drops them.
                    live = np.arange(a + i, a + j)[:, None] < ends
                    objs = np.stack(
                        [np.resize(c[i:j], j - i) for c in obj_cols], axis=1
                    )[live].tolist()
                    clients = np.stack(
                        [np.resize(c[i:j], j - i) for c in cli_cols], axis=1
                    )[live].tolist()
                    clusters = live.nonzero()[1].tolist()
                tiers = map(self.process, clusters, clients, objs)
                skip = min(to_warm, len(objs))
                if skip:
                    deque(islice(tiers, skip), maxlen=0)  # caches warm
                    to_warm -= skip
                    self._in_warmup = to_warm > 0
                if bytes_by_tier is None:
                    counted.update(tiers)
                else:
                    # Sized runs keep the served tiers aligned with the
                    # request stream so bytes land on the right tier.
                    served = list(tiers)
                    counted.update(served)
                    for tier, obj in zip(served, objs[skip:]):
                        bytes_by_tier[tier] += size_of[obj]
            self._after_block(b)
        self._in_warmup = False
        tier_counts = {t: counted[t] for t in ALL_TIERS if counted[t]}
        total_latency = sum(latency_of[t] * n for t, n in tier_counts.items())

        messages, extras = self.finalize()
        if bytes_by_tier is not None:
            extras = dict(extras)
            extras["bytes_total"] = float(sum(bytes_by_tier.values()))
            for tier, nbytes in bytes_by_tier.items():
                if nbytes:
                    extras[f"bytes_{tier}"] = float(nbytes)
            extras["byte_latency"] = float(
                sum(latency_of[t] * nb for t, nb in bytes_by_tier.items())
            )
        return SchemeResult(
            scheme=self.name,
            n_requests=total - warmup_n,
            total_latency=total_latency + self.extra_latency,
            tier_counts=tier_counts,
            messages=messages,
            extras=extras,
        )
