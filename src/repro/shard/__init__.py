"""Sharded multi-core simulation: cluster-per-process decomposition.

One simulation, many processes: each worker owns a subset of the client
clusters (proxy + P2P tier + their traces) and runs the ordinary engine
over them; the cross-cluster stages of the miss chain — cooperating
proxies and the push protocol — cross a pipe-based message bus speaking
the :mod:`repro.protocol` wire framing, with presence state exchanged as
per-round digests (bounded staleness) instead of per-request RPCs.

Layering:

* :mod:`repro.shard.partition` — cluster→shard deal + stream arithmetic;
* :mod:`repro.shard.digest` — round-digest frames over the wire layer;
* :mod:`repro.shard.view` — the peer view a worker's scheme sees other
  shards' clusters through (global ids, round deltas, queued pushes),
  and :func:`check_shardable`, the one refusal;
* :mod:`repro.shard.worker` — the per-process main (a run assembled by
  :func:`repro.core.run.assemble_run` under a view);
* :mod:`repro.shard.engine` — the coordinator/relay and the public
  :func:`run_scheme_sharded`.

``shards=1`` is the single-process engine verbatim (byte-identical);
``shards>1`` is deterministic for a fixed seed, shard count and round
size.
"""

from ..core.config import UnsupportedConfiguration
from .engine import ROUND_REQUESTS, run_scheme_sharded
from .partition import clusters_of_shard, local_warmup
from .view import ShardView, check_shardable

__all__ = [
    "ROUND_REQUESTS",
    "run_scheme_sharded",
    "clusters_of_shard",
    "local_warmup",
    "ShardView",
    "UnsupportedConfiguration",
    "check_shardable",
]
