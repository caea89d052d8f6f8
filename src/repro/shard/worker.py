"""Shard worker process: own a cluster slice, sync at round boundaries.

Each worker regenerates its clusters' traces from the run seed (by
global cluster index, so the workload is bit-identical to what a
single-process run over all clusters would draw — see
:func:`repro.workload.cluster_trace_seed`) and hands them to
:func:`repro.core.run.assemble_run` together with a
:class:`~repro.shard.view.ShardView` — the same scheme class, engine
loop and assembly as any other run.  At every round boundary the view
calls the worker's ``exchange``, which sends this round's digest up the
pipe and blocks for the coordinator's merged broadcast.  After the final round
the worker ships its :class:`~repro.core.metrics.SchemeResult` (plus the
raw overlay-hop tallies and its peak RSS) as one last wire frame.

Everything crossing the pipe is a :mod:`repro.shard.digest` frame —
newline-terminated JSON via the protocol wire layer — so a worker crash
surfaces as an ``["e", shard, traceback]`` frame the coordinator turns
into a raised error instead of a hang.
"""

from __future__ import annotations

import dataclasses
import resource
import traceback

from ..core.config import SimulationConfig
from ..core.run import assemble_run
from ..protocol.wire import encode_frame
from ..workload import (
    cluster_trace_seed,
    generate_cluster_traces_streaming,
    generate_trace,
)
from .digest import decode_merged, encode_digest
from .partition import clusters_of_shard, local_warmup
from .view import ShardView

__all__ = ["worker_main", "shard_traces"]


def shard_traces(
    config: SimulationConfig,
    clusters: list[int],
    seed: int,
    trace_dir: str | None,
):
    """This shard's traces: streaming when a trace dir is given, else RAM."""
    if trace_dir is not None:
        return generate_cluster_traces_streaming(
            config.workload, clusters, trace_dir, seed=seed
        )
    return [
        generate_trace(
            config.workload,
            seed=cluster_trace_seed(seed, c),
            name=f"cluster{c}",
            counts_seed=seed,
        )
        for c in clusters
    ]


def worker_main(
    conn,
    name: str,
    config: SimulationConfig,
    seed: int,
    shard: int,
    shards: int,
    trace_dir: str | None,
    round_requests: int,
) -> None:
    """Entry point of one shard process (spawn-safe, module-level)."""
    try:
        clusters = clusters_of_shard(shard, shards, config.n_proxies)
        traces = shard_traces(config, clusters, seed, trace_dir)
        length = config.workload.n_requests
        warmup = local_warmup(
            int(config.warmup_fraction * length * config.n_proxies),
            clusters,
            config.n_proxies,
        )

        def exchange(round_index: int, deltas, pushes):
            conn.send_bytes(encode_digest(round_index, shard, deltas, pushes))
            merged_round, merged_deltas, merged_pushes = decode_merged(
                conn.recv_bytes()
            )
            if merged_round != round_index:
                raise RuntimeError(
                    f"shard {shard} at round {round_index}, coordinator "
                    f"broadcast round {merged_round}"
                )
            return merged_deltas, merged_pushes

        view = ShardView(clusters, config.n_proxies, warmup, round_requests, exchange)
        # The scheme constructor pairs traces with config.n_proxies; this
        # worker holds a slice, so it runs under a local view of the
        # config (per-cluster sizing does not depend on n_proxies — the
        # global count travels in the view for probe/position arithmetic).
        local_config = dataclasses.replace(config, n_proxies=len(clusters))
        result = assemble_run(name, local_config, traces, seed=seed, view=view)
        payload = dataclasses.asdict(result)
        payload["messages"].update(view.messages)
        states = getattr(view.scheme, "states", [])
        payload["overlay_name"] = states[0].overlay.name if states else "overlay"
        payload["route_messages"] = sum(s.overlay.stats.messages for s in states)
        payload["route_hops"] = sum(s.overlay.stats.total_hops for s in states)
        payload["rounds"] = view.rounds
        payload["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        conn.send_bytes(encode_frame(["r", shard, payload]))
    except BaseException:
        try:
            conn.send_bytes(encode_frame(["e", shard, traceback.format_exc()]))
        finally:
            raise
    finally:
        conn.close()
