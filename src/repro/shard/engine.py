"""The sharded run coordinator: fan out clusters, relay round digests.

:func:`run_scheme_sharded` is the multi-core counterpart of
:func:`repro.core.run.run_scheme`:

* ``shards=1`` delegates **directly** to the single-process engine —
  same code path, same objects, byte-identical results by construction
  (the equivalence suite still asserts it).
* ``shards>1`` asks :func:`repro.shard.view.check_shardable` (the one
  refusal, before anything is forked), spawns one worker process per
  shard, deals the clusters round-robin (:mod:`repro.shard.partition`),
  and then plays message bus: every round it collects one digest frame
  per worker, merges them (:func:`repro.shard.digest.merge_digests`),
  and broadcasts the union.
  The coordinator holds no simulation state — it is a relay, so its
  memory stays flat no matter the trace length.

Workers regenerate their own traces from the run seed (streaming them
from ``trace_dir`` when given, so no process ever materializes a full
request array), which keeps the fan-out payload to a config + seed —
nothing trace-sized ever crosses a pipe.

Determinism: a fixed ``(seed, shards, round_requests)`` triple fixes
every worker's local execution and the merge order (digests are read in
shard order, pushes sorted by global position), so repeated runs are
identical.  Changing ``shards`` or ``round_requests`` changes where the
bounded-staleness windows fall and may legitimately change results —
``tests/shard/GOLDEN_shards.json`` pins both.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Any

from ..core.config import SimulationConfig
from ..core.metrics import SchemeResult
from ..core.run import run_scheme
from ..protocol.wire import decode_frame
from ..workload import generate_cluster_traces_streaming
from .digest import decode_digest, encode_merged, merge_digests
from .view import check_shardable
from .worker import worker_main

__all__ = ["ROUND_REQUESTS", "run_scheme_sharded"]

#: Default round size: per-cluster requests between digest exchanges.
#: 2¹⁶ keeps sync overhead under ~1% at paper scale while bounding
#: remote-presence staleness to one round.
ROUND_REQUESTS = 1 << 16


def _merge_payloads(
    name: str,
    payloads: list[dict[str, Any]],
    shards: int,
    round_requests: int,
    stats_out: dict[str, float] | None,
) -> SchemeResult:
    """Fold per-shard results into one :class:`SchemeResult`.

    Counters are disjoint sums (each request is processed by exactly one
    shard); the backend's mean-hops extra (``mean_<overlay>_hops``) is
    recomputed from the raw hop/message tallies so the merged mean is
    exact, not an average of averages.
    """
    tier_counts: dict[str, int] = {}
    messages: dict[str, int] = {}
    extras: dict[str, float] = {}
    for p in payloads:
        for k, v in p["tier_counts"].items():
            tier_counts[k] = tier_counts.get(k, 0) + v
        for k, v in p["messages"].items():
            messages[k] = messages.get(k, 0) + v
        for k, v in p["extras"].items():
            if not (k.startswith("mean_") and k.endswith("_hops")):
                extras[k] = extras.get(k, 0.0) + v
    total_msgs = sum(p["route_messages"] for p in payloads)
    if total_msgs:
        extras[f"mean_{payloads[0]['overlay_name']}_hops"] = (
            sum(p["route_hops"] for p in payloads) / total_msgs
        )
    extras["shards"] = float(shards)
    extras["sync_rounds"] = float(payloads[0]["rounds"])
    extras["round_requests"] = float(round_requests)
    if stats_out is not None:
        # Measurement telemetry lives outside the result so SchemeResult
        # stays deterministic (RSS varies run to run).
        stats_out["worker_max_rss_kb"] = float(
            max(p["max_rss_kb"] for p in payloads)
        )
        stats_out["worker_rss_kb"] = [float(p["max_rss_kb"]) for p in payloads]
    return SchemeResult(
        scheme=name,
        n_requests=sum(p["n_requests"] for p in payloads),
        total_latency=sum(p["total_latency"] for p in payloads),
        tier_counts=tier_counts,
        messages=messages,
        extras=extras,
    )


def run_scheme_sharded(
    name: str,
    config: SimulationConfig,
    seed: int = 0,
    shards: int = 1,
    trace_dir: str | None = None,
    round_requests: int = ROUND_REQUESTS,
    stats_out: dict[str, Any] | None = None,
) -> SchemeResult:
    """Run one scheme across ``shards`` worker processes.

    ``trace_dir`` switches workers to streaming traces (generated there
    on first use, reused afterwards); ``None`` keeps each worker's
    slice in its own RAM.  With ``shards=1`` this is exactly
    :func:`repro.core.run.run_scheme` — including trace recording,
    fault transports and every scheme in the registry.  ``stats_out``,
    when given, receives non-deterministic run telemetry (per-worker
    peak RSS) that deliberately stays out of the result.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if shards > 1:
        check_shardable(name, config)  # refuses before anything is forked
    shards = min(shards, config.n_proxies)  # no empty workers
    if shards == 1:
        traces = None
        if trace_dir is not None:
            traces = generate_cluster_traces_streaming(
                config.workload, range(config.n_proxies), trace_dir, seed=seed
            )
        return run_scheme(name, config, traces, seed=seed)
    if round_requests < 1:
        raise ValueError("round_requests must be >= 1")

    # fork where available (cheap, and does not re-import __main__ — a
    # spawn coordinator cannot be driven from a stdin script or REPL);
    # spawn elsewhere.  Workers rebuild all state from their args either
    # way, so the start method never affects results.
    try:
        ctx = mp.get_context("fork")
    except ValueError:
        ctx = mp.get_context("spawn")
    conns = []
    procs = []
    try:
        for shard in range(shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=worker_main,
                args=(
                    child_conn, name, config, seed,
                    shard, shards, trace_dir, round_requests,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        length = config.workload.n_requests
        block = max(1, min(round_requests, length)) if length else 1
        n_rounds = -(-length // block) if length else 0
        for round_index in range(n_rounds):
            digests = [decode_digest(conn.recv_bytes()) for conn in conns]
            broadcast = encode_merged(round_index, *merge_digests(digests))
            for conn in conns:
                conn.send_bytes(broadcast)

        payloads: list[dict[str, Any]] = [None] * shards  # type: ignore[list-item]
        for conn in conns:
            entry = decode_frame(conn.recv_bytes())
            if not isinstance(entry, list) or len(entry) != 3:
                raise RuntimeError(f"malformed shard result: {entry!r}")
            tag, shard, body = entry
            if tag == "e":
                raise RuntimeError(f"shard {shard} failed:\n{body}")
            if tag != "r":
                raise RuntimeError(f"malformed shard result: {entry!r}")
            payloads[int(shard)] = body
    except EOFError as exc:
        dead = [i for i, p in enumerate(procs) if not p.is_alive() and p.exitcode]
        raise RuntimeError(
            f"shard worker(s) {dead or '?'} exited without a result frame"
        ) from exc
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.terminate()
                proc.join()

    return _merge_payloads(name, payloads, shards, round_requests, stats_out)
