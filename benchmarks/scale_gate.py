"""Scale gate for the sharded engine: 10⁷ requests on one box.

Two modes:

``--mode smoke`` (the CI default) runs at 10⁵–10⁶ total requests and
asserts the one property of the sharded engine that needs a host to
measure: memory stays flat as the trace grows.  Worker peak RSS at 8x
the requests must not exceed ``--rss-factor`` (default 1.5x) of the
small run's.  The interpreter baseline (~35 MB) dominates at smoke
scale, so this catches the O(requests) regression class — a worker or
coordinator accumulating per-request/per-round Python state — rather
than kilobyte-level drift.  (The correctness contract — ``shards=1``
byte-identical on streaming traces, multi-shard bytes pinned — is
tier-1's: ``tests/shard/test_engine.py`` and ``test_golden_shards.py``.)

``--mode full`` is the measurement run behind the committed
``BENCH_scale.json``: a 10⁷-request Hier-GD simulation across
``--shards`` workers on streaming traces, plus a 10⁷/8 run to show peak
RSS is sub-linear in request count.  Trace generation is *excluded*
from the timed window (traces are pre-generated into the streaming
directory and reused by the workers).  The gate criteria:

* worker peak RSS at 10⁷ requests <= ``--rss-factor`` x the 10⁷/8 run
  (sub-linear: an in-RAM engine would grow ~8x past the baseline);
* aggregate req/s >= half the single-process hot-path rate **measured
  on the same workload in the same run** (a ``shards=1`` control) — the
  bus and round sync may tax the hot path, but not halve it.  On a
  single-core box the shards timeshare, so this bounds coordination
  overhead; with real cores it understates the speedup.

Usage::

    python benchmarks/scale_gate.py                       # CI smoke
    python benchmarks/scale_gate.py --mode full --write   # refresh baseline
    python benchmarks/scale_gate.py --mode full           # compare vs baseline

Absolute req/s only means something on the machine that wrote the
baseline; ``--mode full`` without ``--write`` therefore compares with
a loose tolerance (25%), while the RSS criterion is a ratio within one
run and is machine-independent.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.core.config import SimulationConfig
from repro.shard import run_scheme_sharded
from repro.workload import ProWGenConfig, generate_cluster_traces_streaming

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_scale.json"

#: The paper's requests-per-object proportion (10⁶ over 10⁴ per cluster,
#: §5.1) — preserved so the gate's workload is a scaled paper workload.
REQUESTS_PER_OBJECT = 100


def gate_config(
    requests_per_cluster: int,
    n_proxies: int,
    n_objects: int | None = None,
) -> SimulationConfig:
    """A paper-proportioned config at the given per-cluster scale."""
    workload = ProWGenConfig(
        n_requests=requests_per_cluster,
        n_objects=n_objects or max(1000, requests_per_cluster // REQUESTS_PER_OBJECT),
        n_clients=100,
    )
    return SimulationConfig(
        workload=workload, n_proxies=n_proxies, warmup_fraction=0.1
    )


def timed_sharded(
    name: str,
    config: SimulationConfig,
    seed: int,
    shards: int,
    trace_dir: str,
    round_requests: int | None = None,
) -> tuple[dict, object]:
    """One sharded run on pre-generated streaming traces, timed."""
    # Generate (or reuse) the streaming traces outside the timed window.
    generate_cluster_traces_streaming(
        config.workload, range(config.n_proxies), trace_dir, seed=seed
    )
    stats: dict = {}
    kwargs = {} if round_requests is None else {"round_requests": round_requests}
    start = time.perf_counter()
    result = run_scheme_sharded(
        name, config, seed=seed, shards=shards, trace_dir=trace_dir,
        stats_out=stats, **kwargs,
    )
    wall = time.perf_counter() - start
    entry = {
        "n_requests": result.n_requests,
        "wall_sec": round(wall, 3),
        "requests_per_sec": round(result.n_requests / wall),
        "worker_max_rss_kb": int(stats.get("worker_max_rss_kb", 0)),
        "shards": shards,
    }
    return entry, result


# -- smoke mode ---------------------------------------------------------------


def smoke(args: argparse.Namespace) -> int:
    lo_cfg = gate_config(args.smoke_requests, n_proxies=4)
    # 8x the requests over the same object population, so cache state is
    # constant and only per-request state could move worker peak RSS.
    hi_cfg = gate_config(
        args.smoke_requests * 8, n_proxies=4, n_objects=lo_cfg.workload.n_objects
    )
    print(
        f"scale gate (smoke): {args.smoke_requests * 4:,} total requests, "
        f"4 clusters, 2 shards, seed {args.seed}"
    )
    with tempfile.TemporaryDirectory(prefix="scale_gate_") as td:
        # Separate subdirectories: the trace files are keyed by cluster
        # index, so two scales sharing a directory would evict each
        # other's traces.
        lo, _ = timed_sharded("hier-gd", lo_cfg, args.seed, 2, str(Path(td) / "lo"))
        hi, _ = timed_sharded("hier-gd", hi_cfg, args.seed, 2, str(Path(td) / "hi"))
    ratio = hi["worker_max_rss_kb"] / max(1, lo["worker_max_rss_kb"])
    print(
        f"  [memory] hier-gd worker peak RSS: "
        f"{lo['worker_max_rss_kb'] / 1024:.0f} MiB at {lo['n_requests']:,} -> "
        f"{hi['worker_max_rss_kb'] / 1024:.0f} MiB at {hi['n_requests']:,} "
        f"({ratio:.2f}x, limit {args.rss_factor:.2f}x)"
    )
    if ratio > args.rss_factor:
        print(
            f"SCALE GATE FAILED:\n  worker RSS grew {ratio:.2f}x over an 8x "
            f"trace (limit {args.rss_factor:.2f}x) — streaming regression?"
        )
        return 1
    print("scale gate passed (smoke)")
    return 0


# -- full mode ----------------------------------------------------------------


def full_measure(args: argparse.Namespace) -> dict:
    per_cluster = args.full_requests // args.proxies
    config = gate_config(per_cluster, n_proxies=args.proxies)
    small_cfg = gate_config(
        per_cluster // 8, n_proxies=args.proxies,
        n_objects=config.workload.n_objects,
    )
    print(
        f"scale gate (full): {per_cluster * args.proxies:,} total requests, "
        f"{args.proxies} clusters, {args.shards} shards, seed {args.seed}"
    )
    with tempfile.TemporaryDirectory(prefix="scale_gate_") as fallback:
        td = args.trace_dir or fallback
        print("  generating streaming traces (untimed, reused if present)...")
        small, _ = timed_sharded(
            "hier-gd", small_cfg, args.seed, args.shards, str(Path(td) / "eighth")
        )
        print(
            f"  1/8 scale: {small['n_requests']:,} requests in "
            f"{small['wall_sec']:.1f}s ({small['requests_per_sec']:,} req/s, "
            f"{small['worker_max_rss_kb'] / 1024:.0f} MiB worker peak)"
        )
        full_td = str(Path(td) / "full")
        entry, _ = timed_sharded(
            "hier-gd", config, args.seed, args.shards, full_td
        )
        print(
            f"  full scale: {entry['n_requests']:,} requests in "
            f"{entry['wall_sec']:.1f}s ({entry['requests_per_sec']:,} req/s, "
            f"{entry['worker_max_rss_kb'] / 1024:.0f} MiB worker peak)"
        )
        # The shards=1 control: the same workload through the
        # single-process hot path (still streaming the traces), so the
        # req/s criterion compares like with like.
        single, _ = timed_sharded("hier-gd", config, args.seed, 1, full_td)
        print(
            f"  shards=1 control: {single['n_requests']:,} requests in "
            f"{single['wall_sec']:.1f}s ({single['requests_per_sec']:,} req/s)"
        )
    rss_ratio = entry["worker_max_rss_kb"] / max(1, small["worker_max_rss_kb"])
    return {
        "scheme": "hier-gd",
        "seed": args.seed,
        "full": entry,
        "eighth": small,
        "single_process": single,
        "rss_growth_over_8x_requests": round(rss_ratio, 3),
        "sharded_over_single_process": round(
            entry["requests_per_sec"] / single["requests_per_sec"], 3
        ),
    }


def full_check(measured: dict, args: argparse.Namespace) -> list[str]:
    failures = []
    ratio = measured["rss_growth_over_8x_requests"]
    if ratio > args.rss_factor:
        failures.append(
            f"worker RSS grew {ratio:.2f}x over an 8x trace "
            f"(limit {args.rss_factor:.2f}x): memory is not sub-linear"
        )
    rel = measured["sharded_over_single_process"]
    if rel < 0.5:
        failures.append(
            f"sharded rate is {rel:.2f}x the single-process rate on the "
            f"same workload (floor 0.50x): bus/sync overhead too high"
        )
    return failures


def full(args: argparse.Namespace) -> int:
    measured = full_measure(args)
    failures = full_check(measured, args)

    if args.write:
        measured["methodology"] = (
            "hier-gd on streaming traces pre-generated outside the timed "
            f"window; {args.proxies} clusters x "
            f"{args.full_requests // args.proxies:,} requests across "
            f"{args.shards} shard processes; the 1/8-scale run shares the "
            "object population so RSS growth isolates trace length. "
            "Criteria: RSS growth <= rss-factor over 8x requests "
            "(sub-linear memory), aggregate req/s >= 0.5x the shards=1 "
            "control measured on the same workload in the same run."
        )
        measured["criteria_passed"] = not failures
        BASELINE_PATH.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
    elif BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        base_rate = baseline["full"]["requests_per_sec"]
        floor = base_rate * (1.0 - args.tolerance)
        if measured["full"]["requests_per_sec"] < floor:
            failures.append(
                f"req/s {measured['full']['requests_per_sec']:,} < floor "
                f"{floor:,.0f} (baseline {base_rate:,}, "
                f"tolerance {args.tolerance:.0%})"
            )

    if failures:
        print("SCALE GATE FAILED:")
        for line in failures:
            print(f"  {line}")
        return 1
    print("scale gate passed (full)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode", choices=("smoke", "full"), default="smoke",
        help="smoke: CI correctness gate at 10^5-10^6 requests; "
        "full: the 10^7 measurement behind BENCH_scale.json",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--shards", type=int, default=4,
        help="worker processes for the full run (default 4)",
    )
    parser.add_argument(
        "--proxies", type=int, default=8,
        help="clusters for the full run (default 8)",
    )
    parser.add_argument(
        "--smoke-requests", type=int, default=50_000, metavar="N",
        help="per-cluster requests for smoke mode (default 50,000; "
        "x4 clusters = 200k total, x8 for the memory check)",
    )
    parser.add_argument(
        "--full-requests", type=int, default=10_000_000, metavar="N",
        help="total requests for full mode (default 10^7)",
    )
    parser.add_argument(
        "--rss-factor", type=float, default=1.5, metavar="X",
        help="max allowed worker peak-RSS growth over an 8x trace "
        "(default 1.5)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional req/s regression vs BENCH_scale.json "
        "in full mode (default 0.25)",
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="persistent streaming-trace directory for full mode "
        "(reused across runs; default: a temporary directory)",
    )
    parser.add_argument(
        "--write", action="store_true",
        help="write BENCH_scale.json from a full-mode run",
    )
    args = parser.parse_args(argv)
    if args.write and args.mode != "full":
        parser.error("--write requires --mode full")
    return smoke(args) if args.mode == "smoke" else full(args)


if __name__ == "__main__":
    sys.exit(main())
