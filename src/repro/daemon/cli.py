"""``repro-experiments serve`` / ``drive`` — the live-daemon subcommands.

Usage::

    repro-experiments serve --role proxy --port 7000
    repro-experiments serve --role client --port 7001
    repro-experiments drive --scheme fc --proxy 127.0.0.1:7000 \\
        --client 127.0.0.1:7001 --rate 0.1 --record traces/ --replay-check

``serve`` runs one :class:`~repro.daemon.node.CacheDaemon` in the
foreground until interrupted, then prints its service counters.
``drive`` replays a generated workload trace against running daemons via
:func:`~repro.daemon.drive_scheme`; with ``--record`` the live run
leaves the same JSONL exchange trace a simulated run would, and
``--replay-check`` immediately re-drives that trace through the replay
harness and fails loudly on any divergence — the round-trip that keeps
the live path honest against the simulator.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
from pathlib import Path

__all__ = ["daemon_main", "serve_main", "drive_main"]


def _address(text: str) -> tuple[str, int]:
    """Parse a ``host:port`` CLI argument."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected host:port, got {text!r}"
        )
    return (host or "127.0.0.1", int(port))


def serve_main(argv: list[str]) -> int:
    """Run one cache daemon in the foreground until interrupted."""
    from .node import CacheDaemon
    from ..protocol.wire import ROLES

    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description="Serve one node of the live cache hierarchy.",
    )
    parser.add_argument("--role", choices=ROLES, required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 picks an ephemeral port"
    )
    parser.add_argument(
        "--node", type=int, default=0, help="node id within the role"
    )
    args = parser.parse_args(argv)

    daemon = CacheDaemon(args.role, node=args.node)

    async def _serve() -> None:
        host, port = await daemon.start(args.host, args.port)
        print(f"serving {args.role} daemon #{args.node} on {host}:{port}", flush=True)
        try:
            await asyncio.Event().wait()
        finally:
            await daemon.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    print(json.dumps(daemon.stats, indent=2, sort_keys=True))
    return 0


def drive_main(argv: list[str]) -> int:
    """Drive a workload against running daemons; optionally record+check."""
    from ..core.schemes import SCHEME_REGISTRY
    from ..experiments.robustness import ROBUSTNESS_FRACTION, robustness_plan
    from ..experiments.runner import SCALES, base_config
    from .driver import drive_scheme

    parser = argparse.ArgumentParser(
        prog="repro-experiments drive",
        description="Replay a workload trace against live cache daemons.",
    )
    parser.add_argument("--scheme", choices=list(SCHEME_REGISTRY), required=True)
    parser.add_argument(
        "--proxy",
        type=_address,
        action="append",
        required=True,
        metavar="HOST:PORT",
        help="proxy daemon address (repeatable)",
    )
    parser.add_argument(
        "--client",
        type=_address,
        action="append",
        required=True,
        metavar="HOST:PORT",
        help="client daemon address (repeatable)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="fault rate for the robustness plan (0 = fault-free)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scale",
        choices=list(SCALES),
        default=None,
        help="workload scale (default: REPRO_SCALE / 'default')",
    )
    parser.add_argument(
        "--record",
        type=Path,
        default=None,
        metavar="DIR",
        help="record the live run's exchange trace into DIR",
    )
    parser.add_argument(
        "--replay-check",
        action="store_true",
        help="replay the recorded trace immediately; exit 1 on divergence "
        "(implies --record, defaulting DIR to repro_traces/)",
    )
    args = parser.parse_args(argv)

    if args.replay_check and args.record is None:
        args.record = Path("repro_traces")
    scale = SCALES[args.scale] if args.scale is not None else None
    plan = robustness_plan(args.rate, seed=args.seed) if args.rate else None
    overrides = {}
    if plan is not None:
        # Match the robustness experiment's sizing so faulty live runs are
        # comparable to (and byte-identical with) the simulated figure.
        overrides["proxy_cache_fraction"] = ROBUSTNESS_FRACTION
    config = base_config(scale, **overrides)
    routes = {"proxy": args.proxy, "client": args.client}

    report = drive_scheme(
        args.scheme,
        config,
        routes=routes,
        plan=plan,
        seed=args.seed,
        record_dir=args.record,
    )
    print(
        f"drove {report.scheme}: {report.n_requests} requests, "
        f"{report.exchanges} wire exchanges, {report.probes} probes "
        f"(plan={report.plan_label}, seed={report.seed})"
    )
    for field, value in sorted(dataclasses.asdict(report.result).items()):
        if isinstance(value, (int, float)):
            print(f"  {field}: {value}")
    if report.trace_path is not None:
        print(f"recorded exchange trace: {report.trace_path}")
    if args.replay_check:
        from ..protocol.replay import format_report, replay_trace

        verdict = replay_trace(report.trace_path)
        print(format_report(verdict))
        if verdict.divergence is not None or not verdict.identical:
            return 1
    return 0


def daemon_main(argv: list[str]) -> int:
    """Dispatch ``serve`` / ``drive`` (called from the experiments CLI)."""
    command, rest = argv[0], argv[1:]
    if command == "serve":
        return serve_main(rest)
    if command == "drive":
        return drive_main(rest)
    raise SystemExit(f"unknown daemon command {command!r}")  # pragma: no cover
