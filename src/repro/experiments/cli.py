"""``repro-experiments`` — regenerate the paper's figures from the CLI.

Usage::

    repro-experiments all                  # every figure at REPRO_SCALE
    repro-experiments fig2a fig5c          # a subset
    repro-experiments fig3 --scale smoke   # quick shape check
    repro-experiments fig2a --out results  # also write CSVs
    repro-experiments all --workers 0      # fan out over every CPU core
    repro-experiments all --resume --progress
                                           # resumable suite with live ticks

Each figure prints the data table (the same rows the paper plots) and an
ASCII rendering of the curves; ``--out`` additionally saves one CSV per
panel for external plotting plus an ``instrumentation.json`` with the
run's per-point timings.

Parallel execution (``--workers N``, ``0`` = all cores) fans the sweep
points out over a process pool; results are byte-identical to a serial
run.  ``--resume [PATH]`` attaches the JSON-lines result store (default
``repro_store.jsonl``, placed inside ``--out`` when given): completed
points are skipped on re-invocation, so an interrupted suite picks up
where it stopped.  ``--progress`` prints one line per finished point.

Record & replay (``repro.protocol`` wire traces)::

    repro-experiments fig2a --record --resume --out results
                                           # one exchange trace per point,
                                           # next to the result store
    repro-experiments --replay results/repro_store_traces/hier-gd-....jsonl
                                           # re-drive it; byte-identical or
                                           # a first-divergence report

``--record [DIR]`` streams every simulated point's cooperation exchanges
to a content-addressed JSONL trace (default directory: the result
store's ``<store>_traces/`` sibling, else ``repro_traces/`` under
``--out``).  Recording is in-process, so it forces ``--workers 1``.
``--replay <trace>`` needs no figure ids; exit status 1 signals a
divergent or non-identical replay.

Live daemons (``repro.daemon``)::

    repro-experiments serve --role proxy --port 7000
    repro-experiments serve --role client --port 7001
    repro-experiments drive --scheme fc --proxy 127.0.0.1:7000 \\
        --client 127.0.0.1:7001 --rate 0.1 --record traces/ --replay-check

``serve`` runs one cache daemon in the foreground; ``drive`` replays a
generated workload against running daemons over the wire protocol of
``docs/PROTOCOL.md`` and can record/replay-check the live exchange
trace.  Both subcommands are dispatched to :mod:`repro.daemon.cli`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from functools import partial
from pathlib import Path

from ..analysis.plots import ascii_plot
from ..analysis.results import SweepResult
from ..perf import collecting_op_counters, profile_call
from ..protocol.trace import recording_traces
from .executor import ExperimentEngine
from .figures import FIGURES, run_figure
from .runner import SCALES, current_overlay, current_scale

__all__ = ["main", "add_engine_arguments", "engine_from_args"]

#: Store filename used when ``--resume`` is given without a path.
DEFAULT_STORE = "repro_store.jsonl"


def add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags ``repro-experiments`` and the report generator share:
    what to run at (``--scale``, ``--seed``) and how to run it
    (``--workers``, ``--resume``, ``--progress``, ``--record``)."""
    parser.add_argument(
        "--scale",
        choices=list(SCALES),
        default=None,
        help="override REPRO_SCALE for this invocation",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sweep points (0 = all CPU cores; default 1)",
    )
    parser.add_argument(
        "--resume",
        nargs="?",
        const="auto",
        default=None,
        metavar="PATH",
        help="skip points already in the JSONL result store and append new "
        f"ones (default store: {DEFAULT_STORE}, inside --out when given)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one line per completed sweep point",
    )
    parser.add_argument(
        "--record",
        nargs="?",
        const="auto",
        default=None,
        metavar="DIR",
        help="record every simulated point's wire-level exchange trace "
        "(repro.protocol JSONL) into DIR; default DIR is the result "
        "store's <store>_traces/ sibling, else repro_traces/ under --out "
        "(forces --workers 1: recording is in-process)",
    )


def engine_from_args(
    args: argparse.Namespace, out_dir: Path | None
) -> tuple[ExperimentEngine, Path | None]:
    """``(engine, exchange-trace directory or None)`` from the shared flags.

    ``--resume`` without a path picks :data:`DEFAULT_STORE` under
    ``out_dir``; ``--record`` without a directory picks the store's
    ``<store>_traces/`` sibling, else ``repro_traces/`` under ``out_dir``.
    """
    if args.record is not None and args.workers != 1:
        print("[--record forces --workers 1]")
        args.workers = 1
    base = out_dir or Path(".")
    store_path = str(base / DEFAULT_STORE) if args.resume == "auto" else args.resume
    try:
        engine = ExperimentEngine.from_options(
            workers=args.workers,
            store_path=store_path,
            progress=args.progress,
        )
    except OSError as exc:
        raise SystemExit(f"repro-experiments: cannot open result store: {exc}") from exc
    if engine.store is not None:
        store = engine.store
        skipped = store.skipped_lines
        note = f", {skipped} unreadable rows skipped" if skipped else ""
        print(f"result store: {store.path} ({len(store)} points{note})")
    record_dir: Path | None = None
    if args.record is not None:
        if args.record != "auto":
            record_dir = Path(args.record)
        elif engine.store is not None:
            record_dir = engine.store.trace_dir
        else:
            record_dir = base / "repro_traces"
        print(f"recording exchange traces to {record_dir}")
    return engine, record_dir


def _emit(name: str, sweeps: dict[str, SweepResult], out_dir: Path | None) -> None:
    for key, sweep in sweeps.items():
        print()
        print(sweep.to_table())
        print()
        print(ascii_plot(sweep))
        if out_dir is not None:
            path = out_dir / f"{name}_{key}.csv" if key != name else out_dir / f"{name}.csv"
            sweep.save_csv(path)
            print(f"[saved {path}]")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in ("serve", "drive"):
        # Live-daemon subcommands (see repro.daemon.cli) dispatch before
        # the figure parser: they share the entry point, not its flags.
        from ..daemon.cli import daemon_main

        return daemon_main(argv)
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures of Zhu & Hu (ICPP 2003).",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        metavar="FIGURE",
        # the bare list keeps zero-figure invocations (--replay) valid on
        # Pythons where nargs="*" validates the empty default too
        choices=[*FIGURES, "all", []],
        help="figure ids to run ('all' for every figure; optional with "
        "--replay)",
    )
    add_engine_arguments(parser)
    parser.add_argument(
        "--overlay",
        choices=("pastry", "chord"),
        default=None,
        help="override REPRO_OVERLAY for this invocation: the structured "
        "overlay backend every figure runs on (default pastry; the "
        "bakeoff figure always runs both)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory to write per-panel CSV files into",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run each figure under cProfile and collect per-scheme cache op "
        "counters plus per-exchange/per-link protocol traffic; writes "
        "profile_<figure>.json next to instrumentation.json "
        "(forces --workers 1: profiling is in-process)",
    )
    parser.add_argument(
        "--replay",
        metavar="TRACE",
        default=None,
        help="replay one recorded exchange trace and report byte-identity "
        "or the first divergence; no figure ids needed (exit 1 on "
        "divergence)",
    )
    args = parser.parse_args(argv)

    if args.replay is not None:
        from ..protocol.replay import format_report, replay_trace

        report = replay_trace(args.replay)
        print(format_report(report))
        return 0 if report.identical and report.divergence is None else 1
    if not args.figures:
        parser.error("at least one figure id is required (or --replay TRACE)")

    scale = current_scale(args.scale)
    overlay = current_overlay(args.overlay)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    if args.profile and args.workers != 1:
        print("[--profile forces --workers 1]")
        args.workers = 1
    engine, record_dir = engine_from_args(args, args.out)

    names = list(FIGURES) if "all" in args.figures else list(dict.fromkeys(args.figures))
    print(f"scale={scale.label} ({scale.n_requests} requests, "
          f"{scale.n_objects} objects, {scale.n_clients} clients per cluster), "
          f"overlay={overlay}, workers={engine.workers}")
    record_ctx = (
        recording_traces(record_dir) if record_dir is not None else nullcontext()
    )
    figure = partial(
        run_figure, scale=scale, overlay=overlay, seed=args.seed, engine=engine
    )
    with record_ctx as recorder:
        for name in names:
            started = time.time()
            print(f"\n### {name} ...", flush=True)
            if args.profile:
                with collecting_op_counters() as collector:
                    result, report = profile_call(figure, name)
                _emit(name, result, args.out)
                for fn in report["top_functions"][:5]:
                    print(
                        f"  [profile] {fn['tottime_sec']:8.3f}s "
                        f"{fn['ncalls']:>9} calls  {fn['function']}"
                    )
                for sname, slot in collector.per_scheme.items():
                    proto = slot.get("protocol")
                    if not proto:
                        continue
                    links = "  ".join(
                        f"{link}={n:,}"
                        for link, n in sorted(proto["links"].items())
                        if n
                    )
                    exchanges = "  ".join(
                        f"{kind}={n:,}"
                        for kind, n in sorted(proto["exchanges"].items())
                        if n
                    )
                    print(f"  [protocol] {sname}: links {links or '-'}")
                    if exchanges:
                        print(f"  [protocol] {sname}: exchanges {exchanges}")
                for sname, slot in collector.per_scheme.items():
                    ostats = slot.get("overlay")
                    if not ostats:
                        continue
                    for backend, o in sorted(ostats.items()):
                        repairs = "  ".join(
                            f"{kind}={n:,}"
                            for kind, n in sorted(o["repairs"].items())
                            if n
                        )
                        print(
                            f"  [overlay] {sname}: {backend} "
                            f"mean_route_hops={o['mean_route_hops']:.2f} "
                            f"(messages={o['messages']:,} "
                            f"max_hops={o['max_hops']})"
                            + (f"  {repairs}" if repairs else "")
                        )
                if args.out is not None:
                    profile_path = args.out / f"profile_{name}.json"
                    profile_path.write_text(
                        json.dumps(
                            {
                                "figure": name,
                                "profile": report,
                                "op_counters": collector.per_scheme,
                            },
                            indent=2,
                        )
                        + "\n",
                        encoding="utf-8",
                    )
                    print(f"[saved {profile_path}]")
            else:
                _emit(name, figure(name), args.out)
            print(f"[{name} done in {time.time() - started:.1f}s]")
    if recorder is not None:
        print(f"\n[recorded {len(recorder.written)} exchange traces in {record_dir}]")

    inst = engine.instrument
    if inst is not None and inst.total:
        print(
            f"\n[{inst.executed} points simulated, {inst.skipped} from store; "
            f"{inst.elapsed:.1f}s wall, "
            f"{inst.requests_per_sec():,.0f} req/s, "
            f"{inst.worker_utilization(engine.workers):.0%} worker utilization]"
        )
        if args.out is not None:
            inst_path = args.out / "instrumentation.json"
            inst.write(inst_path, workers=engine.workers)
            print(f"[saved {inst_path}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
