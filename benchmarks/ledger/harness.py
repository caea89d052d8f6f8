"""One run of one workload: set up, run the anchors, time, check, report.

Untraced (``--trace 0``) the run reports the end-to-end metrics, host time
normalised by the calibrator of :mod:`calibrate`; traced
(``--trace 1``) it times a few untraced bodies for the base, repeats the
body once with the timing layers in place, runs the layer probes and
reports every per-layer metric.  Both check every scheme run's result
digest and end with one JSON line for the driver.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import nullcontext
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any

import probes
from calibrate import NOMINAL_SLICE_S, Calibrator, Sampled, normalised
from spans import Tracer
from workloads import FAULT_RATE, ROUND, WORKLOADS, Op, State, Workload

from repro.experiments.robustness import robustness_plan
from repro.experiments.store import serialize_result
from repro.netmodel import ALL_TIERS

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
#: Scratch space inside the checkout (the benchmark writes nowhere else).
SCRATCH = ROOT / ".bench_ledger"

#: Timed repeats of the body: at least this many, and as many more as
#: the ``--seconds`` window holds.
MIN_REPEATS = 3
#: Untraced repeats a traced run times for its overhead base.
TRACED_BASE_REPEATS = 2
#: Set-up is repeated (each time into a fresh directory) up to three
#: times while the repeats fit this many seconds; the median is reported.
SETUP_SECONDS = 5.0
MAX_SETUPS = 3


def declared() -> dict[str, dict[str, str]]:
    """``{kind: {metric name: unit}}`` as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def cpu_seconds() -> float:
    """User + system CPU of this process and the children it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def digest(op: Op) -> str:
    canonical = json.dumps(
        serialize_result(op.result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Checker:
    """Counts operations and the ones whose result digest is wrong.

    Every op with one label must hash the same within a run (repeats,
    traced vs untraced, async vs its sync anchor, live vs simulated),
    and the same as the committed golden where there is one for this
    ``(workload, scale, seed)``.
    """

    def __init__(self, key: str, golden_path: Path) -> None:
        self.key = key
        self.golden_path = golden_path
        goldens = json.loads(golden_path.read_text()) if golden_path.exists() else {}
        self.expected: dict[str, str] | None = goldens.get(key)
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            self.attempted += 1 + op.wire_ops
            got = digest(op)
            want = self.first.setdefault(op.label, got)
            if self.expected is not None:
                want = self.expected.get(op.label, want)
            if got != want:
                self.failed += 1
                print(
                    f"# MISMATCH {self.key} {op.label}: {got[:16]} != {want[:16]}",
                    file=sys.stderr,
                )

    def write_golden(self) -> None:
        goldens = (
            json.loads(self.golden_path.read_text()) if self.golden_path.exists() else {}
        )
        goldens[self.key] = dict(sorted(self.first.items()))
        self.golden_path.write_text(
            json.dumps(dict(sorted(goldens.items())), indent=1) + "\n"
        )


def sampled(calibrator: Calibrator | None, call) -> tuple[list, Any]:
    """``([wall s, cpu s, slices], call())``: one calibrated timing.

    Calibrator slices run inside the call on a timer; wall and CPU are the
    call's own, the slices' taken out.  Without a calibrator the timing is
    raw: its one "slice" is the nominal one, which normalises to itself.
    """
    with Sampled(calibrator) if calibrator else nullcontext() as inside:
        cpu = cpu_seconds()
        start = perf_counter()
        value = call()
        wall = perf_counter() - start
        cpu = cpu_seconds() - cpu
    if inside is None:
        return [wall, cpu, [NOMINAL_SLICE_S]], value
    return [wall - inside.wall, cpu - inside.cpu, inside.slices], value


class StepClock:
    """Times every step of the bodies it is handed to (``Timed``)."""

    def __init__(self, calibrator: Calibrator | None) -> None:
        self.calibrator = calibrator
        #: Per step label, one ``[wall s, cpu s, slices]`` per repeat.
        self.samples: dict[str, list[list]] = {}

    def __call__(self, label: str, call):
        gc.collect()
        sample, value = sampled(self.calibrator, call)
        self.samples.setdefault(label, []).append(sample)
        return value

    def seconds(self, column: int) -> float:
        """One body in quiet-sandbox seconds: per step the median repeat."""
        return sum(
            statistics.median(normalised(sample[column], sample[2]) for sample in repeats)
            for repeats in self.samples.values()
        )


def timed_body(workload: Workload, state: State, tracer: Tracer | None = None):
    """One body: ``(wall s, ops)``, garbage collected beforehand."""
    gc.collect()
    start = perf_counter()
    ops = workload.body(state, tracer)
    return perf_counter() - start, ops


def peak_rss_mib(state: State) -> float:
    """Peak RSS of the driver, or of a shard worker where one was larger."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(kib, state.shard_stats.get("worker_max_rss_kb", 0.0)) / 1024.0


# -- the untraced run: end-to-end metrics ---------------------------------------


def end_to_end(workload, seed, div, seconds, tmp, checker):
    """``(metrics, samples)``: the metrics, and the samples behind them."""
    calibrator = Calibrator() if workload.calibrated else None
    clock = StepClock(calibrator)
    setups: list[list] = []
    state = None
    try:
        while len(setups) < MAX_SETUPS and (
            not setups or sum(s[0] for s in setups) + setups[-1][0] <= SETUP_SECONDS
        ):
            if state is not None:
                state.close()
                shutil.rmtree(state.tmp)
            directory = tmp / f"setup{len(setups)}"
            directory.mkdir()
            sample, state = sampled(
                calibrator, partial(workload.setup, seed, directory, div)
            )
            setups.append(sample)
        checker.check(workload.anchors(state))
        began = perf_counter()
        repeats = 0
        while repeats < MIN_REPEATS or perf_counter() - began < seconds:
            ops = workload.body(state, timed=clock)
            repeats += 1
            checker.check(ops)
        rss = peak_rss_mib(state)
    finally:
        if state is not None:
            state.close()
    requests = state.requests * len(ops)
    wall = clock.seconds(0)
    raw = [sum(r[k][0] for r in clock.samples.values()) for k in range(repeats)]
    slices = [x for r in clock.samples.values() for sample in r for x in sample[2]]
    print(
        f"# wall_s repeats={repeats} raw min={min(raw):.4f} "
        f"median={statistics.median(raw):.4f} max={max(raw):.4f}"
    )
    print(
        f"# calibrator slices={len(slices)} min={min(slices):.5f} "
        f"mean={statistics.fmean(slices):.5f} nominal={NOMINAL_SLICE_S}"
    )
    print(f"# setup_s repeats={len(setups)} raw {' '.join(f'{s[0]:.4f}' for s in setups)}")
    print(f"# requests_per_body {requests}")
    values = {
        "req_per_s": requests / wall,
        "cpu_s_per_mreq": clock.seconds(1) / (requests / 1e6),
        "peak_rss_mib": rss,
        "setup_s": statistics.median(normalised(s[0], s[2]) for s in setups),
        "wall_s": wall,
    }
    return values, {"steps": clock.samples, "setups": setups}


# -- the traced run: per-layer metrics ------------------------------------------


def seconds_of(span: dict[str, Any] | None) -> float:
    return Tracer.busy_ns(span) / 1e9 if span else 0.0


def run_probes(state: State, tracer: Tracer) -> dict[str, probes.Probe]:
    config, traces, seed = state.config, state.traces, state.seed
    plan = state.plan or robustness_plan(FAULT_RATE, seed)
    out: dict[str, probes.Probe] = {}
    with tracer.span("probes"):
        with tracer.span("probe.cache"):
            out.update(probes.cache_probes(config, traces, seed))
        with tracer.span("probe.overlay"):
            out.update(probes.overlay_probes(config, traces))
        with tracer.span("probe.membership"):
            out.update(probes.membership_probes(config, traces))
        with tracer.span("probe.ladder"):
            out["ladder"] = probes.ladder_probe(config, plan)
        with tracer.span("probe.wire"):
            out["wire"] = probes.wire_probe()
        with tracer.span("probe.digest"):
            out["digest"] = probes.digest_probe(config, traces, ROUND)
        with tracer.span("probe.sizes"):
            out["sizes"] = probes.sizes_probe(config, seed)
    return out


def layer_metrics(
    state: State,
    tracer: Tracer,
    probed: dict[str, probes.Probe],
    base_wall: float,
    traced_wall: float,
) -> dict[str, float]:
    """Every per-layer metric the traced body, set-up and probes give.

    A layer the workload does not run reads 0.
    """
    runs = tracer.runs
    # Set-up generates exactly the requests one scheme run replays.
    requests = state.requests
    m: dict[str, float] = {}

    # workload/ -- from the real set-up call and the trace proxies.
    generate_s = tracer.total_ns("workload.generate") / 1e9
    streaming = any(getattr(t, "chunked", False) for t in state.traces)
    m["workload.prowgen_req_per_s"] = 0.0 if streaming else requests / generate_s
    m["workload.stream_write_req_per_s"] = requests / generate_s if streaming else 0.0
    m["workload.sizes_sample_s"] = probed["sizes"].seconds
    reads = [t for run in runs for t in run.get("reads", [])]
    read_s = sum(t.reads.busy_ns for t in reads) / 1e9
    m["workload.stream_read_req_per_s"] = (
        sum(t.requests_read for t in reads) / read_s if read_s else 0.0
    )
    m["workload.stream_read_share"] = read_s / traced_wall
    m["workload.trace_bytes_on_disk"] = float(sum(
        t.path.stat().st_size for t in state.traces if getattr(t, "chunked", False)
    ))

    # overlay/
    m["overlay.build_s"] = probed["build"].seconds
    m["overlay.owner_table_s"] = probed["owner_table"].seconds
    m["overlay.route_us"] = probed["route"].ns_per_op / 1e3
    m["overlay.route_hops_mean"] = probed["route"].extra["hops_mean"]
    m["overlay.epochs"] = float(sum(run.get("epochs", 0) for run in runs))

    # cache/
    for kind in ("gd_unit", "gd_sized", "lfu", "tiered", "costbenefit", "topk", "lru"):
        name = "gd" if kind == "gd_unit" else kind
        m[f"cache.{name}_ops_per_s"] = probed[kind].per_second
    m["cache.hit_ratio"] = probed["gd"].extra["hit_ratio"]
    m["cache.evictions_per_insert"] = probed["gd"].extra["evictions_per_insert"]
    m["cache.gd_ns_per_op_over_log2n"] = (
        probed["gd_unit"].ns_per_op / probed["gd_unit"].extra["log2n"]
    )

    # bloom/, core/ structures
    m["bloom.ops_per_s"] = probed["bloom"].per_second
    m["core.directory_ops_per_s"] = probed["directory"].per_second
    m["core.presence_ops_per_s"] = probed["presence"].per_second

    # core/ -- the three public calls of every scheme run of the body.
    m["core.construct_s"] = sum(seconds_of(run.get("construct")) for run in runs)
    m["core.run_s"] = sum(seconds_of(run["run"]) for run in runs)
    m["core.finalize_s"] = tracer.total_ns("core.finalize") / 1e9
    for scheme in ("nc", "sc", "fc", "nc-ec", "sc-ec", "fc-ec", "hier-gd", "squirrel"):
        mine = [run for run in runs if run["scheme"] == scheme]
        run_s = sum(seconds_of(run["run"]) for run in mine)
        m[f"core.{scheme}_req_per_s"] = (
            sum(run["requests"] for run in mine) / run_s if run_s else 0.0
        )
    for run in runs:
        share = (seconds_of(run.get("construct")) + seconds_of(run["run"])) / traced_wall
        print(f"# body_share {run['label']} {share:.4f}")

    # The headline Hier-GD run's simulated statistics: exact, they move
    # under no host-side optimisation.
    headline = next(run["result"] for run in runs if run["label"] == "hier-gd")
    for tier in ALL_TIERS:
        m[f"core.tier_share.{tier}"] = headline.hit_rate(tier)
    m["core.messages_per_request"] = sum(headline.messages.values()) / headline.n_requests
    m["core.sim_mean_latency"] = headline.mean_latency
    for extra, value in headline.extras.items():
        if extra.startswith("mean_") and extra.endswith("_hops"):
            print(f"# run {extra} {value:.4f} (overlay.route_hops_mean is the probe's)")

    # protocol/ -- the timing layer outermost on every run's stack.
    transports = [run["transport"] for run in runs if "transport" in run]
    exchanges = sum(t.calls for t in transports)
    busy_s = sum(t.busy_ns for t in transports) / 1e9
    m["protocol.exchanges"] = float(exchanges)
    m["protocol.attempt_us_mean"] = 1e6 * busy_s / exchanges if exchanges else 0.0
    m["protocol.transport_share"] = busy_s / traced_wall
    faults = headline.fault_summary()
    for counter in ("timeouts", "retries", "fallbacks"):
        m[f"protocol.{counter}"] = float(faults[counter])
    m["protocol.wasted_round_ratio"] = faults["retries"] / exchanges if exchanges else 0.0
    m["protocol.ladders_per_s"] = probed["ladder"].per_second
    m["protocol.wire_frames_per_s"] = probed["wire"].per_second
    events = sum(run.get("record_events", 0) for run in runs)
    m["protocol.record_bytes_per_exchange"] = (
        sum(run.get("record_bytes", 0) for run in runs) / events if events else 0.0
    )
    m["protocol.record_seal_s"] = sum(seconds_of(run.get("seal")) for run in runs)

    # shard/ probe (the run's own numbers come from the workload).
    m["shard.digest_merge_us"] = probed["digest"].ns_per_op / 1e3

    # trace/
    accounted = (
        m["core.construct_s"] + m["core.run_s"] + m["protocol.record_seal_s"]
        + tracer.total_ns("daemon.handshake") / 1e9
    )
    m["trace.accounted_share"] = accounted / traced_wall
    m["trace.overhead_pct"] = 100.0 * (traced_wall / base_wall - 1.0)
    return m


def per_layer(workload, seed, div, tmp, checker, out) -> dict[str, float]:
    """The per-layer metrics; writes the spans to ``out`` when given."""
    tracer = Tracer(workload.name)
    state = None
    try:
        with tracer.span("setup"):
            state = workload.setup(seed, tmp, div, tracer)
        checker.check(workload.anchors(state))
        walls = []
        for _ in range(TRACED_BASE_REPEATS):
            wall, ops = timed_body(workload, state)
            walls.append(wall)
            checker.check(ops)
        base_wall = min(walls)
        with tracer.span("body"):
            traced_wall, ops = timed_body(workload, state, tracer)
        checker.check(ops)
        metrics, more_ops = workload.extra_layers(state, tracer, base_wall, traced_wall)
        checker.check(more_ops)
        probed = run_probes(state, tracer)
        metrics.update(layer_metrics(state, tracer, probed, base_wall, traced_wall))
    finally:
        if state is not None:
            state.close()
    metrics["trace.spans"] = float(len(tracer.spans))
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{workload.name}.spans.json").write_text(json.dumps(tracer.spans) + "\n")
    return metrics


# -- reporting ------------------------------------------------------------------


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    units = declared()[kind]
    checker = Checker(f"{workload.name}/div{args.div}/seed{args.seed}", args.golden)
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        if args.trace:
            samples: dict[str, list[float]] = {}
            values = per_layer(workload, args.seed, args.div, Path(tmp), checker, args.out)
        else:
            values, samples = end_to_end(
                workload, args.seed, args.div, args.seconds, Path(tmp), checker
            )
    if set(values) != set(units):
        raise SystemExit(
            f"metrics computed and declared in BENCHMARK.json differ: "
            f"{sorted(set(values) ^ set(units))}"
        )
    if args.write_golden:
        checker.write_golden()
    for name in units:
        print(f"{name} {values[name]!r} {units[name]}")
    print(f"failed_op_share {checker.failed / checker.attempted!r} failed/attempted")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        record = dict(
            result, workload=workload.name, seed=args.seed, div=args.div, samples=samples
        )
        kind = "layers" if args.trace else f"s{args.seed}"
        (args.out / f"{workload.name}.{kind}.json").write_text(
            json.dumps(record, indent=1) + "\n"
        )
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1
