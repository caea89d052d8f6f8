"""The six workloads: what each configures, sets up, runs and checks.

All are ProWGen workloads with the paper's shape (50 % one-timers, Zipf
0.7, tens of requests per object; Dolgikh & Sukhov's measured proxy
parameters are why none is a synthetic stress shape).  A workload is a
closed loop in one driver process: the simulator replays one request
after another.  Sizes were chosen from timings on the 2-core sandbox so
that set-up + anchor run + timed repeats of one run stay under 30 s (see
README.md); change a size only in a PR of its own and re-baseline.

An untraced body calls the program's public one-call entry points.  A
traced body wires the same run from public classes (:func:`wired_run`)
so the timing layers of :mod:`spans` can sit in the stack; its results
must hash the same as the untraced ones.
"""

from __future__ import annotations

import gc
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, NamedTuple

from spans import TimedTrace, TimingTransport, Tracer, percentile

from repro.core.config import SimulationConfig
from repro.core.metrics import SchemeResult
from repro.core.run import available_schemes, gains_vs_nc, run_scheme, with_backend
from repro.core.schemes import SCHEME_REGISTRY
from repro.daemon import DaemonTransport, LocalCluster
from repro.experiments.robustness import robustness_plan
from repro.faults.run import FAULTY_SCHEMES, run_scheme_with_faults
from repro.protocol.trace import TraceRecorder, recording_traces
from repro.protocol.transport import FaultTransport, Transport
from repro.shard import run_scheme_sharded
from repro.workload import (
    ProWGenConfig,
    generate_cluster_traces,
    generate_cluster_traces_streaming,
)

#: Window of the chunked traces and round of the sharded run (requests
#: per cluster): at 200 k requests a cluster is read in 7 windows.
ROUND = 1 << 15
#: Fault rate of the composite robustness plan the two faulty workloads run.
FAULT_RATE = 0.1


#: Per-layer metrics only one workload's own run can give; 0 elsewhere.
RUN_ONLY_METRICS = (
    "protocol.record_overhead_pct",
    "protocol.async_overhead_pct",
    "shard.speedup_vs_single",
    "shard.rounds",
    "shard.worker_peak_rss_mib",
    "shard.stale_pushes",
    "daemon.cluster_start_s",
    "daemon.handshake_ms",
    "daemon.exchanges_per_s",
    "daemon.exchange_rtt_p50_us",
    "daemon.exchange_rtt_p99_us",
    "daemon.rtt_p999_us",
    "daemon.probe_rtt_p50_us",
    "daemon.driver_share",
    "daemon.max_in_flight",
)


class Op(NamedTuple):
    """One operation of a body: a scheme run (it replays ``State.requests``)."""

    label: str
    result: SchemeResult
    #: Wire exchanges + probes the run sent to live daemons.
    wire_ops: int = 0


@dataclass
class State:
    """What set-up hands the body."""

    config: SimulationConfig
    seed: int
    traces: list
    tmp: Path
    plan: Any = None
    cluster: LocalCluster | None = None
    #: Stats the sharded engine reports beside the result (worker RSS).
    shard_stats: dict[str, Any] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        return sum(len(t) for t in self.traces)

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.stop()
            self.cluster = None


#: How a body runs one step: ``timed(label, call)`` returns ``call()``.
#: The harness passes one that times the call and calibrates around it.
Timed = Callable[[str, Callable[[], Any]], Any]


def untimed(label: str, call: Callable[[], Any]) -> Any:
    return call()


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def wired_run(
    state: State,
    name: str,
    config: SimulationConfig,
    *,
    label: str,
    tracer: Tracer | None,
    backend: str = "sync",
    record_dir: Path | None = None,
    base: Transport | None = None,
    keep_samples: bool = False,
) -> SchemeResult:
    """One scheme run wired from public classes, timing layers optional.

    The wiring of ``run_scheme`` / ``run_scheme_with_faults`` /
    ``drive_scheme``: base (or fault, or the given ``base``) transport →
    recording → execution backend → scheme → attach → run → seal.  With
    a tracer, a :class:`TimingTransport` sits outermost, chunked traces
    get a :class:`TimedTrace` proxy, and construct / run / finalize /
    seal are separate spans; what the layers saw is appended to
    ``tracer.runs``.
    """
    plan = state.plan
    faulty = plan is not None and name in FAULTY_SCHEMES
    traces = state.traces
    seen: dict[str, Any] = {"label": label, "scheme": name, "requests": state.requests}
    with _span(tracer, "core.scheme_run"):
        with _span(tracer, "core.construct") as seen["construct"]:
            stack = base
            if stack is None:
                stack = Transport(config.network)
                if faulty:
                    stack = FaultTransport(stack, plan, scope=name)
            attach = [base] if base is not None else []
            recorder = recording = None
            if record_dir is not None:
                recorder = TraceRecorder(record_dir)
                recording = recorder.open(
                    name, config, state.seed, plan if faulty else None, stack
                )
                attach.append(recording)
                stack = recording
            stack = with_backend(stack, backend)
            if tracer is not None:
                stack = seen["transport"] = TimingTransport(stack, keep_samples)
                traces = [
                    TimedTrace(t) if getattr(t, "chunked", False) else t for t in traces
                ]
                seen["reads"] = [t for t in traces if isinstance(t, TimedTrace)]
            if faulty:
                scheme = FAULTY_SCHEMES[name](config, traces, plan, transport=stack)
            else:
                scheme = SCHEME_REGISTRY[name](config, traces, transport=stack)
            for layer in attach:
                layer.attach(scheme)
        if tracer is not None:
            finalize = scheme.finalize

            def timed_finalize():
                with tracer.span("core.finalize"):
                    return finalize()

            scheme.finalize = timed_finalize
            overlays = [s.overlay for s in getattr(scheme, "states", [])]
            epochs = sum(o.epoch for o in overlays)
        result = None
        try:
            with _span(tracer, "core.run") as seen["run"]:
                result = scheme.run()
                if tracer is not None:
                    # Inside the run span, so its self time excludes them.
                    tracer.add_calls("protocol.attempt", stack.attempts)
                    tracer.add_calls("protocol.unresponsive", stack.probes)
                    for trace in seen["reads"]:
                        tracer.add_calls("workload.stream_read", trace.reads)
        finally:
            if recorder is not None:
                with _span(tracer, "protocol.record_seal") as seen["seal"]:
                    recorder.close(recording, result)
    if tracer is not None:
        seen["result"] = result
        seen["epochs"] = sum(o.epoch for o in overlays) - epochs
        if recording is not None:
            seen["record_events"] = recording.writer.events_written
            seen["record_bytes"] = recording.writer.path.stat().st_size
        tracer.runs.append(seen)
    return result


class Workload:
    """Base: in-memory traces, plain ``run_scheme`` for every step."""

    name = ""
    why = ""
    clusters = 2
    requests = 100_000
    objects = 2_500
    clients = 100
    fraction = 0.3
    object_sizes = "off"
    #: SimulationConfig fields beyond the workload shape and the fraction.
    changes: dict[str, Any] = {}
    #: ``(label, scheme, config changes)`` per scheme run of the body.
    steps: list[tuple[str, str, dict[str, Any]]] = [("hier-gd", "hier-gd", {})]
    faulty = False
    #: Whether the timings are normalised by the calibrator (calibrate.py):
    #: only where the program does all its work on the main thread.
    calibrated = True

    def config(self, div: int) -> SimulationConfig:
        return SimulationConfig(
            workload=ProWGenConfig(
                n_requests=self.requests // div,
                n_objects=self.objects,
                n_clients=self.clients,
                object_sizes=self.object_sizes,
            ),
            n_proxies=self.clusters,
            proxy_cache_fraction=self.fraction,
            **self.changes,
        )

    # -- set-up -----------------------------------------------------------

    def generate(self, config: SimulationConfig, seed: int, tmp: Path) -> list:
        return generate_cluster_traces(config.workload, self.clusters, seed=seed)

    def setup(self, seed: int, tmp: Path, div: int, tracer: Tracer | None = None) -> State:
        """Everything before the first body, into the fresh dir ``tmp``."""
        config = self.config(div)
        with _span(tracer, "workload.generate"):
            traces = self.generate(config, seed, tmp)
        plan = robustness_plan(FAULT_RATE, seed) if self.faulty else None
        return State(config, seed, traces, tmp, plan)

    # -- body -------------------------------------------------------------

    def one_call(self, state: State, name: str, config: SimulationConfig) -> SchemeResult:
        """The public one-call entry point an untraced step goes through."""
        return run_scheme(name, config, state.traces, seed=state.seed)

    def wiring(self, state: State) -> dict[str, Any]:
        """Extra :func:`wired_run` arguments of this workload's traced steps."""
        return {}

    def step(
        self, state: State, tracer: Tracer | None, label: str, name: str,
        config: SimulationConfig,
    ) -> Op:
        if tracer is None:
            return Op(label, self.one_call(state, name, config))
        result = wired_run(
            state, name, config, label=label, tracer=tracer, **self.wiring(state)
        )
        return Op(label, result)

    def body(
        self, state: State, tracer: Tracer | None = None, timed: Timed = untimed
    ) -> list[Op]:
        """Every step once, in order; each step is one ``timed`` call."""
        return [
            timed(label, partial(
                self.step, state, tracer, label, name, state.config.with_changes(**changes)
            ))
            for label, name, changes in self.steps
        ]

    def anchors(self, state: State) -> list[Op]:
        """Untimed anchor runs before the first timed repeat.

        A faulty workload's body (async and recorded, or over live
        daemons) must equal the plain simulated run for the same
        ``(config, seed, plan)`` on the sync backend: that run is made
        here, under the body's label, and ops with one label must all hash
        the same.  It also warms the scheme code.  Other workloads have no
        separate warm-up pass: the first pass of a body measures 15-40 %
        slow, but the median of three or more repeats leaves it out anyway.
        """
        if not self.faulty:
            return []
        result = run_scheme_with_faults(
            "hier-gd", state.config, state.traces, state.plan, seed=state.seed
        )
        return [Op("hier-gd", result)]

    def extra_layers(
        self, state: State, tracer: Tracer, base_wall: float, traced_wall: float
    ) -> tuple[dict[str, float], list[Op]]:
        """Per-layer metrics only this workload's own run can give.

        ``base_wall`` is the best untraced body, ``traced_wall`` the
        traced one.  Also returns the ops of any variant run it made,
        to be checked like the body's.
        """
        return dict.fromkeys(RUN_ONLY_METRICS, 0.0), []


def _timed(call) -> tuple[float, Any]:
    gc.collect()  # as before every timed body
    start = perf_counter()
    value = call()
    return perf_counter() - start, value


class Fig2Sweep(Workload):
    name = "fig2_sweep"
    why = (
        "One column of Figure 2, all 8 schemes on shared traces: time is mostly "
        "the LFU/tiered/top-k caches of nc-ec and sc-ec, hier-gd is under 20 %."
    )
    steps = [(scheme, scheme, {}) for scheme in available_schemes()]

    def body(
        self, state: State, tracer: Tracer | None = None, timed: Timed = untimed
    ) -> list[Op]:
        ops = super().body(state, tracer, timed)
        gains_vs_nc({op.label: op.result for op in ops})  # microseconds, untimed
        return ops


class HierGdScale(Workload):
    name = "hiergd_scale"
    why = (
        "Plain Hier-GD over chunked on-disk traces at 4 x 200 k requests: the fast "
        "engine (GD heap, presence index, owner tables) and StreamingTrace reads."
    )
    clusters = 4
    requests = 200_000
    objects = 2_000
    fraction = 0.5
    changes = {"warmup_fraction": 0.1}

    def generate(self, config: SimulationConfig, seed: int, tmp: Path) -> list:
        return generate_cluster_traces_streaming(
            config.workload, range(self.clusters), tmp / "traces",
            seed=seed, chunk_requests=ROUND,
        )


class SizedMix(Workload):
    name = "sized_mix"
    why = (
        "Heavy-tailed object sizes: byte capacities, multi-victim inserts and the "
        "simulator's per-request byte tally, which unit-size workloads never run."
    )
    object_sizes = "heavy-tailed"
    steps = [
        ("hier-gd", "hier-gd", {"gd_cost_model": "gds"}),
        ("hier-gd.gd", "hier-gd", {"gd_cost_model": "gd"}),
        ("sc-ec", "sc-ec", {}),
        ("fc-ec", "fc-ec", {}),
        ("nc", "nc", {}),
    ]


class HierGdFaults(Workload):
    name = "hiergd_faults"
    why = (
        "Hier-GD under the composite 10 % fault plan, Bloom directory, async backend, "
        "recorded: the fault ladder, recording and churn repair do most of the work."
    )
    requests = 60_000
    objects = 1_500
    changes = {"directory": "bloom"}
    faulty = True

    def one_call(self, state: State, name: str, config: SimulationConfig) -> SchemeResult:
        with recording_traces(state.tmp / "exchanges"):
            return run_scheme_with_faults(
                name, config, state.traces, state.plan, seed=state.seed, backend="async"
            )

    def wiring(self, state: State) -> dict[str, Any]:
        return {"backend": "async", "record_dir": state.tmp / "exchanges"}

    def extra_layers(self, state, tracer, base_wall, traced_wall):
        """What recording and the async backend each cost the body.

        The same body with recording off, and with ``backend="sync"``;
        the second doubles as a warm sync-equals-async check.
        """
        metrics, ops = super().extra_layers(state, tracer, base_wall, traced_wall)
        run = run_scheme_with_faults
        args = ("hier-gd", state.config, state.traces, state.plan)
        with tracer.span("variant.unrecorded"):
            unrecorded_s, result = _timed(
                lambda: run(*args, seed=state.seed, backend="async")
            )
        ops.append(Op("hier-gd", result))
        with tracer.span("variant.sync"), recording_traces(state.tmp / "exchanges-sync"):
            sync_s, result = _timed(lambda: run(*args, seed=state.seed))
        ops.append(Op("hier-gd", result))
        metrics["protocol.record_overhead_pct"] = 100.0 * (base_wall / unrecorded_s - 1.0)
        metrics["protocol.async_overhead_pct"] = 100.0 * (base_wall / sync_s - 1.0)
        return metrics, ops


class HierGdShards2(HierGdScale):
    name = "hiergd_shards2"
    why = (
        "The hiergd_scale inputs on two worker processes: the only run of the sharded "
        "process, digest encode/merge/apply and the fork + pipe coordinator."
    )
    calibrated = False  # the work is in two worker processes

    def run_sharded(self, state: State, shards: int) -> SchemeResult:
        return run_scheme_sharded(
            "hier-gd", state.config, seed=state.seed, shards=shards,
            trace_dir=str(state.tmp / "traces"), round_requests=ROUND,
            stats_out=state.shard_stats,
        )

    def body(
        self, state: State, tracer: Tracer | None = None, timed: Timed = untimed
    ) -> list[Op]:
        # The workers are other processes: from outside, the whole call is
        # the one span there is.
        with _span(tracer, "shard.run_sharded") as span:
            result = timed("hier-gd", partial(self.run_sharded, state, shards=2))
        if tracer is not None:
            tracer.runs.append({
                "label": "hier-gd", "scheme": "hier-gd", "requests": state.requests,
                "run": span, "result": result,
            })
        return [Op("hier-gd", result)]

    def extra_layers(self, state, tracer, base_wall, traced_wall):
        metrics, ops = super().extra_layers(state, tracer, base_wall, traced_wall)
        with tracer.span("variant.shards1"):
            single_s, single = _timed(lambda: self.run_sharded(state, shards=1))
        # One shard is the single-process engine: a result of its own.
        ops.append(Op("hier-gd.shards1", single))
        headline = tracer.runs[-1]["result"]
        metrics["shard.speedup_vs_single"] = single_s / base_wall
        metrics["shard.rounds"] = headline.extras["sync_rounds"]
        metrics["shard.worker_peak_rss_mib"] = state.shard_stats["worker_max_rss_kb"] / 1024.0
        metrics["shard.stale_pushes"] = float(headline.messages.get("stale_remote_pushes", 0))
        return metrics, ops


class DaemonLive(Workload):
    name = "daemon_live"
    why = (
        "Hier-GD driven against live localhost daemons: wall time is wire framing, "
        "the asyncio server and socket round-trips, not Python compute."
    )
    # Half the issue's 2 x 40 k: one body measured 8.3 s there, and four
    # bodies a run must fit the harness budget.
    requests = 20_000
    objects = 500
    clients = 50
    faulty = True
    calibrated = False  # half the work is on the daemons' event-loop thread

    def setup(self, seed: int, tmp: Path, div: int, tracer: Tracer | None = None) -> State:
        state = super().setup(seed, tmp, div, tracer)
        with _span(tracer, "daemon.cluster_start"):
            state.cluster = LocalCluster(n_clients=1).start()
        return state

    def body(
        self, state: State, tracer: Tracer | None = None, timed: Timed = untimed
    ) -> list[Op]:
        return [timed("hier-gd", partial(self.live_run, state, tracer))]

    def live_run(self, state: State, tracer: Tracer | None) -> Op:
        with _span(tracer, "daemon.handshake"):
            transport = DaemonTransport(
                state.config.network, state.cluster.routes, plan=state.plan, scope="hier-gd"
            )
        try:
            result = wired_run(
                state, "hier-gd", state.config, label="hier-gd", tracer=tracer,
                base=transport, keep_samples=True,
            )
        finally:
            transport.close()
        wire_ops = transport.exchanges_sent + transport.probes_sent
        return Op("hier-gd", result, wire_ops)

    def extra_layers(self, state, tracer, base_wall, traced_wall):
        metrics, ops = super().extra_layers(state, tracer, base_wall, traced_wall)
        transport = tracer.runs[-1]["transport"]
        exchanges, probes = transport.attempts.samples, transport.probes.samples
        pooled = exchanges + probes
        print(f"# daemon rtt samples {len(pooled)} ({len(probes)} probes)")
        metrics["daemon.cluster_start_s"] = tracer.total_ns("daemon.cluster_start") / 1e9
        metrics["daemon.handshake_ms"] = tracer.total_ns("daemon.handshake") / 1e6
        metrics["daemon.exchanges_per_s"] = transport.calls / traced_wall
        metrics["daemon.exchange_rtt_p50_us"] = percentile(pooled, 0.50) / 1e3
        metrics["daemon.exchange_rtt_p99_us"] = percentile(pooled, 0.99) / 1e3
        metrics["daemon.rtt_p999_us"] = percentile(pooled, 0.999) / 1e3
        metrics["daemon.probe_rtt_p50_us"] = percentile(probes, 0.50) / 1e3
        metrics["daemon.driver_share"] = 1.0 - transport.busy_ns / 1e9 / traced_wall
        metrics["daemon.max_in_flight"] = float(
            max(d["max_in_flight"] for d in state.cluster.stats())
        )
        return metrics, ops


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Fig2Sweep(), HierGdScale(), SizedMix(), HierGdFaults(), HierGdShards2(), DaemonLive()
    )
}
