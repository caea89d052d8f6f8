"""High-level entry points: generate workloads, run schemes, compute gains.

This is the layer the examples and the benchmark harness talk to::

    cfg = SimulationConfig()
    traces = generate_workloads(cfg, seed=1)
    results = {name: run_scheme(name, cfg, traces) for name in available_schemes()}
    gains = gains_vs_nc(results)

Traces are generated once per workload configuration and shared across
schemes (the paper compares schemes on *the same* trace), so a sweep
over schemes costs one workload generation.

How a run is put together is decided here and nowhere else:
:func:`build_scheme` picks the scheme object a ``(name, plan)`` pair
gets, :func:`assemble_run` owns the carrier → recording → construct →
attach → run → seal → close sequence that the simulated, faulty,
replayed and live entry points all call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..perf.profiling import record_scheme_ops
from ..protocol.trace import TraceRecorder, active_trace_recorder
from ..protocol.transport import EventFedTransport, Transport, build_transport
from ..workload import Trace, generate_cluster_traces
from .config import SimulationConfig
from .metrics import SchemeResult, latency_gain
from .schemes import SCHEME_REGISTRY
from .simulator import CachingScheme

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import FaultPlan
    from ..shard.view import ShardView

__all__ = [
    "FAULTABLE_SCHEMES",
    "active_plan",
    "assemble_run",
    "available_schemes",
    "build_scheme",
    "generate_workloads",
    "run_scheme",
    "gains_vs_nc",
    "with_backend",
]

#: Schemes with a faultable cooperation path.  Every other scheme runs
#: plain at *any* fault rate — NC above all (client → proxy → origin has
#: no cooperation link), which anchors "degrades toward NC, never below".
FAULTABLE_SCHEMES = ("hier-gd", "fc", "fc-ec", "squirrel")


def available_schemes() -> list[str]:
    """Registry names in the paper's presentation order."""
    return list(SCHEME_REGISTRY)


def generate_workloads(config: SimulationConfig, seed: int = 0) -> list[Trace]:
    """One statistically identical trace per client cluster (§5.1)."""
    return generate_cluster_traces(config.workload, config.n_proxies, seed=seed)


def with_backend(transport: Transport | None, backend: str) -> Transport | None:
    """``transport`` unchanged, once ``backend`` names a known backend.

    A simulated run has one execution path; ``"sync"`` and ``"async"``
    both name it, and any other name is refused.
    """
    # ROADMAP 16(b): the next benchmark PR deletes it with protocol.async_overhead_pct.
    if backend not in ("sync", "async"):
        raise ValueError(f"unknown backend {backend!r}; expected sync or async")
    return transport


def active_plan(name: str, plan: FaultPlan | None) -> FaultPlan | None:
    """``plan`` if it changes how ``name`` runs, else ``None``.

    A ``None`` or zero plan, and any plan on a scheme outside
    :data:`FAULTABLE_SCHEMES`, takes the plain code path: no fault layer
    is constructed, so fault-free results stay byte-identical.
    """
    if plan is None or plan.is_zero() or name not in FAULTABLE_SCHEMES:
        return None
    return plan


def build_scheme(
    name: str,
    config: SimulationConfig,
    traces: list[Trace],
    plan: FaultPlan | None = None,
    transport: Transport | None = None,
) -> CachingScheme:
    """Construct the scheme object ``(name, plan)`` gets.

    The registry class riding ``transport`` (``None``: the standard
    stack for the plan) — a faulty FC / FC-EC / Squirrel needs nothing
    else.  Hier-GD under an active plan also carries the plan's Poisson
    membership events (so its directories are repaired lazily) and
    still reports as ``hier-gd``; the events are a pure function of the
    plan, so a replayed or live run rebuilds them without the wire trace
    carrying membership.
    """
    try:
        scheme_cls = SCHEME_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; available: {', '.join(SCHEME_REGISTRY)}"
        ) from None
    plan = active_plan(name, plan)
    if transport is None:
        transport = build_transport(config.network, plan, scope=name)
    if plan is None or name != "hier-gd":
        return scheme_cls(config, traces, transport=transport)
    from ..faults.poisson import poisson_churn_events  # faults imports core

    events = poisson_churn_events(
        plan,
        n_requests=sum(len(t) for t in traces),
        n_clusters=config.n_proxies,
        n_clients=config.sizing_for(traces[0]).n_clients,
    )
    scheme = scheme_cls(config, traces, transport=transport, events=events)
    # Report as the scheme under test, not as a hand-scheduled churn run.
    scheme.name = name
    return scheme


def assemble_run(
    name: str,
    config: SimulationConfig,
    traces: list[Trace] | None = None,
    *,
    seed: int = 0,
    plan: FaultPlan | None = None,
    carrier: Transport | None = None,
    recorder: TraceRecorder | None = None,
    view: ShardView | None = None,
) -> SchemeResult:
    """Put one scheme run together and run it — the only place that does.

    Carrier (``carrier``, else the plan's fault stack, else the base
    transport) → recording layer (if ``recorder``) → :func:`build_scheme`
    → ``attach`` every layer that rides the finished scheme (an event-fed
    carrier and the recording read its request index; a shard worker's
    peer ``view`` substitutes global cluster ids and the round protocol) →
    ``run`` → seal the trace
    (incomplete if the run crashed) → close an event-fed carrier →
    :func:`~repro.perf.profiling.record_scheme_ops`.  ``traces=None``
    regrows the workload from ``seed``.
    """
    plan = active_plan(name, plan)
    fed = carrier if isinstance(carrier, EventFedTransport) else None
    recording = result = None
    try:
        if traces is None:
            traces = generate_workloads(config, seed=seed)
        stack = carrier
        if stack is None:
            stack = build_transport(config.network, plan, scope=name)
        if recorder is not None:
            stack = recording = recorder.open(name, config, seed, plan, stack)
        scheme = build_scheme(name, config, traces, plan, transport=stack)
        for layer in (fed, recording, view):
            if layer is not None:
                layer.attach(scheme)
        result = scheme.run()
    finally:
        if recording is not None:
            # A crashed run seals an *incomplete* trace (result=None).
            recorder.close(recording, result)
        if fed is not None:
            fed.close()
    # Feeds repro.perf's op-counter collection; a no-op when inactive.
    record_scheme_ops(name, scheme, result)
    return result


def run_scheme(
    name: str,
    config: SimulationConfig,
    traces: list[Trace] | None = None,
    seed: int = 0,
    transport: Transport | None = None,
) -> SchemeResult:
    """Simulate one scheme; generates the workload if none is supplied.

    This is :func:`assemble_run` with no fault plan.

    ``transport`` optionally replaces the scheme's base transport with a
    custom stack (e.g. a :class:`~repro.protocol.transport.FaultTransport`
    whose plan carries per-link :class:`~repro.protocol.policy.RetryPolicy`
    strategies); ``None`` keeps the plain always-succeeds carrier.

    Inside a :func:`repro.protocol.trace.recording_traces` block the
    run's transport (supplied or base) is wrapped in a recording layer
    and the wire-level exchange trace lands in the recorder's directory.
    ``seed`` names the trace seed in the recording header: callers that
    pass pre-generated ``traces`` must pass the seed those traces were
    generated from, or the recording will not replay.
    """
    return assemble_run(
        name,
        config,
        traces,
        seed=seed,
        carrier=transport,
        recorder=active_trace_recorder(),
    )


def gains_vs_nc(results: dict[str, SchemeResult]) -> dict[str, float]:
    """Latency gain of every scheme vs the NC baseline (must be present)."""
    if "nc" not in results:
        raise KeyError("results must include the 'nc' baseline")
    baseline = results["nc"]
    return {
        name: latency_gain(res, baseline)
        for name, res in results.items()
        if name != "nc"
    }
