"""Experiment infrastructure: scales, sweeps, shared workloads.

Every figure in the paper sweeps proxy cache size (10 %–100 % of the
infinite cache size) for some set of schemes under some workload/network
variation.  :func:`cache_size_sweep` implements that once; the figure
modules compose it.

**Scale control.**  The paper's configuration (10⁶ requests over 10⁴
objects per cluster) takes tens of minutes for the full figure suite in
pure Python, so the harness supports three scales selected by the
``REPRO_SCALE`` environment variable:

========  ==========  =========  ========  =========================
scale     requests    objects    clients   purpose
========  ==========  =========  ========  =========================
smoke     20 000      1 000      50        CI / quick shape check
default   100 000     2 500      100       benchmark harness default
paper     1 000 000   10 000     100       the paper's §5.1 numbers
========  ==========  =========  ========  =========================

All scales preserve the paper's *proportions* (requests per object,
one-timer fraction, 0.1 %-of-ICS client caches), so curve shapes — the
reproduction target — are stable across scales; only noise shrinks as
the scale grows.

**Overlay control.**  The ``REPRO_OVERLAY`` environment variable (CLI:
``--overlay``) selects the structured overlay backend every figure runs
on — ``pastry`` (the paper's choice, the default) or ``chord``.  The
``bakeoff`` figure ignores it and runs both side by side.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..core.config import SimulationConfig
from ..core.metrics import SchemeResult, latency_gain
from ..core.run import run_scheme
from ..workload import ProWGenConfig, Trace, generate_cluster_traces
from ..analysis.results import SweepResult
from .executor import ExperimentEngine, SweepPoint

__all__ = [
    "Scale",
    "SCALES",
    "current_scale",
    "current_overlay",
    "base_workload",
    "base_config",
    "DEFAULT_FRACTIONS",
    "PAPER_SCHEMES",
    "sweep_points",
    "cache_size_sweep",
]

#: The figures' x-axis: proxy cache size as a fraction of the ICS.
DEFAULT_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

#: All schemes of Figure 2, in the paper's legend order.
PAPER_SCHEMES = ("sc", "fc", "nc-ec", "sc-ec", "fc-ec", "hier-gd")


@dataclass(frozen=True)
class Scale:
    """One row of the scale table above."""

    label: str
    n_requests: int
    n_objects: int
    n_clients: int


SCALES = {
    "smoke": Scale("smoke", 20_000, 1_000, 50),
    "default": Scale("default", 100_000, 2_500, 100),
    "paper": Scale("paper", 1_000_000, 10_000, 100),
}


def current_scale() -> Scale:
    """Scale selected by ``REPRO_SCALE`` (default: ``default``)."""
    label = os.environ.get("REPRO_SCALE", "default")
    try:
        return SCALES[label]
    except KeyError:
        raise ValueError(
            f"REPRO_SCALE={label!r}; expected one of {', '.join(SCALES)}"
        ) from None


def current_overlay() -> str:
    """Overlay backend selected by ``REPRO_OVERLAY`` (default: ``pastry``)."""
    from ..overlay import OVERLAY_BACKENDS

    name = os.environ.get("REPRO_OVERLAY", "pastry")
    if name not in OVERLAY_BACKENDS:
        raise ValueError(
            f"REPRO_OVERLAY={name!r}; expected one of "
            f"{', '.join(sorted(OVERLAY_BACKENDS))}"
        )
    return name


def base_workload(scale: Scale | None = None, **overrides) -> ProWGenConfig:
    """The paper's §5.1 workload at the requested scale."""
    scale = scale or current_scale()
    params = dict(
        n_requests=scale.n_requests,
        n_objects=scale.n_objects,
        n_clients=scale.n_clients,
    )
    params.update(overrides)
    return ProWGenConfig(**params)


def base_config(scale: Scale | None = None, **overrides) -> SimulationConfig:
    """The paper's default simulation configuration at the given scale."""
    workload = overrides.pop("workload", None) or base_workload(scale)
    overrides.setdefault("overlay", current_overlay())
    return SimulationConfig(workload=workload, **overrides)


def sweep_points(
    config: SimulationConfig,
    schemes: tuple[str, ...] | list[str] = PAPER_SCHEMES,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    seed: int = 0,
    shards: int = 1,
) -> list[SweepPoint]:
    """The sweep's work items: one point per (fraction, scheme) plus the
    per-fraction NC baseline.

    Every point carries the *explicit* trace seed, so its result is
    identical whether it runs serially, in a worker process, or is
    replayed from the result store — ordering and ambient RNG state
    never enter.  All points share one seed because the paper compares
    schemes on identical traces.

    ``shards > 1`` applies only to the points
    :func:`repro.shard.check_shardable` accepts — a scheme with no
    cooperative surface, or one whose run on this ``config`` has none
    (sized Hier-GD, a Bloom directory, an open trace recorder), keeps
    the single-process engine — so a mixed sweep stays runnable.
    """
    names = list(dict.fromkeys(("nc", *schemes)))
    shards_for = dict.fromkeys(names, 1)
    if shards > 1:
        from ..shard import UnsupportedConfiguration, check_shardable

        for name in names:
            try:
                check_shardable(name, config)
            except UnsupportedConfiguration:
                continue
            shards_for[name] = shards
    return [
        SweepPoint(
            scheme=name,
            fraction=fraction,
            config=config,
            seed=seed,
            shards=shards_for[name],
        )
        for fraction in fractions
        for name in names
    ]


def cache_size_sweep(
    config: SimulationConfig,
    schemes: tuple[str, ...] | list[str] = PAPER_SCHEMES,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    seed: int = 0,
    title: str = "latency gain vs proxy cache size",
    traces: list[Trace] | None = None,
    engine: ExperimentEngine | None = None,
) -> SweepResult:
    """Sweep proxy cache size; report latency gain (%) vs NC per scheme.

    The workload is generated from the explicit ``seed`` and shared
    across every fraction and scheme (the paper compares schemes on
    identical traces).  NC is run per fraction as the gain baseline and
    is not itself a series.

    Execution goes through :class:`~repro.experiments.executor.
    ExperimentEngine` — pass one to parallelize across processes, skip
    completed points via a result store, or collect instrumentation;
    the default is the engine's serial in-process fallback.  Passing
    pre-generated ``traces`` short-circuits the engine entirely (legacy
    path for callers that already hold a workload); results are
    identical either way.
    """
    sweep = SweepResult(
        title=title,
        x_label="cache size (%)",
        x_values=[100.0 * f for f in fractions],
    )
    if traces is not None:
        gains: dict[str, list[float]] = {name: [] for name in schemes}
        for fraction in fractions:
            cfg = config.with_changes(proxy_cache_fraction=fraction)
            baseline = run_scheme("nc", cfg, traces)
            for name in schemes:
                result = run_scheme(name, cfg, traces)
                gains[name].append(100.0 * latency_gain(result, baseline))
        for name in schemes:
            sweep.add(name, gains[name])
        return sweep

    engine = engine or ExperimentEngine()
    outcomes = engine.run(
        sweep_points(config, schemes, fractions, seed, shards=engine.shards)
    )
    by_point: dict[tuple[str, float], SchemeResult] = {
        (o.point.scheme, o.point.fraction): o.result for o in outcomes
    }
    for name in schemes:
        sweep.add(
            name,
            [
                100.0
                * latency_gain(by_point[(name, fraction)], by_point[("nc", fraction)])
                for fraction in fractions
            ],
        )
    return sweep


def single_point(
    config: SimulationConfig,
    scheme: str,
    seed: int = 0,
    traces: list[Trace] | None = None,
) -> tuple[SchemeResult, SchemeResult]:
    """(scheme result, NC baseline) at one configuration point."""
    if traces is None:
        traces = generate_cluster_traces(config.workload, config.n_proxies, seed=seed)
    return run_scheme(scheme, config, traces), run_scheme("nc", config, traces)
