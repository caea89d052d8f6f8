"""Experiment infrastructure: scales, base configs, the panel evaluator.

Every figure in the paper is the same shape — some metric (latency gain
over NC, mostly) against an x-axis (proxy cache size, mostly) for some
curves under one parameter variation.  A figure is therefore *declared*
(:mod:`repro.experiments.figures`) as panels (:class:`Panel`) of curves
(:class:`Curve`), each curve the sweep points along its x-axis plus the
baseline point each is judged against, and
:func:`evaluate_panels` is the one place that runs and judges them:
collect the points, one :meth:`ExperimentEngine.run` (a point that
raises fails the figure), index by key, apply the panel's metric.

**Scale control.**  The paper's configuration (10⁶ requests over 10⁴
objects per cluster) takes tens of minutes for the full figure suite in
pure Python, so the harness supports three scales, selected by the
caller (CLI: ``--scale``) or else by the ``REPRO_SCALE`` environment
variable:

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

**Overlay control.**  The caller (CLI: ``--overlay``) or else the
``REPRO_OVERLAY`` environment variable selects the structured overlay
backend every figure runs on — ``pastry`` (the paper's choice, the
default) or ``chord``.  The ``bakeoff`` figure ignores it and runs both
side by side; the ``ablations`` figure's ``hops`` panel runs on Pastry.

The two environment variables are defaults only, each read in one
function (:func:`current_scale`, :func:`current_overlay`); nothing in
this package writes them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

from ..analysis.results import SweepResult
from ..core.config import SimulationConfig
from ..core.metrics import (
    SchemeResult,
    byte_hit_rate,
    byte_latency_gain,
    latency_gain,
)
from ..workload import ProWGenConfig
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
    "Curve",
    "Panel",
    "gain_pct",
    "byte_hit_pct",
    "byte_gain_pct",
    "mean_latency",
    "route_hops",
    "diversions",
    "client_evictions",
    "directory_bytes",
    "false_positives",
    "local_proxy_hits",
    "split_curves",
    "cache_curves",
    "evaluate_panels",
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


def current_scale(label: str | None = None) -> Scale:
    """The scale named ``label``, else ``REPRO_SCALE``, else ``default``."""
    label = label or os.environ.get("REPRO_SCALE", "default")
    try:
        return SCALES[label]
    except KeyError:
        raise ValueError(
            f"REPRO_SCALE={label!r}; expected one of {', '.join(SCALES)}"
        ) from None


def current_overlay(name: str | None = None) -> str:
    """The overlay backend ``name``, else ``REPRO_OVERLAY``, else ``pastry``."""
    from ..overlay import OVERLAY_BACKENDS

    name = name or os.environ.get("REPRO_OVERLAY", "pastry")
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
) -> list[SweepPoint]:
    """The sweep's work items: one point per (fraction, scheme) plus the
    per-fraction NC baseline.

    Every point carries the *explicit* trace seed, so its result is
    identical whether it runs serially, in a worker process, or is
    replayed from the result store — ordering and ambient RNG state
    never enter.  All points share one seed because the paper compares
    schemes on identical traces.
    """
    names = list(dict.fromkeys(("nc", *schemes)))
    return [
        SweepPoint(scheme=name, fraction=fraction, config=config, seed=seed)
        for fraction in fractions
        for name in names
    ]


# -- declared figures: curves, panels, the evaluator ---------------------------


@dataclass(frozen=True)
class Curve:
    """One series of a panel: the points along its x-axis and, aligned
    with them, the baseline point each is judged against."""

    label: str
    points: tuple[SweepPoint, ...]
    baselines: tuple[SweepPoint, ...]

    def baseline_curve(self) -> "Curve":
        """The baseline itself as a series (absolute-metric panels)."""
        return Curve(self.baselines[0].scheme, self.baselines, self.baselines)


#: ``(result, baseline result) -> y`` — what a panel plots per point.
Metric = Callable[[SchemeResult, SchemeResult], float]


def gain_pct(result: SchemeResult, baseline: SchemeResult) -> float:
    """The paper's metric: latency gain over the baseline, in percent."""
    return 100.0 * latency_gain(result, baseline)


def byte_hit_pct(result: SchemeResult, _baseline: SchemeResult) -> float:
    """Share of response bytes served without the origin server (%)."""
    return 100.0 * byte_hit_rate(result)


def byte_gain_pct(result: SchemeResult, baseline: SchemeResult) -> float:
    """Latency gain with every request weighted by its bytes (%)."""
    return 100.0 * byte_latency_gain(result, baseline)


def mean_latency(result: SchemeResult, _baseline: SchemeResult) -> float:
    """Absolute mean latency (units of ``Tl``)."""
    return result.mean_latency


def route_hops(result: SchemeResult, _baseline: SchemeResult) -> float:
    """The run's ``mean_<overlay>_hops`` extra (a run carries one overlay)."""
    return next(
        (
            value
            for key, value in result.extras.items()
            if key.startswith("mean_") and key.endswith("_hops")
        ),
        0.0,
    )


def diversions(result: SchemeResult, _baseline: SchemeResult) -> float:
    """Objects diverted to a leaf-set neighbour (§4.3)."""
    return result.messages["diversions"]


def client_evictions(result: SchemeResult, _baseline: SchemeResult) -> float:
    """Objects a full client cache evicted to take a pass-down."""
    return result.messages["client_evictions"]


def directory_bytes(result: SchemeResult, _baseline: SchemeResult) -> float:
    """Modelled memory of every proxy's lookup directory (§4.2)."""
    return result.extras["directory_bytes"]


def false_positives(result: SchemeResult, _baseline: SchemeResult) -> float:
    """Directory hits whose client no longer held the object."""
    return result.messages["directory_false_positives"]


def local_proxy_hits(result: SchemeResult, _baseline: SchemeResult) -> float:
    """Requests served by the client's own proxy."""
    return result.tier_counts.get("local_proxy", 0)


@dataclass(frozen=True)
class Panel:
    """One declared plot: axis, metric and curves; evaluates to a
    :class:`~repro.analysis.results.SweepResult` under ``key``."""

    key: str
    title: str
    x_label: str
    x_values: Sequence[float]
    curves: Sequence[Curve]
    metric: Metric = gain_pct
    y_label: str = "latency gain (%)"
    notes: str = ""


def evaluate_panels(
    panels: Sequence[Panel], engine: ExperimentEngine | None = None
) -> dict[str, SweepResult]:
    """Run every point the panels name, once, and apply their metrics.

    Curve and baseline points are collected across all panels and
    de-duplicated by :attr:`SweepPoint.key` — a baseline shared by many
    curves, or a curve shown in several panels, is one work item — then
    handed to ``engine`` in a single :meth:`ExperimentEngine.run` (pass
    an engine to parallelize across processes, skip completed points via
    a result store, or collect instrumentation; the default is the
    engine's serial in-process fallback).  A point that raises fails the
    whole call (:class:`~repro.experiments.executor.PointExecutionError`):
    a figure is never computed from partial data.
    """
    engine = engine or ExperimentEngine()
    wanted: dict[str, SweepPoint] = {}
    for panel in panels:
        for curve in panel.curves:
            for point in (*curve.points, *curve.baselines):
                wanted.setdefault(point.key, point)
    results: dict[str, SchemeResult] = {
        key: outcome.result
        for key, outcome in zip(wanted, engine.run(list(wanted.values())))
    }
    sweeps: dict[str, SweepResult] = {}
    for panel in panels:
        sweep = SweepResult(
            title=panel.title,
            x_label=panel.x_label,
            x_values=list(panel.x_values),
            y_label=panel.y_label,
            notes=panel.notes,
        )
        for curve in panel.curves:
            sweep.add(
                curve.label,
                [
                    panel.metric(results[point.key], results[baseline.key])
                    for point, baseline in zip(curve.points, curve.baselines)
                ],
            )
        sweeps[panel.key] = sweep
    return sweeps


def split_curves(
    grid: Sequence[SweepPoint], schemes: Sequence[str]
) -> list[Curve]:
    """One curve per scheme out of an x-major ``(x, nc + schemes)`` grid
    of points, each judged against the NC point at the same x."""
    names = list(dict.fromkeys(("nc", *schemes)))
    along = {name: tuple(grid[k :: len(names)]) for k, name in enumerate(names)}
    return [Curve(name, along[name], along["nc"]) for name in schemes]


def cache_curves(
    config: SimulationConfig,
    schemes: Sequence[str] = PAPER_SCHEMES,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    seed: int = 0,
) -> list[Curve]:
    """The paper's curve: one per scheme along the cache-size axis,
    judged against NC at the same config, fraction and seed."""
    return split_curves(sweep_points(config, schemes, fractions, seed), schemes)


def cache_size_sweep(
    config: SimulationConfig,
    schemes: tuple[str, ...] | list[str] = PAPER_SCHEMES,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    seed: int = 0,
    title: str = "latency gain vs proxy cache size",
    engine: ExperimentEngine | None = None,
) -> SweepResult:
    """Sweep proxy cache size; report latency gain (%) vs NC per scheme.

    The workload is generated from the explicit ``seed`` and shared
    across every fraction and scheme (the paper compares schemes on
    identical traces).  NC is run per fraction as the gain baseline and
    is not itself a series.  A one-panel call into
    :func:`evaluate_panels`, which also documents ``engine``.
    """
    engine = engine or ExperimentEngine()
    panel = Panel(
        key="sweep",
        title=title,
        x_label="cache size (%)",
        x_values=[100.0 * f for f in fractions],
        curves=cache_curves(config, schemes, fractions, seed),
    )
    return evaluate_panels([panel], engine)[panel.key]
