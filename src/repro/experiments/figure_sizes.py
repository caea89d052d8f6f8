"""Size-aware caching — the extension figure beyond the paper's model.

The paper assumes equal-size objects (§5.1).  This figure turns the
heavy-tailed object-size model on (``ProWGenConfig.object_sizes``, the
lognormal-body + Pareto-tail sampler calibrated per Dolgikh & Sukhov)
and re-runs the cache-size sweep with every capacity denominated in
bytes, reporting three panels:

* **gain** — the paper's latency gain (%), now under variable sizes,
  with Hier-GD run under both greedy-dual credit models:
  GreedyDual-Size (``gds``, credit ``L + cost/size``; Cao & Irani) and
  classic greedy-dual (``gd``, size-blind credit over byte-accurate
  capacity) — the series ``hier-gd (gd)``;
* **byte_hit** — byte hit rate (%): the fraction of response *bytes*
  served without the origin server.  Under heavy-tailed sizes this
  diverges from the request hit rate (small hot objects inflate the
  latter), which is exactly why size-aware runs report both;
* **byte_gain** — byte-weighted latency gain (%) vs NC: each request's
  latency weighted by the bytes it moved before averaging (the
  transfer-time reading of the paper's metric).

Every point is built with ``shards=1`` whatever ``--shards`` says: sized
Hier-GD has no cooperative surface to shard
(:func:`repro.shard.check_shardable` would refuse it), and the figure
compares schemes on one engine.
"""

from __future__ import annotations

from ..analysis.results import SweepResult
from ..core.metrics import SchemeResult, byte_hit_rate, byte_latency_gain, latency_gain
from .executor import ExperimentEngine, SweepPoint
from .runner import DEFAULT_FRACTIONS, Scale, base_config, base_workload

__all__ = ["figure_sizes", "SIZED_SCHEMES"]

#: Schemes compared under the size-aware model (legend order).
SIZED_SCHEMES = ("sc", "fc", "nc-ec", "sc-ec", "fc-ec", "hier-gd")

#: Series label of the classic-greedy-dual Hier-GD variant.
GD_SERIES = "hier-gd (gd)"


def figure_sizes(
    scale: Scale | None = None,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    seed: int = 0,
    engine: ExperimentEngine | None = None,
) -> dict[str, SweepResult]:
    """Latency gain + byte metrics vs cache size under heavy-tailed sizes."""
    workload = base_workload(scale, object_sizes="heavy-tailed")
    config = base_config(scale, workload=workload)
    config_gd = config.with_changes(gd_cost_model="gd")

    names = list(dict.fromkeys(("nc", *SIZED_SCHEMES)))
    points = [
        SweepPoint(scheme=name, fraction=fraction, config=config, seed=seed)
        for fraction in fractions
        for name in names
    ] + [
        # The GDS-vs-classic-GD axis: same sweep, size-blind GD credit.
        SweepPoint(scheme="hier-gd", fraction=fraction, config=config_gd, seed=seed)
        for fraction in fractions
    ]
    engine = engine or ExperimentEngine()
    outcomes = engine.run(points)
    by_point: dict[tuple[str, float, str], SchemeResult] = {
        (o.point.scheme, o.point.fraction, o.point.config.gd_cost_model): o.result
        for o in outcomes
    }

    def series(metric) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name in SIZED_SCHEMES:
            out[name] = [
                metric(by_point[(name, f, "gds")], by_point[("nc", f, "gds")])
                for f in fractions
            ]
        out[GD_SERIES] = [
            metric(by_point[("hier-gd", f, "gd")], by_point[("nc", f, "gds")])
            for f in fractions
        ]
        return out

    x_values = [100.0 * f for f in fractions]
    notes = "heavy-tailed object sizes (byte-denominated capacities); " + (
        config.describe()
    )

    gain = SweepResult(
        title="Sizes: latency gain vs cache size (heavy-tailed object sizes)",
        x_label="cache size (%)",
        x_values=x_values,
        notes=notes,
    )
    for label, values in series(
        lambda r, nc: 100.0 * latency_gain(r, nc)
    ).items():
        gain.add(label, values)

    byte_hit = SweepResult(
        title="Sizes: byte hit rate vs cache size",
        x_label="cache size (%)",
        x_values=x_values,
        y_label="byte hit rate (%)",
        notes=notes,
    )
    byte_hit.add("nc", [
        100.0 * byte_hit_rate(by_point[("nc", f, "gds")]) for f in fractions
    ])
    for label, values in series(
        lambda r, _nc: 100.0 * byte_hit_rate(r)
    ).items():
        byte_hit.add(label, values)

    byte_gain = SweepResult(
        title="Sizes: byte-weighted latency gain vs cache size",
        x_label="cache size (%)",
        x_values=x_values,
        y_label="byte-weighted latency gain (%)",
        notes=notes,
    )
    for label, values in series(
        lambda r, nc: 100.0 * byte_latency_gain(r, nc)
    ).items():
        byte_gain.add(label, values)

    return {"gain": gain, "byte_hit": byte_hit, "byte_gain": byte_gain}
