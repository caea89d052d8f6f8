"""The figure table: every figure's points, panels and claims, declared once.

The paper's whole evaluation is Figures 2–5, and every one of them is the
same shape — latency gain over NC against proxy cache size for some
curves under one parameter variation.  This module declares that shape
per figure id instead of coding it: a *builder* returns the figure's
panels (:class:`~repro.experiments.runner.Panel`: axis, metric, notes)
of curves (:class:`~repro.experiments.runner.Curve`: series label, the
sweep points along the x-axis and the baseline point each is judged
against — NC at the same config, fraction and seed unless the
declaration names another), and
:func:`~repro.experiments.runner.evaluate_panels` runs and judges them.
The paper's statements about each figure (§5.2) sit beside its builder
as claims (:class:`Claim`); one our reconstruction is known not to
reproduce names its documented deviation instead of being left out.

:data:`FIGURES` is the only figure registry: the CLI, the report
generator, ``benchmarks/test_bench_figures.py`` and README's
"Reproduction status" table all iterate it, so adding a figure, a
series, an axis value or a claim is one edit here.  Axis defaults are
keyword arguments of the builders (``fractions``, ``alphas``, ``stacks``,
``ratios``, ``cluster_sizes``, ``proxy_counts``, ``rates``), overridable
through :func:`run_figure`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from ..analysis.results import SweepResult
from ..core.config import SimulationConfig
from ..core.metrics import SchemeResult
from ..workload import ProWGenConfig, ucb_like_config
from .executor import ExperimentEngine
from .robustness import (
    DEFAULT_FAULT_RATES,
    FRONTIER_RATES,
    ROBUSTNESS_FRACTION,
    ROBUSTNESS_SCHEMES,
    frontier_points,
    robustness_points,
)
from .runner import (
    DEFAULT_FRACTIONS,
    PAPER_SCHEMES,
    Curve,
    Panel,
    Scale,
    base_config,
    base_workload,
    byte_gain_pct,
    byte_hit_pct,
    cache_curves,
    current_overlay,
    current_scale,
    evaluate_panels,
    mean_latency,
    route_hops,
    split_curves,
)

__all__ = ["Claim", "Figure", "FIGURES", "Setup", "run_figure"]

#: The four panels Figs 3 and 4 show (the paper observes similar
#: behaviour on the remaining schemes).
PANEL_SCHEMES = ("fc", "sc-ec", "fc-ec", "hier-gd")

#: Overlay backends the bake-off compares (series labels in every panel).
BAKEOFF_OVERLAYS = ("pastry", "chord")

#: Bake-off cache-size axis: every other point of the standard sweep —
#: the doubled-backend suite runs Hier-GD twice per point.
BAKEOFF_FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)

#: Series label of the classic-greedy-dual Hier-GD variant in ``sizes``.
GD_SERIES = "hier-gd (gd)"


@dataclass(frozen=True)
class Setup:
    """What every figure is built from, resolved once by the caller:
    scale and overlay (flag, else environment, else default), the trace
    seed, and the engine's per-point shard count."""

    scale: Scale
    overlay: str
    seed: int = 0
    shards: int = 1

    def workload(self, **overrides) -> ProWGenConfig:
        """The paper's §5.1 workload at this scale."""
        return base_workload(self.scale, **overrides)

    def config(self, **overrides) -> SimulationConfig:
        """The paper's default configuration at this scale and overlay."""
        return base_config(self.scale, **{"overlay": self.overlay, **overrides})

    def curves(
        self, config: SimulationConfig, schemes: Sequence[str], fractions
    ) -> list[Curve]:
        """Gain-vs-cache-size curves, sharded as the engine asks."""
        return cache_curves(config, schemes, fractions, self.seed, self.shards)

    def hier_gd(self, label: str, config: SimulationConfig, fractions) -> Curve:
        """Hier-GD's curve under ``config``, labelled by what varied."""
        (curve,) = self.curves(config, ("hier-gd",), fractions)
        return replace(curve, label=label)


def _cache_panel(key: str, title: str, fractions, curves, **kwargs) -> Panel:
    return Panel(
        key, title, "cache size (%)", [100.0 * f for f in fractions], curves, **kwargs
    )


# -- builders: Figures 2–5 ------------------------------------------------------


def _fig2(s: Setup, key: str, title: str, config, notes: str, fractions):
    """Figure 2: every scheme of the paper vs cache size on one workload."""
    return [
        _cache_panel(
            key, f"Figure 2({key[-1]}): latency gain vs cache size ({title})",
            fractions, s.curves(config, PAPER_SCHEMES, fractions),
            notes=notes + config.describe(),
        )
    ]


def _fig2a(s: Setup, fractions=DEFAULT_FRACTIONS) -> list[Panel]:
    """Panel (a): the default synthetic ProWGen workload (§5.1)."""
    return _fig2(s, "fig2a", "synthetic", s.config(), "", fractions)


def _fig2b(s: Setup, fractions=DEFAULT_FRACTIONS) -> list[Panel]:
    """Panel (b): the UCB Home-IP trace — substituted by the UCB-like
    synthetic workload (DESIGN.md §5): lower absolute gains, same scheme
    ordering."""
    workload = ucb_like_config(
        n_requests=s.scale.n_requests, n_clients=s.scale.n_clients
    )
    return _fig2(
        s, "fig2b", "UCB-like trace", s.config(workload=workload),
        "UCB Home-IP substitute; ", fractions,
    )


def _sensitivity(
    s: Setup, number: int, variations: dict[str, dict], fractions, notes: str
) -> list[Panel]:
    """Figs 3 / 4: one panel per scheme, one series per workload variation."""
    varied = {
        label: s.curves(
            s.config(workload=s.workload(**overrides)), PANEL_SCHEMES, fractions
        )
        for label, overrides in variations.items()
    }
    return [
        _cache_panel(
            scheme,
            f"Figure {number}: latency gain vs cache size — {scheme}/nc",
            fractions,
            [replace(curves[k], label=label) for label, curves in varied.items()],
            notes=notes,
        )
        for k, scheme in enumerate(PANEL_SCHEMES)
    ]


def _fig3(
    s: Setup, alphas=(0.5, 0.7, 1.0), fractions=DEFAULT_FRACTIONS
) -> list[Panel]:
    """Sensitivity to the object popularity distribution (Zipf α)."""
    return _sensitivity(
        s, 3, {f"alpha={a:g}": {"alpha": a} for a in alphas}, fractions,
        "object popularity sweep; remaining parameters at defaults",
    )


def _fig4(
    s: Setup, stacks=(0.05, 0.20, 0.60), fractions=DEFAULT_FRACTIONS
) -> list[Panel]:
    """Sensitivity to temporal locality: LRU stack size as a share of the
    multi-reference objects."""
    return _sensitivity(
        s, 4, {f"stack={k:.0%}": {"stack_fraction": k} for k in stacks}, fractions,
        "temporal locality sweep; remaining parameters at defaults",
    )


def _latency_ratio(
    s: Setup, key: str, knob: str, label: str, ratios, fractions, notes: str
) -> list[Panel]:
    """Figs 5(a) / 5(b): Hier-GD under one network latency ratio varied."""
    base = s.config()
    curves = [
        s.hier_gd(
            f"{label}={ratio:g}",
            base.with_changes(network=base.network.with_ratios(**{knob: ratio})),
            fractions,
        )
        for ratio in ratios
    ]
    return [
        _cache_panel(
            key, f"Figure 5({key[-1]}): Hier-GD/NC gain vs {label}", fractions,
            curves, notes=notes,
        )
    ]


def _fig5a(s: Setup, ratios=(2.0, 5.0, 10.0), fractions=DEFAULT_FRACTIONS):
    """Hier-GD vs proxy-to-proxy latency (``Ts/Tc``)."""
    return _latency_ratio(
        s, "fig5a", "ts_over_tc", "Ts/Tc", ratios, fractions,
        "inter-proxy latency sweep",
    )


def _fig5b(s: Setup, ratios=(5.0, 10.0, 20.0), fractions=DEFAULT_FRACTIONS):
    """Hier-GD vs client-to-proxy latency (``Ts/Tl``)."""
    return _latency_ratio(
        s, "fig5b", "ts_over_tl", "Ts/Tl", ratios, fractions,
        "client-to-proxy latency sweep",
    )


def _fig5c(
    s: Setup, cluster_sizes=(100, 400, 800, 1000), fractions=DEFAULT_FRACTIONS
):
    """Hier-GD vs client cluster size, with SC / FC references (client-
    cache free, cluster size irrelevant).  Larger clusters contribute
    more client caches (each 0.1 % of the ICS), so the P2P tier grows
    from 10 % to 100 % of the infinite cache size across the paper's
    100→1000 sweep."""
    curves = s.curves(s.config(), ("sc", "fc"), fractions)
    curves += [
        s.hier_gd(
            f"hier-gd ({n})", s.config(workload=s.workload(n_clients=n)), fractions
        )
        for n in cluster_sizes
    ]
    return [
        _cache_panel(
            "fig5c", "Figure 5(c): Hier-GD/NC gain vs client cluster size",
            fractions, curves,
            notes="client caches are 0.1% of ICS each; P2P tier grows with the cluster",
        )
    ]


def _fig5d(s: Setup, proxy_counts=(2, 5, 10), fractions=DEFAULT_FRACTIONS):
    """Hier-GD vs proxy cluster size.  The paper assumes equal latency
    between every proxy pair; the latency model already does (one ``Tc``)."""
    curves = [
        s.hier_gd(f"{n} proxies", s.config(n_proxies=n), fractions)
        for n in proxy_counts
    ]
    return [
        _cache_panel(
            "fig5d", "Figure 5(d): Hier-GD/NC gain vs proxy cluster size",
            fractions, curves, notes="equal pairwise proxy latency Tc",
        )
    ]


# -- builders: beyond the paper ----------------------------------------------------


def _fault_curves(s: Setup, config, rates, schemes) -> list[Curve]:
    """One curve per scheme along the composite fault-rate axis, pinned
    at ``ROBUSTNESS_FRACTION`` and judged against fault-free NC."""
    return split_curves(robustness_points(config, rates, schemes, s.seed), schemes)


def _fault_panel(
    key: str, title: str, rates, curves, axis: str = "fault rate", **kwargs
) -> Panel:
    return Panel(
        key, f"{title} vs {axis} (S={ROBUSTNESS_FRACTION:g})",
        f"{axis} (%)", [100.0 * r for r in rates], curves, **kwargs,
    )


def _against_first(curves: dict[str, Curve]) -> list[Curve]:
    """Label each curve by its key and judge all of them against the
    first one's baseline points."""
    shared = next(iter(curves.values())).baselines
    return [
        replace(curve, label=label, baselines=shared)
        for label, curve in curves.items()
    ]


def _robust(s: Setup, rates=DEFAULT_FAULT_RATES) -> list[Panel]:
    """Degradation under failure: latency gain and absolute mean latency
    vs the composite fault rate (:mod:`repro.experiments.robustness`)."""
    curves = _fault_curves(s, s.config(), rates, ROBUSTNESS_SCHEMES)
    notes = (
        "fault plan per rate r: loss=r on all links, delay rate r (x2), "
        "stale notices r/2, unresponsive r/2, churn r/200 events/request"
    )
    return [
        _fault_panel("gain", "Robustness: latency gain", rates, curves, notes=notes),
        _fault_panel(
            "latency", "Robustness: mean latency", rates,
            [curves[0].baseline_curve(), *curves],
            metric=mean_latency, y_label="mean latency (x Tl)", notes=notes,
        ),
    ]


def _bakeoff(
    s: Setup, fractions=BAKEOFF_FRACTIONS, rates=DEFAULT_FAULT_RATES
) -> list[Panel]:
    """Pastry vs Chord with workload, seeds, cache sizing and fault plans
    held identical: is the paper's gain a property of *cooperative
    placement* or of *Pastry's routing geometry*?  ``gain`` and ``hops``
    put Hier-GD's latency gain and measured mean route hops on the
    cache-size axis, ``churn`` its gain on the composite fault-rate axis,
    one series per overlay (EXPERIMENTS.md "Overlay bake-off").

    NC carries no overlay, so every series is judged against the first
    backend's NC points: the baseline is one simulation per x-value.
    Points keep ``shards=1``, like the fault axis they sit beside.
    """
    configs = {ov: s.config(overlay=ov) for ov in BAKEOFF_OVERLAYS}
    cache = _against_first(
        {
            ov: cache_curves(config, ("hier-gd",), fractions, s.seed)[0]
            for ov, config in configs.items()
        }
    )
    churn = _against_first(
        {
            ov: _fault_curves(s, config, rates, ("hier-gd",))[0]
            for ov, config in configs.items()
        }
    )
    notes = (
        "identical workload/seed/sizing per point; only config.overlay "
        "differs between series; NC baseline shared (overlay-independent)"
    )
    return [
        _cache_panel(
            "gain", "Overlay bake-off: Hier-GD latency gain vs proxy cache size",
            fractions, cache, notes=notes,
        ),
        _cache_panel(
            "hops", "Overlay bake-off: mean route hops vs proxy cache size",
            fractions, cache, metric=route_hops, y_label="mean hops",
        ),
        _fault_panel(
            "churn", "Overlay bake-off: Hier-GD latency gain", rates, churn,
            notes=notes + "; composite fault plan per rate (loss, delay, stale, "
            "unresponsive, churn r/200)",
        ),
    ]


def _latency_saved(result: SchemeResult, baseline: SchemeResult) -> float:
    """How much lower the point's mean latency is than its baseline's."""
    return baseline.mean_latency - result.mean_latency


def _frontier(s: Setup, rates=FRONTIER_RATES) -> list[Panel]:
    """Where does immediate fallback beat retrying?  Mean latency vs
    pure message loss, one panel per scheme and one series per candidate
    retry policy, each cell simulated
    (:mod:`repro.experiments.robustness`); ``gap`` plots, per scheme,
    the default ladder's latency minus ``immediate``'s."""
    cells = frontier_points(s.config(), rates, seed=s.seed)
    notes = "pure-loss plan: loss=r on all three cooperation links"
    panels = [
        _fault_panel(
            name, f"Policy frontier: {name} mean latency", rates,
            [Curve(label, points, points) for label, points in by_policy.items()],
            axis="loss rate", metric=mean_latency, y_label="mean latency (x Tl)",
            notes=notes,
        )
        for name, by_policy in cells.items()
    ]
    gap = [
        Curve(name, by_policy["immediate"], by_policy["default"])
        for name, by_policy in cells.items()
    ]
    panels.append(
        _fault_panel(
            "gap", "Policy frontier: default minus immediate mean latency",
            rates, gap, axis="loss rate", metric=_latency_saved,
            y_label="latency gap (x Tl)",
            notes="positive = immediate fallback wins; the zero crossing is "
            "the retry/fallback break-even",
        )
    )
    return panels


def _sizes(s: Setup, fractions=DEFAULT_FRACTIONS) -> list[Panel]:
    """Size-aware caching, beyond the paper's equal-size model (§5.1):
    heavy-tailed object sizes on, every capacity in bytes.  Latency gain,
    byte hit rate (share of response *bytes* served without the origin)
    and byte-weighted latency gain per scheme, with Hier-GD under both
    credit models — GreedyDual-Size and, as ``hier-gd (gd)``, size-blind
    classic greedy-dual (EXPERIMENTS.md "Size-aware caching").

    Every point has ``shards=1`` whatever ``--shards`` says: sized
    Hier-GD has no cooperative surface to shard
    (:func:`repro.shard.check_shardable` refuses it), and the figure
    compares schemes on one engine.  The classic-GD series is judged
    against the same NC points as the rest (NC reads no credit model).
    """
    config = s.config(workload=s.workload(object_sizes="heavy-tailed"))
    curves = cache_curves(config, PAPER_SCHEMES, fractions, s.seed)
    (gd,) = cache_curves(
        config.with_changes(gd_cost_model="gd"), ("hier-gd",), fractions, s.seed
    )
    curves.append(replace(gd, label=GD_SERIES, baselines=curves[0].baselines))
    notes = (
        "heavy-tailed object sizes (byte-denominated capacities); "
        + config.describe()
    )
    return [
        _cache_panel(
            "gain", "Sizes: latency gain vs cache size (heavy-tailed object sizes)",
            fractions, curves, notes=notes,
        ),
        _cache_panel(
            "byte_hit", "Sizes: byte hit rate vs cache size",
            fractions, [curves[0].baseline_curve(), *curves],
            metric=byte_hit_pct, y_label="byte hit rate (%)", notes=notes,
        ),
        _cache_panel(
            "byte_gain", "Sizes: byte-weighted latency gain vs cache size",
            fractions, curves,
            metric=byte_gain_pct, y_label="byte-weighted latency gain (%)",
            notes=notes,
        ),
    ]


# -- claims and the table ------------------------------------------------------------


#: A claim's predicate over a figure's evaluated panels, by panel key.
Check = Callable[[dict[str, SweepResult]], bool]


@dataclass(frozen=True)
class Claim:
    """One testable statement about a figure's evaluated panels.

    ``deviation`` names the documented deviation (EXPERIMENTS.md) for a
    statement of the paper that this reconstruction is known not to
    reproduce: the report still computes its verdict, the benchmark
    harness expects rather than asserts it.
    """

    text: str
    check: Check
    deviation: str | None = None


@dataclass(frozen=True)
class Figure:
    """One row of the table: how the figure is built and what is claimed
    of it.  ``build(setup, **axes)`` returns panels for
    :func:`~repro.experiments.runner.evaluate_panels`."""

    title: str
    build: Callable[..., list[Panel]]
    claims: tuple[Claim, ...]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _means(sweep: SweepResult, prefix: str = "") -> list[float]:
    """Mean over the sweep of each series (whose label starts with ``prefix``)."""
    return [_mean(x.values) for x in sweep.series if x.label.startswith(prefix)]


def _rising(values: Sequence[float]) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def _all_of(*checks: Check) -> Check:
    return lambda s: all(check(s) for check in checks)


def _ranked(panel: str, *labels: str) -> Check:
    """The named series' mean gains strictly fall in the order given."""
    return lambda s: _rising([-_mean(s[panel].get(x).values) for x in labels])


def _wins_at_smallest(panel: str, better: str, worse: str) -> Check:
    return lambda s: s[panel].get(better).values[0] > s[panel].get(worse).values[0]


def _first_beats_last(*panels: str, at_smallest: bool = False) -> Check:
    """In each named panel the first series out-gains the last — on
    average, or at the smallest cache (Figs 3 / 4 list α and stack size
    in ascending order)."""
    level = (lambda values: values[0]) if at_smallest else _mean
    return lambda s: all(
        level(s[p].series[0].values) > level(s[p].series[-1].values) for p in panels
    )


def _all_values(panel: str, holds: Callable[[float], bool]) -> Check:
    return lambda s: all(holds(v) for x in s[panel].series for v in x.values)


def _gain_erodes(scheme: str) -> Check:
    """``scheme`` gains less at the highest fault rate than fault-free."""
    return lambda s: (
        s["gain"].get(scheme).values[-1] < s["gain"].get(scheme).values[0]
    )


def _overlay_pairs(sweep: SweepResult):
    return zip(sweep.get("pastry").values, sweep.get("chord").values)


def _fig2_claims(panel: str) -> tuple[Claim, ...]:
    return (
        Claim(
            "increasing coordination helps: FC > SC and FC-EC > SC-EC > NC-EC",
            _all_of(
                _ranked(panel, "fc", "sc"), _ranked(panel, "fc-ec", "sc-ec", "nc-ec")
            ),
        ),
        Claim(
            "exploiting client caches helps: X-EC > X at the smallest cache",
            _all_of(
                _wins_at_smallest(panel, "sc-ec", "sc"),
                _wins_at_smallest(panel, "fc-ec", "fc"),
                lambda s: s[panel].get("nc-ec").values[0] > 0,
            ),
        ),
        Claim(
            "Hier-GD > SC-EC, SC, NC-EC (mean over the sweep)",
            _all_of(*(_ranked(panel, "hier-gd", x) for x in ("sc-ec", "sc", "nc-ec"))),
        ),
        Claim(
            "Hier-GD > FC at the smallest proxy cache",
            _wins_at_smallest(panel, "hier-gd", "fc"),
        ),
        Claim(
            "gains shrink as the proxy cache approaches the object universe "
            "(FC, FC-EC, Hier-GD)",
            lambda s: all(
                g[0] > g[-1] or g[-2] > g[-1]
                for g in (s[panel].get(x).values for x in ("fc", "fc-ec", "hier-gd"))
            ),
        ),
    )


def _extremes_gap(sweep: SweepResult, prefix: str, at: int) -> float:
    """Last-minus-first series (of those labelled ``prefix``…) at one x."""
    curves = [x for x in sweep.series if x.label.startswith(prefix)]
    return curves[-1].values[at] - curves[0].values[at]


FIGURES: dict[str, Figure] = {
    "fig2a": Figure("Fig 2(a)", _fig2a, _fig2_claims("fig2a")),
    # Relative to the huge UCB universe even a "100 %" proxy cache is
    # small, so gains keep growing along the sweep (Deviation 2) and the
    # Hier-GD / FC crossover moves: orderings only.
    "fig2b": Figure("Fig 2(b)", _fig2b, _fig2_claims("fig2b")[:3]),
    "fig3": Figure("Fig 3", _fig3, (
        Claim(
            "smaller alpha gives larger gains for FC and FC-EC — less skew "
            "means a larger working set, where cooperation is most effective",
            _first_beats_last("fc", "fc-ec"),
        ),
        Claim(
            "every panel gains over NC at every alpha (mean over the sweep)",
            lambda s: all(m > 0 for sweep in s.values() for m in _means(sweep)),
        ),
        Claim(
            "smaller alpha gives larger gains for Hier-GD, at the smallest "
            "proxy cache as over the whole sweep",
            _all_of(
                _first_beats_last("hier-gd"),
                _first_beats_last("hier-gd", at_smallest=True),
            ),
            deviation="Deviation 1",
        ),
    )),
    "fig4": Figure("Fig 4", _fig4, (
        Claim(
            "smaller stacks give larger gains for FC and FC-EC — temporal "
            "locality helps a single cache (NC) more than it helps cooperation",
            _first_beats_last("fc", "fc-ec"),
        ),
        Claim(
            "SC-EC reverses at small proxy caches (larger stack, larger gain)",
            lambda s: s["sc-ec"].series[-1].values[0] > s["sc-ec"].series[0].values[0],
        ),
        Claim(
            "smaller stacks give larger gains for Hier-GD",
            _first_beats_last("hier-gd"),
            deviation="Deviation 1",
        ),
    )),
    "fig5a": Figure("Fig 5(a)", _fig5a, (
        Claim("gain increases with Ts/Tc", lambda s: _rising(_means(s["fig5a"]))),
    )),
    "fig5b": Figure("Fig 5(b)", _fig5b, (
        Claim("gain increases with Ts/Tl", lambda s: _rising(_means(s["fig5b"]))),
    )),
    "fig5c": Figure("Fig 5(c)", _fig5c, (
        Claim(
            "more client caches, more gain (monotone in cluster size)",
            lambda s: _means(s["fig5c"], "hier-gd")
            == sorted(_means(s["fig5c"], "hier-gd")),
        ),
        Claim(
            "the effect is strongest at small proxy caches: largest-vs-smallest "
            "cluster gap wider at the smallest cache than at the largest",
            lambda s: _extremes_gap(s["fig5c"], "hier-gd", 0)
            > _extremes_gap(s["fig5c"], "hier-gd", -1),
        ),
    )),
    "fig5d": Figure("Fig 5(d)", _fig5d, (
        Claim("more proxies, more gain", lambda s: _rising(_means(s["fig5d"]))),
    )),
    "robust": Figure("Robustness", _robust, (
        Claim(
            "Hier-GD with fallback never drops below NC (gain >= 0 at every "
            "fault rate)",
            lambda s: all(v >= 0.0 for v in s["gain"].get("hier-gd").values),
        ),
        Claim(
            "faults erode the gain: Hier-GD at the highest fault rate gains "
            "less than fault-free",
            _gain_erodes("hier-gd"),
        ),
        Claim(
            "faults only hurt: every cooperating scheme's latency is minimal "
            "at fault rate 0",
            lambda s: all(
                min(s["latency"].get(name).values)
                >= s["latency"].get(name).values[0] - 1e-9
                for name in ROBUSTNESS_SCHEMES
            ),
        ),
        Claim(
            "Squirrel has no fallback tier: faults erode its gain "
            "monotonically toward (or below) NC",
            _gain_erodes("squirrel"),
        ),
    )),
    "bakeoff": Figure("Overlay bake-off", _bakeoff, (
        Claim(
            "cooperation pays on either geometry: Hier-GD gains over NC at "
            "every cache size on both Pastry and Chord",
            _all_values("gain", lambda v: v > 0.0),
        ),
        Claim(
            "the latency gain is a property of cooperative placement, not "
            "routing geometry: per-point Pastry/Chord gains agree within "
            "2 points",
            lambda s: all(abs(p - c) < 2.0 for p, c in _overlay_pairs(s["gain"])),
        ),
        Claim(
            "geometry shows up only in message cost: Chord (log2 N routing) "
            "pays more hops per lookup than Pastry (log16 N) at every point",
            lambda s: all(c > p for p, c in _overlay_pairs(s["hops"])),
        ),
        Claim(
            "both backends' repair machinery keeps the fallback ladder "
            "intact under churn: neither overlay drops Hier-GD below NC at "
            "any fault rate",
            _all_values("churn", lambda v: v >= 0.0),
        ),
    )),
    "frontier": Figure("Policy frontier", _frontier, (
        Claim(
            "every candidate policy coincides at loss rate 0 (no faults, "
            "no ladders: one fault-free simulation per scheme)",
            lambda s: all(
                max(x.values[0] for x in s[name].series)
                - min(x.values[0] for x in s[name].series)
                < 1e-9
                for name in ROBUSTNESS_SCHEMES
            ),
        ),
        Claim(
            "hedged fallback never costs more than the default ladder "
            "(charge max, not sum)",
            lambda s: all(
                h <= d + 1e-9
                for name in ROBUSTNESS_SCHEMES
                for h, d in zip(
                    s[name].get("hedged").values, s[name].get("default").values
                )
            ),
        ),
    )),
    "sizes": Figure("Sizes", _sizes, (
        Claim(
            "GreedyDual-Size beats classic GD on mean latency gain (its "
            "cost/size credit trades large objects for request-level hits)",
            _ranked("gain", "hier-gd", GD_SERIES),
        ),
        Claim(
            "classic GD beats GreedyDual-Size on byte hit rate and "
            "byte-weighted gain (it keeps the large objects)",
            _all_of(
                _ranked("byte_hit", GD_SERIES, "hier-gd"),
                _ranked("byte_gain", GD_SERIES, "hier-gd"),
            ),
        ),
        Claim(
            "the paper's ordering survives sizes: FC-EC > SC-EC > SC > NC-EC "
            "on mean latency gain",
            _ranked("gain", "fc-ec", "sc-ec", "sc", "nc-ec"),
        ),
    )),
}


def run_figure(
    name: str,
    *,
    scale: Scale | None = None,
    overlay: str | None = None,
    seed: int = 0,
    engine: ExperimentEngine | None = None,
    **axes,
) -> dict[str, SweepResult]:
    """Build and evaluate figure ``name``: its panels by key (a
    single-panel figure's key is its id).

    ``scale`` / ``overlay`` default to the environment's
    (:func:`~repro.experiments.runner.current_scale` /
    :func:`~repro.experiments.runner.current_overlay`); ``axes`` override
    the builder's axis defaults (module docstring).
    """
    engine = engine or ExperimentEngine()
    setup = Setup(
        scale or current_scale(), current_overlay(overlay), seed, engine.shards
    )
    return evaluate_panels(FIGURES[name].build(setup, **axes), engine)
