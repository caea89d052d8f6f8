"""Figure benchmarks: every figure of the table, every declared claim.

Regenerates each id in :data:`repro.experiments.figures.FIGURES` once per
session at ``REPRO_SCALE`` (cached, so a figure's claims do not pay for a
second sweep), prints the rows the paper plots, and asserts every claim
the table declares for it — the paper's qualitative statements (§5.2)
for Figures 2–5 and the extension figures' own.  A claim that names a
documented deviation (EXPERIMENTS.md) is expected, not asserted: it
xfails while the deviation holds.  The two checks that need runs outside
one figure stay here as tests of their own.
"""

from functools import lru_cache

import pytest
from conftest import run_once

from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.runner import current_scale

CLAIMS = [
    pytest.param(name, claim, id=f"{name}: {claim.text}")
    for name, figure in FIGURES.items()
    for claim in figure.claims
]


@lru_cache(maxsize=None)
def figure(name):
    axes = {}
    if name == "fig5c" and current_scale().label != "paper":
        # The paper sweeps 100..1000 clients; cap at 400 below the paper
        # scale to keep overlay construction proportionate.
        axes["cluster_sizes"] = (50, 100, 250, 400)
    return run_figure(name, **axes)


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure(benchmark, emit, name):
    emit(run_once(benchmark, figure, name))


@pytest.mark.parametrize(("name", "claim"), CLAIMS)
def test_claim(benchmark, name, claim):
    holds = claim.check(run_once(benchmark, figure, name))
    if claim.deviation and not holds:
        pytest.xfail(f"known deviation: {claim.deviation}")
    assert holds


def test_fig2b_gains_below_fig2a(benchmark):
    """The real-trace panel's peak gain sits below the synthetic panel's."""
    synth, ucb = run_once(
        benchmark, lambda: (figure("fig2a")["fig2a"], figure("fig2b")["fig2b"])
    )
    for label in ("fc-ec", "hier-gd"):
        assert max(ucb.get(label).values) < max(synth.get(label).values)


def test_fig4_nc_improves_with_temporal_locality(benchmark):
    """The mechanism behind Figure 4: more locality helps a single cache."""
    from repro.core.run import generate_workloads, run_scheme
    from repro.experiments.runner import base_config, base_workload

    def nc_latencies():
        out = {}
        for stack in (0.05, 0.60):
            cfg = base_config(workload=base_workload(stack_fraction=stack))
            traces = generate_workloads(cfg, seed=0)
            out[stack] = run_scheme("nc", cfg, traces).mean_latency
        return out

    lat = run_once(benchmark, nc_latencies)
    assert lat[0.60] < lat[0.05]
