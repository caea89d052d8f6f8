"""Smoke tests for the figure modules and the CLI at tiny scale.

The full-scale numbers come from the benchmark harness; here we verify
that each figure function produces the right panels/series and that the
CLI wires everything together.
"""

import pytest

from repro.experiments.cli import FIGURES, main
from repro.experiments.figure2 import figure2a, figure2b
from repro.experiments.figure3 import figure3
from repro.experiments.figure4 import figure4
from repro.experiments.figure5 import figure5a, figure5c, figure5d
from repro.experiments.runner import SCALES

TINY = SCALES["smoke"]
FRACS = (0.2, 0.8)


@pytest.fixture(autouse=True)
def smoke_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "smoke")


class TestFigure2:
    def test_fig2a_series(self):
        sweep = figure2a(scale=TINY, fractions=FRACS)
        assert sweep.labels == ["sc", "fc", "nc-ec", "sc-ec", "fc-ec", "hier-gd"]
        assert sweep.x_values == [20.0, 80.0]
        assert "alpha=0.7" in sweep.notes

    def test_fig2b_uses_ucb_workload(self):
        sweep = figure2b(scale=TINY, fractions=(0.5,))
        assert "UCB" in sweep.notes
        assert len(sweep.x_values) == 1


class TestFigure34:
    def test_fig3_panels_and_series(self):
        panels = figure3(scale=TINY, alphas=(0.5, 1.0), fractions=FRACS)
        assert set(panels) == {"fc", "sc-ec", "fc-ec", "hier-gd"}
        for sweep in panels.values():
            assert sweep.labels == ["alpha=0.5", "alpha=1"]

    def test_fig4_panels_and_series(self):
        panels = figure4(scale=TINY, stacks=(0.05, 0.6), fractions=FRACS)
        for sweep in panels.values():
            assert sweep.labels == ["stack=5%", "stack=60%"]


class TestFigure5:
    def test_fig5a_series(self):
        sweep = figure5a(scale=TINY, ratios=(2.0, 10.0), fractions=(0.3,))
        assert sweep.labels == ["Ts/Tc=2", "Ts/Tc=10"]

    def test_fig5c_includes_references(self):
        sweep = figure5c(scale=TINY, cluster_sizes=(20, 50), fractions=(0.3,))
        assert sweep.labels[:2] == ["sc", "fc"]
        assert sweep.labels[2:] == ["hier-gd (20)", "hier-gd (50)"]

    def test_fig5d_series(self):
        sweep = figure5d(scale=TINY, proxy_counts=(2, 3), fractions=(0.3,))
        assert sweep.labels == ["2 proxies", "3 proxies"]


class TestBakeoff:
    def test_panels_and_series(self):
        from repro.experiments.bakeoff import bakeoff_sweep

        panels = bakeoff_sweep(
            scale=TINY, fractions=(0.3,), rates=(0.0, 0.1)
        )
        assert set(panels) == {"gain", "hops", "churn"}
        for key in ("gain", "hops"):
            assert panels[key].labels == ["pastry", "chord"]
            assert panels[key].x_values == [30.0]
        assert panels["churn"].labels == ["pastry", "chord"]
        assert panels["churn"].x_values == [0.0, 10.0]
        # Hop statistics must have been measured for both geometries.
        for ov in ("pastry", "chord"):
            assert panels["hops"].get(ov).values[0] > 0.0


class TestFigureSizes:
    def test_panels_and_series(self):
        from repro.experiments.figure_sizes import SIZED_SCHEMES, figure_sizes

        panels = figure_sizes(scale=TINY, fractions=FRACS)
        assert set(panels) == {"gain", "byte_hit", "byte_gain"}
        gd_series = [*SIZED_SCHEMES, "hier-gd (gd)"]
        assert panels["gain"].labels == gd_series
        assert panels["byte_gain"].labels == gd_series
        assert panels["byte_hit"].labels == ["nc", *gd_series]
        assert panels["byte_hit"].y_label == "byte hit rate (%)"
        for series in panels["byte_hit"].series:
            assert all(0.0 <= v <= 100.0 for v in series.values)
        assert "heavy-tailed object sizes" in panels["gain"].notes


class TestCli:
    def test_registry_covers_every_figure(self):
        assert set(FIGURES) == {
            "fig2a", "fig2b", "fig3", "fig4",
            "fig5a", "fig5b", "fig5c", "fig5d", "robust", "bakeoff",
            "frontier", "sizes",
        }

    def test_cli_runs_and_saves_csv(self, tmp_path, capsys, monkeypatch):
        # Patch the figure to a tiny variant so the CLI test stays fast.
        monkeypatch.setitem(
            FIGURES,
            "fig2a",
            lambda seed=0, engine=None: figure2a(
                scale=TINY, fractions=(0.5,), engine=engine
            ),
        )
        rc = main(["fig2a", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 2(a)" in out
        assert (tmp_path / "fig2a.csv").exists()
        assert (tmp_path / "instrumentation.json").exists()

    def test_cli_parallel_resume_progress(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(
            FIGURES,
            "fig2a",
            lambda seed=0, engine=None: figure2a(
                scale=TINY, fractions=(0.5,), engine=engine
            ),
        )
        store = tmp_path / "store.jsonl"
        args = ["fig2a", "--workers", "2", "--resume", str(store), "--progress"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "[1/" in first  # progress ticks
        assert "points simulated" in first
        assert store.exists()

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 points simulated" in second
        assert "(cached)" in second

    def test_cli_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figZ"])


# -- goldens: every figure's tables, CSVs and point keys ----------------------

import json  # noqa: E402
from pathlib import Path  # noqa: E402

from repro.experiments.executor import ExperimentEngine  # noqa: E402
from repro.experiments.instrument import RunInstrumentation  # noqa: E402

GOLDEN_PATH = Path(__file__).with_name("GOLDEN_figures.json")


def _reduced(engine):
    """Every figure id on the reduced axes above (smoke scale, seed 0)."""
    from repro.experiments.bakeoff import bakeoff_sweep
    from repro.experiments.figure5 import figure5b
    from repro.experiments.figure_sizes import figure_sizes
    from repro.experiments.policy_frontier import policy_frontier_sweep
    from repro.experiments.robustness import robustness_sweep

    return {
        "fig2a": lambda: figure2a(scale=TINY, fractions=FRACS, engine=engine),
        "fig2b": lambda: figure2b(scale=TINY, fractions=(0.5,), engine=engine),
        "fig3": lambda: figure3(
            scale=TINY, alphas=(0.5, 1.0), fractions=FRACS, engine=engine
        ),
        "fig4": lambda: figure4(
            scale=TINY, stacks=(0.05, 0.6), fractions=FRACS, engine=engine
        ),
        "fig5a": lambda: figure5a(
            scale=TINY, ratios=(2.0, 10.0), fractions=(0.3,), engine=engine
        ),
        "fig5b": lambda: figure5b(
            scale=TINY, ratios=(5.0, 20.0), fractions=(0.3,), engine=engine
        ),
        "fig5c": lambda: figure5c(
            scale=TINY, cluster_sizes=(20, 50), fractions=(0.3,), engine=engine
        ),
        "fig5d": lambda: figure5d(
            scale=TINY, proxy_counts=(2, 3), fractions=(0.3,), engine=engine
        ),
        "robust": lambda: robustness_sweep(
            scale=TINY, rates=(0.0, 0.1), engine=engine
        ),
        "bakeoff": lambda: bakeoff_sweep(
            scale=TINY, fractions=(0.3,), rates=(0.0, 0.1), engine=engine
        ),
        "frontier": lambda: policy_frontier_sweep(scale=TINY, rates=(0.0, 0.05)),
        "sizes": lambda: figure_sizes(scale=TINY, fractions=FRACS, engine=engine),
    }


class _SpyEngine(ExperimentEngine):
    """Records the key of every point a figure hands to the engine."""

    def run(self, points):
        self.keys.update(point.key for point in points)
        return super().run(points)


def capture(name):
    """One figure's golden record: panel texts, point keys, cold run count."""
    engine = _SpyEngine(instrument=RunInstrumentation())
    engine.keys = set()
    result = _reduced(engine)[name]()
    sweeps = result if isinstance(result, dict) else {name: result}
    return {
        "panels": {
            key: {"table": sweep.to_table(), "csv": sweep.to_csv()}
            for key, sweep in sweeps.items()
        },
        "keys": sorted(engine.keys),
        "simulated": engine.instrument.executed,
    }


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure_matches_golden(name):
    want = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[name]
    got = capture(name)
    assert got["panels"] == want["panels"]
    assert got["keys"] == want["keys"]
    assert got["simulated"] <= want["simulated"]


if __name__ == "__main__":
    import os

    os.environ["REPRO_SCALE"] = "smoke"  # what the autouse fixture sets
    GOLDEN_PATH.write_text(
        json.dumps({name: capture(name) for name in FIGURES}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")
