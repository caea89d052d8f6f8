"""Smoke tests for the figure table and the CLI at tiny scale.

The full-scale numbers come from the benchmark harness; here every
figure id runs once on reduced axes and is held to
``GOLDEN_figures.json`` — each panel's table and CSV text and the set of
point keys handed to the engine, written by the per-figure modules that
preceded the table — and the CLI is checked to wire everything together.
"""

import json
import os
import re
from dataclasses import replace
from functools import lru_cache, partial
from pathlib import Path

import pytest

import repro.experiments.executor as executor_mod
from repro.experiments.cli import main
from repro.experiments.executor import ExperimentEngine
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.instrument import RunInstrumentation
from repro.experiments.robustness import FRONTIER_POLICIES, ROBUSTNESS_SCHEMES
from repro.experiments.runner import PAPER_SCHEMES, SCALES
from repro.experiments.store import ResultStore
from repro.faults import run_scheme_with_faults
from tests.analysis.test_results import labels

TINY = SCALES["smoke"]
FRACS = (0.2, 0.8)
GOLDEN_PATH = Path(__file__).with_name("GOLDEN_figures.json")

#: Figure id -> the reduced axes it runs on here (and in the goldens).
REDUCED = {
    "fig2a": {"fractions": FRACS},
    "fig2b": {"fractions": (0.5,)},
    "fig3": {"alphas": (0.5, 1.0), "fractions": FRACS},
    "fig4": {"stacks": (0.05, 0.6), "fractions": FRACS},
    "fig5a": {"ratios": (2.0, 10.0), "fractions": (0.3,)},
    "fig5b": {"ratios": (5.0, 20.0), "fractions": (0.3,)},
    "fig5c": {"cluster_sizes": (20, 50), "fractions": (0.3,)},
    "fig5d": {"proxy_counts": (2, 3), "fractions": (0.3,)},
    "robust": {"rates": (0.0, 0.1)},
    "bakeoff": {"fractions": (0.3,), "rates": (0.0, 0.1)},
    "frontier": {"rates": (0.0, 0.05)},
    "sizes": {"fractions": FRACS},
}


class _SpyEngine(ExperimentEngine):
    """Records every point a figure hands to the engine."""

    def run(self, points):
        self.seen.extend(points)
        return super().run(points)


@lru_cache(maxsize=None)
def reduced(name):
    """(panels, points handed to the engine, cold simulated count)."""
    engine = _SpyEngine(instrument=RunInstrumentation())
    engine.seen = []
    sweeps = run_figure(name, scale=TINY, engine=engine, **REDUCED[name])
    return sweeps, engine.seen, engine.instrument.executed


def test_reduced_axes_cover_the_table():
    assert list(REDUCED) == list(FIGURES)


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure_matches_golden(name):
    want = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[name]
    sweeps, points, simulated = reduced(name)
    assert {
        key: {"table": sweep.to_table(), "csv": sweep.to_csv()}
        for key, sweep in sweeps.items()
    } == want["panels"]
    assert sorted({point.key for point in points}) == want["keys"]
    assert simulated <= want["simulated"]


class TestFigure2:
    def test_fig2a_series(self):
        sweep = reduced("fig2a")[0]["fig2a"]
        assert labels(sweep) == ["sc", "fc", "nc-ec", "sc-ec", "fc-ec", "hier-gd"]
        assert sweep.x_values == [20.0, 80.0]
        assert "alpha=0.7" in sweep.notes

    def test_fig2b_uses_ucb_workload(self):
        sweep = reduced("fig2b")[0]["fig2b"]
        assert "UCB" in sweep.notes
        assert len(sweep.x_values) == 1


class TestFigure34:
    def test_fig3_panels_and_series(self):
        panels = reduced("fig3")[0]
        assert set(panels) == {"fc", "sc-ec", "fc-ec", "hier-gd"}
        for sweep in panels.values():
            assert labels(sweep) == ["alpha=0.5", "alpha=1"]

    def test_fig4_panels_and_series(self):
        for sweep in reduced("fig4")[0].values():
            assert labels(sweep) == ["stack=5%", "stack=60%"]


class TestFigure5:
    def test_fig5a_series(self):
        assert labels(reduced("fig5a")[0]["fig5a"]) == ["Ts/Tc=2", "Ts/Tc=10"]

    def test_fig5c_includes_references(self):
        sweep = reduced("fig5c")[0]["fig5c"]
        assert labels(sweep)[:2] == ["sc", "fc"]
        assert labels(sweep)[2:] == ["hier-gd (20)", "hier-gd (50)"]

    def test_fig5d_series(self):
        assert labels(reduced("fig5d")[0]["fig5d"]) == ["2 proxies", "3 proxies"]


class TestBakeoff:
    def test_panels_and_series(self):
        panels = reduced("bakeoff")[0]
        assert set(panels) == {"gain", "hops", "churn"}
        for key in ("gain", "hops"):
            assert labels(panels[key]) == ["pastry", "chord"]
            assert panels[key].x_values == [30.0]
        assert labels(panels["churn"]) == ["pastry", "chord"]
        assert panels["churn"].x_values == [0.0, 10.0]
        # Hop statistics must have been measured for both geometries.
        for ov in ("pastry", "chord"):
            assert panels["hops"].get(ov).values[0] > 0.0

    def test_nc_baseline_is_one_point_per_x_value(self):
        """NC carries no overlay: both series are judged against the
        first backend's NC points, which is what keeps the keys."""
        nc = {p.key for p in reduced("bakeoff")[1] if p.scheme == "nc"}
        assert len(nc) == 1  # one cache fraction == the churn axis's 0.3


class TestFrontier:
    """Every (scheme, rate, policy) cell is an engine point, simulated."""

    def test_cells_run_once_on_the_engine_and_resume(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")

        def simulated():
            engine = ExperimentEngine(store=store, instrument=RunInstrumentation())
            run_figure("frontier", scale=TINY, engine=engine, rates=(0.0, 0.05))
            return engine.instrument.executed

        # Loss 0 runs no ladder: the policies share one key per scheme.
        assert simulated() == len(ROBUSTNESS_SCHEMES) * (1 + len(FRONTIER_POLICIES))
        assert simulated() == 0

    def test_a_cell_is_a_plain_faulty_run_of_its_plan(self):
        panels, points, _ = reduced("frontier")
        (cell,) = {
            p.key: p
            for p in points
            if p.scheme == "squirrel"
            and p.faults.p2p_loss == 0.05
            and p.faults.policies.default == FRONTIER_POLICIES["immediate"]
        }.values()
        result = run_scheme_with_faults(
            "squirrel", cell.resolved_config, plan=cell.faults, seed=cell.seed
        )
        assert panels["squirrel"].get("immediate").values[1] == result.mean_latency

    def test_panels_and_the_gap(self):
        panels = reduced("frontier")[0]
        assert list(panels) == [*ROBUSTNESS_SCHEMES, "gap"]
        for name in ROBUSTNESS_SCHEMES:
            sweep = panels[name]
            assert labels(sweep) == list(FRONTIER_POLICIES)
            default, immediate = sweep.get("default").values, sweep.get("immediate").values
            assert panels["gap"].get(name).values == [
                d - i for d, i in zip(default, immediate)
            ]


class TestFigureSizes:
    def test_panels_and_series(self):
        panels = reduced("sizes")[0]
        assert set(panels) == {"gain", "byte_hit", "byte_gain"}
        gd_series = [*PAPER_SCHEMES, "hier-gd (gd)"]
        assert labels(panels["gain"]) == gd_series
        assert labels(panels["byte_gain"]) == gd_series
        assert labels(panels["byte_hit"]) == ["nc", *gd_series]
        assert panels["byte_hit"].y_label == "byte hit rate (%)"
        for series in panels["byte_hit"].series:
            assert all(0.0 <= v <= 100.0 for v in series.values)
        assert "heavy-tailed object sizes" in panels["gain"].notes


class TestScaleAndOverlayArePassedNotAmbient:
    def test_overlay_keyword_reaches_every_point(self):
        engine = _SpyEngine()
        engine.seen = []
        run_figure(
            "fig5a", scale=TINY, overlay="chord", engine=engine,
            ratios=(2.0,), fractions=(0.3,),
        )
        assert {p.config.overlay for p in engine.seen} == {"chord"}

    def test_environment_is_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        monkeypatch.setenv("REPRO_OVERLAY", "chord")
        engine = _SpyEngine()
        engine.seen = []
        run_figure("fig5a", engine=engine, ratios=(2.0,), fractions=(0.3,))
        assert {p.config.overlay for p in engine.seen} == {"chord"}
        assert {p.config.workload.n_requests for p in engine.seen} == {
            TINY.n_requests
        }


@pytest.fixture
def tiny_fig2a(monkeypatch):
    """Patch the table's fig2a to one cache fraction so CLI tests stay fast."""
    fig2a = FIGURES["fig2a"]
    monkeypatch.setitem(
        FIGURES, "fig2a", replace(fig2a, build=partial(fig2a.build, fractions=(0.5,)))
    )


class TestCli:
    def test_registry_covers_every_figure(self):
        assert set(FIGURES) == {
            "fig2a", "fig2b", "fig3", "fig4",
            "fig5a", "fig5b", "fig5c", "fig5d", "robust", "bakeoff",
            "frontier", "sizes",
        }

    def test_cli_runs_and_saves_csv(self, tmp_path, capsys, tiny_fig2a):
        rc = main(["fig2a", "--scale", "smoke", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 2(a)" in out
        assert (tmp_path / "fig2a.csv").exists()
        assert (tmp_path / "instrumentation.json").exists()

    def test_cli_parallel_resume_progress(self, tmp_path, capsys, tiny_fig2a):
        store = tmp_path / "store.jsonl"
        args = ["fig2a", "--scale", "smoke", "--workers", "2",
                "--resume", str(store), "--progress"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "[1/" in first  # progress ticks
        assert "points simulated" in first
        assert store.exists()

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 points simulated" in second
        assert "(cached)" in second

    def test_cli_reports_unreadable_store_rows(self, tmp_path, capsys, tiny_fig2a):
        store = tmp_path / "store.jsonl"
        store.write_text('{"schema": 2, "key": ["a"]}\n{"key": "torn')
        assert main(["fig2a", "--scale", "smoke", "--resume", str(store)]) == 0
        out = capsys.readouterr().out
        assert f"result store: {store} (0 points, 2 unreadable rows skipped)" in out

    def test_cli_failed_run_resumes_from_the_store(
        self, tmp_path, capsys, monkeypatch, tiny_fig2a
    ):
        """A point that raises ends the run naming it; ``--resume`` on
        the same store then simulates only what did not finish."""
        real_run_point = executor_mod.run_point

        def fails_on_hier_gd(point):
            if point.scheme == "hier-gd":
                raise RuntimeError("sim exploded")
            return real_run_point(point)

        store = tmp_path / "store.jsonl"
        args = ["fig2a", "--scale", "smoke", "--resume", str(store)]
        with monkeypatch.context() as patch:
            patch.setattr(executor_mod, "run_point", fails_on_hier_gd)
            with pytest.raises(executor_mod.PointExecutionError, match="hier-gd@S=0.5"):
                main(args)
        finished = len(store.read_text().splitlines())
        assert finished > 0
        capsys.readouterr()

        assert main(args) == 0
        out = capsys.readouterr().out
        simulated, from_store = map(
            int, re.search(r"\[(\d+) points simulated, (\d+) from store", out).groups()
        )
        assert from_store == finished
        assert simulated == len(store.read_text().splitlines()) - finished > 0

    def test_cli_leaves_the_environment_alone(self, capsys, tiny_fig2a):
        """--scale / --overlay are passed to the builders, not exported."""
        before = dict(os.environ)
        assert main(["fig2a", "--scale", "smoke", "--overlay", "chord"]) == 0
        assert dict(os.environ) == before
        out = capsys.readouterr().out
        assert "scale=smoke" in out and "overlay=chord" in out

    def test_cli_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figZ"])
