"""Tests for the experiment runner (scales, sweeps) at tiny scale."""

import pytest

from repro.experiments.runner import (
    DEFAULT_FRACTIONS,
    PAPER_SCHEMES,
    SCALES,
    base_config,
    base_workload,
    cache_size_sweep,
    current_scale,
)
from tests.analysis.test_results import labels


class TestScales:
    def test_registry(self):
        assert set(SCALES) == {"smoke", "default", "paper"}
        assert SCALES["paper"].n_requests == 1_000_000
        assert SCALES["paper"].n_objects == 10_000
        assert SCALES["paper"].n_clients == 100

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert current_scale().label == "smoke"
        monkeypatch.delenv("REPRO_SCALE")
        assert current_scale().label == "default"

    def test_invalid_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ValueError):
            current_scale()

    def test_base_workload_overrides(self):
        wl = base_workload(SCALES["smoke"], alpha=0.9)
        assert wl.alpha == 0.9
        assert wl.n_requests == SCALES["smoke"].n_requests

    def test_base_config_paper_defaults(self):
        cfg = base_config(SCALES["smoke"])
        assert cfg.n_proxies == 2
        assert cfg.network.ts_over_tc == 10


class TestSweep:
    def test_cache_size_sweep_structure(self):
        from repro.workload import ProWGenConfig

        cfg = base_config(
            workload=ProWGenConfig(n_requests=4000, n_objects=300, n_clients=10)
        )
        sweep = cache_size_sweep(
            cfg, schemes=("sc", "hier-gd"), fractions=(0.2, 0.8), seed=1
        )
        assert sweep.x_values == [20.0, 80.0]
        assert labels(sweep) == ["sc", "hier-gd"]
        assert all(len(s.values) == 2 for s in sweep.series)
        # Gains are percentages of the NC baseline.
        assert all(-100 < v < 100 for s in sweep.series for v in s.values)

    def test_default_constants_match_paper(self):
        assert DEFAULT_FRACTIONS[0] == 0.1 and DEFAULT_FRACTIONS[-1] == 1.0
        assert len(DEFAULT_FRACTIONS) == 10
        assert PAPER_SCHEMES == ("sc", "fc", "nc-ec", "sc-ec", "fc-ec", "hier-gd")


class TestEvaluator:
    def test_panels_share_one_batch_of_unique_points(self):
        from repro.experiments.executor import ExperimentEngine
        from repro.experiments.runner import (
            Panel,
            cache_curves,
            evaluate_panels,
            mean_latency,
        )
        from repro.workload import ProWGenConfig

        class Spy(ExperimentEngine):
            def run(self, points):
                self.batches.append([p.key for p in points])
                return super().run(points)

        cfg = base_config(
            workload=ProWGenConfig(n_requests=4000, n_objects=300, n_clients=10)
        )
        schemes, fractions = ("sc", "hier-gd"), (0.2, 0.8)
        curves = cache_curves(cfg, schemes, fractions, seed=1)
        x = [100.0 * f for f in fractions]
        engine = Spy()
        engine.batches = []
        sweeps = evaluate_panels(
            [
                Panel("gain", "g", "cache size (%)", x, curves),
                Panel(
                    "latency", "l", "cache size (%)", x,
                    [curves[0].baseline_curve(), *curves],
                    metric=mean_latency, y_label="mean latency (x Tl)",
                ),
            ],
            engine,
        )
        # Two panels, three curves each judged against NC: one engine call,
        # (nc + 2 schemes) x 2 fractions distinct keys, none repeated.
        (batch,) = engine.batches
        assert len(batch) == len(set(batch)) == 6
        assert labels(sweeps["latency"]) == ["nc", *schemes]
        assert sweeps["latency"].y_label == "mean latency (x Tl)"
        reference = cache_size_sweep(cfg, schemes=schemes, fractions=fractions, seed=1)
        assert sweeps["gain"].to_csv() == reference.to_csv()
