"""Tests for the robustness (degradation-under-failure) sweep."""

import re

import pytest

from repro.experiments.executor import ExperimentEngine, PointExecutionError, SweepPoint
from repro.experiments.figures import run_figure
from repro.experiments.instrument import RunInstrumentation
from repro.experiments.robustness import (
    DEFAULT_FAULT_RATES,
    ROBUSTNESS_FRACTION,
    ROBUSTNESS_SCHEMES,
    frontier_points,
    robustness_plan,
    robustness_points,
)
from repro.faults import FaultPlan
from repro.protocol import PolicySet
from repro.experiments.runner import Scale, base_config
from tests.analysis.test_results import labels

TINY = Scale("tiny", 3000, 300, 10)
RATES = (0.0, 0.2)
SCHEMES = ("fc", "hier-gd")


def robustness_sweep(rates=RATES, engine=None):
    return run_figure("robust", scale=TINY, overlay="pastry", rates=rates, engine=engine)


class TestPlanConstruction:
    def test_rate_zero_is_the_zero_plan(self):
        assert robustness_plan(0.0).is_zero()

    def test_rate_drives_every_process(self):
        plan = robustness_plan(0.1, seed=3)
        assert plan.p2p_loss == plan.proxy_loss == plan.push_loss == 0.1
        assert plan.delay_rate == 0.1
        assert plan.stale_rate == 0.05
        assert plan.unresponsive_fraction == 0.05
        assert plan.churn_rate == pytest.approx(0.0005)
        assert plan.seed == 3

    def test_default_rates_start_at_zero(self):
        assert DEFAULT_FAULT_RATES[0] == 0.0
        assert list(DEFAULT_FAULT_RATES) == sorted(DEFAULT_FAULT_RATES)


class TestPoints:
    def test_nc_baseline_shared_across_rates(self):
        points = robustness_points(base_config(TINY), rates=RATES, schemes=SCHEMES)
        nc = [p for p in points if p.scheme == "nc"]
        assert len(nc) == len(RATES)
        assert all(p.faults is None for p in nc)
        # ... so the baseline has ONE store key: simulated once per sweep.
        assert len({p.key for p in nc}) == 1

    def test_a_cold_sweep_simulates_each_key_once(self):
        """The engine runs a batch's key-identical points once (the NC
        baseline here, submitted at every rate) and counts the repeats
        as cached: 5 rates x (nc + 4 schemes) = 25 points, 21 keys."""
        engine = ExperimentEngine(instrument=RunInstrumentation())
        points = robustness_points(base_config(TINY))
        outcomes = engine.run(points)
        assert len(points) == 25 and len({p.key for p in points}) == 21
        assert engine.instrument.executed == 21
        assert engine.instrument.skipped == 4
        assert [o.point for o in outcomes] == points
        nc = [o for o in outcomes if o.point.scheme == "nc"]
        assert [o.cached for o in nc] == [False, True, True, True, True]
        assert all(o.result == nc[0].result for o in nc)

    def test_faulty_points_keyed_per_rate(self):
        points = robustness_points(base_config(TINY), rates=RATES, schemes=SCHEMES)
        hier = [p for p in points if p.scheme == "hier-gd"]
        assert len({p.key for p in hier}) == len(RATES)

    def test_zero_rate_key_matches_plain_point(self):
        """The leftmost column of the figure resolves to the same store
        key as a pre-fault-subsystem sweep point — old stores resume."""
        config = base_config(TINY)
        points = robustness_points(config, rates=(0.0,), schemes=("hier-gd",))
        faulty_zero = next(p for p in points if p.scheme == "hier-gd")
        plain = SweepPoint("hier-gd", ROBUSTNESS_FRACTION, config, 0)
        assert faulty_zero.key == plain.key

    def test_frontier_default_keys_as_the_plan_without_policies(self):
        """An identity ``PolicySet`` is stored as ``None``: the frontier's
        ``default`` point and the same pure-loss plan without policies (how
        ``robust`` spells it) are one store key, under one label."""
        config = base_config(TINY)
        frontier = frontier_points(config, rates=(0.1,))["hier-gd"]
        (default,) = frontier["default"]
        plan = FaultPlan(p2p_loss=0.1, proxy_loss=0.1, push_loss=0.1)
        plain = SweepPoint("hier-gd", ROBUSTNESS_FRACTION, config, 0, faults=plan)
        assert default.faults.policies is None
        assert default.faults == plan == FaultPlan(
            p2p_loss=0.1, proxy_loss=0.1, push_loss=0.1, policies=PolicySet()
        )
        assert default.key == plain.key
        assert default.label == plain.label == "hier-gd@S=0.3[loss=0.1]"
        (hedged,) = frontier["hedged"]
        assert hedged.key != plain.key
        assert hedged.label == "hier-gd@S=0.3[loss=0.1,policy=hedged]"

    def test_nonzero_plan_changes_the_key(self):
        config = base_config(TINY)
        a = SweepPoint("hier-gd", 0.3, config, 0, faults=robustness_plan(0.1))
        b = SweepPoint("hier-gd", 0.3, config, 0)
        c = SweepPoint("hier-gd", 0.3, config, 0, faults=robustness_plan(0.2))
        assert a.key != b.key != c.key and a.key != c.key


@pytest.fixture(scope="module")
def sweeps():
    return robustness_sweep()


class TestSweep:
    def test_panels_and_axes(self, sweeps):
        assert set(sweeps) == {"gain", "latency"}
        assert sweeps["gain"].x_values == [0.0, 20.0]
        assert labels(sweeps["gain"]) == list(ROBUSTNESS_SCHEMES)
        assert labels(sweeps["latency"]) == ["nc", *ROBUSTNESS_SCHEMES]

    def test_nc_latency_flat_across_rates(self, sweeps):
        nc = sweeps["latency"].get("nc").values
        assert nc[0] == nc[1]  # fault-free by construction

    def test_faults_degrade_but_never_below_nc(self, sweeps):
        for name in SCHEMES:
            gains = sweeps["gain"].get(name).values
            assert gains[-1] < gains[0]  # faults erode the gain
            assert all(g >= 0.0 for g in gains)  # never below NC
            lat = sweeps["latency"].get(name).values
            assert lat[-1] > lat[0]  # and latency only rises

    def test_deterministic(self, sweeps):
        assert robustness_sweep()["gain"].to_csv() == sweeps["gain"].to_csv()

    def test_figure_entry_point(self):
        out = run_figure("robust", scale=TINY)
        assert set(out) == {"gain", "latency"}
        assert len(out["gain"].x_values) == len(DEFAULT_FAULT_RATES)

    def test_a_raising_point_fails_the_figure_with_its_label(self, monkeypatch):
        """A figure computed from partial data would silently understate
        degradation: a point that raises fails the figure, named."""
        import repro.experiments.executor as executor_mod

        real_run_point = executor_mod.run_point

        def fails_on_fc(point):
            if point.scheme == "fc":
                raise RuntimeError("synthetic crash")
            return real_run_point(point)

        monkeypatch.setattr(executor_mod, "run_point", fails_on_fc)
        label = f"fc@S={ROBUSTNESS_FRACTION:g}"
        with pytest.raises(PointExecutionError, match=re.escape(label)) as excinfo:
            robustness_sweep(rates=(0.0,))
        assert "synthetic crash" in str(excinfo.value.__cause__)


class TestSquirrelDegradation:
    """Regression guard: Squirrel rides the fault transport with no proxy
    fallback tier, so faults erode its gain *without* the >= 0 floor the
    Hier-GD claim relies on — it can land below NC."""

    def test_squirrel_is_in_the_default_sweep(self):
        assert "squirrel" in ROBUSTNESS_SCHEMES

    def test_gain_erodes_with_fault_rate(self, sweeps):
        gains = sweeps["gain"].get("squirrel").values
        assert gains[-1] < gains[0]

    def test_latency_only_rises(self, sweeps):
        lat = sweeps["latency"].get("squirrel").values
        assert lat[-1] > lat[0]
