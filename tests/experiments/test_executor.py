"""Tests for the parallel experiment engine at tiny scale.

The contract under test: a sweep point computes the same bytes whether
it runs serially, in a worker process, or is replayed from the store;
each point runs once, and the first failure — a raising point or a dead
worker — aborts the run naming the point, with every finished point
already in the store for the resume.
"""

import concurrent.futures
import json
import os

import pytest

import repro.experiments.executor as executor_mod
from repro.experiments.executor import (
    ExperimentEngine,
    PointExecutionError,
    SweepPoint,
    run_point,
)
from repro.experiments.instrument import RunInstrumentation
from repro.experiments.runner import base_config, cache_size_sweep, sweep_points
from repro.experiments.store import ResultStore
from repro.workload import ProWGenConfig, generate_cluster_traces

TINY = ProWGenConfig(n_requests=4000, n_objects=300, n_clients=10)
SCHEMES = ("sc", "hier-gd")
FRACS = (0.2, 0.8)


def tiny_config():
    return base_config(workload=TINY)


# -- stand-ins for run_point, importable by worker processes -----------------

#: Environment variable naming the file each call of a stand-in appends to,
#: so calls made in worker processes are counted too.
CALLS = "REPRO_TEST_CALLS"


def _explodes(point):
    with open(os.environ[CALLS], "a") as fh:
        fh.write("x")
    raise RuntimeError("sim exploded")


def _explodes_on_hier_gd(point):
    if point.scheme == "hier-gd":
        raise RuntimeError("sim exploded")
    return run_point(point)


def _hard_crash(point):
    os._exit(13)  # kills the worker process outright (broken pool)


class TestSweepPoint:
    def test_resolved_config_applies_fraction(self):
        point = SweepPoint("sc", 0.3, tiny_config(), seed=1)
        assert point.resolved_config.proxy_cache_fraction == 0.3
        assert point.config.workload is TINY

    def test_run_point_deterministic(self):
        point = SweepPoint("sc", 0.2, tiny_config(), seed=1)
        first = run_point(point)
        second = run_point(point)
        assert first["result"] == second["result"]

    def test_run_point_matches_direct_simulation(self):
        """A worker regenerating traces from the explicit seed gets the
        same result as a caller holding pre-generated traces."""
        from repro.core.run import run_scheme
        from repro.experiments.store import deserialize_result

        cfg = tiny_config()
        point = SweepPoint("hier-gd", 0.2, cfg, seed=3)
        traces = generate_cluster_traces(cfg.workload, cfg.n_proxies, seed=3)
        direct = run_scheme("hier-gd", point.resolved_config, traces)
        assert deserialize_result(run_point(point)["result"]) == direct


class TestEngineEquivalence:
    def test_serial_equals_parallel(self):
        serial = cache_size_sweep(
            tiny_config(), schemes=SCHEMES, fractions=FRACS, seed=1,
            engine=ExperimentEngine(workers=1),
        )
        parallel = cache_size_sweep(
            tiny_config(), schemes=SCHEMES, fractions=FRACS, seed=1,
            engine=ExperimentEngine(workers=2),
        )
        assert serial.to_csv() == parallel.to_csv()

    def test_sweep_equals_direct_runs_on_held_traces(self):
        """The evaluator's gains are those of running each scheme and NC
        directly on traces generated from the same explicit seed."""
        from repro.core.metrics import latency_gain
        from repro.core.run import run_scheme

        cfg = tiny_config()
        traces = generate_cluster_traces(cfg.workload, cfg.n_proxies, seed=1)
        sweep = cache_size_sweep(cfg, schemes=SCHEMES, fractions=FRACS, seed=1)
        for name in SCHEMES:
            direct = []
            for fraction in FRACS:
                at = cfg.with_changes(proxy_cache_fraction=fraction)
                direct.append(
                    100.0
                    * latency_gain(
                        run_scheme(name, at, traces), run_scheme("nc", at, traces)
                    )
                )
            assert sweep.get(name).values == direct

    def test_outcomes_preserve_plan_order(self):
        points = sweep_points(tiny_config(), SCHEMES, FRACS, seed=1)
        outcomes = ExperimentEngine(workers=2).run(points)
        assert [o.point for o in outcomes] == points

    def test_workers_zero_resolves_to_cpu_count(self):
        assert ExperimentEngine(workers=0).workers == (os.cpu_count() or 1)


class TestRunOnce:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_point_runs_once_and_is_named(self, workers, tmp_path, monkeypatch):
        calls = tmp_path / "calls"
        monkeypatch.setenv(CALLS, str(calls))
        monkeypatch.setattr(executor_mod, "run_point", _explodes)
        point = SweepPoint("sc", 0.2, tiny_config(), seed=1)
        with pytest.raises(PointExecutionError, match="sc@S=0.2 failed") as excinfo:
            ExperimentEngine(workers=workers).run([point])
        assert calls.read_text() == "x"  # simulated once, never retried
        assert "sim exploded" in str(excinfo.value.__cause__)

    def test_dead_worker_aborts_without_a_pool_rebuild(self, monkeypatch):
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(executor_mod, "run_point", _hard_crash)
        points = sweep_points(tiny_config(), ("sc",), (0.2,), seed=1)
        with pytest.raises(PointExecutionError, match="worker process died.*sc@S=0.2"):
            ExperimentEngine(workers=2).run(points)
        assert len(pools) == 1

    def test_finished_points_are_stored_and_the_rerun_does_the_rest(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "store.jsonl"
        points = sweep_points(tiny_config(), SCHEMES, FRACS, seed=1)
        real_run_point = executor_mod.run_point

        def fails_on_hier_gd(point):
            if point.scheme == "hier-gd":
                raise RuntimeError("sim exploded")
            return real_run_point(point)

        monkeypatch.setattr(executor_mod, "run_point", fails_on_hier_gd)
        with pytest.raises(PointExecutionError, match="hier-gd@S=0.2"):
            ExperimentEngine(store=ResultStore(path)).run(points)
        done = [p.label for p in points[: [p.scheme for p in points].index("hier-gd")]]
        assert [json.loads(row)["label"] for row in path.read_text().splitlines()] == done

        monkeypatch.undo()
        resumed = ExperimentEngine(store=ResultStore(path), instrument=RunInstrumentation())
        outcomes = resumed.run(points)
        assert resumed.instrument.skipped == len(done)
        assert resumed.instrument.executed == len(points) - len(done)
        fresh = ExperimentEngine().run(points)
        assert [o.result for o in outcomes] == [o.result for o in fresh]

    def test_serial_run_stops_at_the_first_failure(self, tmp_path, monkeypatch):
        """Points after the failing one are never simulated."""
        calls = tmp_path / "calls"
        monkeypatch.setenv(CALLS, str(calls))
        points = sweep_points(tiny_config(), SCHEMES, FRACS, seed=1)
        real_run_point = executor_mod.run_point

        def counts_and_fails_first(point):
            with open(calls, "a") as fh:
                fh.write("x")
            if point is points[0]:
                raise RuntimeError("sim exploded")
            return real_run_point(point)

        monkeypatch.setattr(executor_mod, "run_point", counts_and_fails_first)
        inst = RunInstrumentation()
        with pytest.raises(PointExecutionError, match=points[0].label):
            ExperimentEngine(instrument=inst).run(points)
        assert calls.read_text() == "x"
        assert inst.executed == 0

    def test_parallel_failure_leaves_a_resumable_store(self, tmp_path, monkeypatch):
        """Under a pool, whatever finished before the failure is stored,
        never the failing point, and a rerun simulates only the rest."""
        path = tmp_path / "store.jsonl"
        points = sweep_points(tiny_config(), SCHEMES, FRACS, seed=1)
        monkeypatch.setattr(executor_mod, "run_point", _explodes_on_hier_gd)
        with pytest.raises(PointExecutionError, match="hier-gd@S="):
            ExperimentEngine(workers=2, store=ResultStore(path)).run(points)
        stored = ResultStore(path)
        assert not any(p.key in stored for p in points if p.scheme == "hier-gd")
        assert stored.skipped_lines == 0

        monkeypatch.undo()
        resumed = ExperimentEngine(
            workers=2, store=ResultStore(path), instrument=RunInstrumentation()
        )
        resumed.run(points)
        assert resumed.instrument.skipped == len(stored)
        assert resumed.instrument.executed == len(points) - len(stored)

    def test_repeated_point_in_one_batch_simulates_once(self, tmp_path, monkeypatch):
        calls = tmp_path / "calls"
        monkeypatch.setenv(CALLS, str(calls))
        real_run_point = executor_mod.run_point

        def counts(point):
            with open(calls, "a") as fh:
                fh.write("x")
            return real_run_point(point)

        monkeypatch.setattr(executor_mod, "run_point", counts)
        point = SweepPoint("sc", 0.2, tiny_config(), seed=1)
        twin = SweepPoint("sc", 0.2, tiny_config(), seed=1)
        inst = RunInstrumentation()
        first, second = ExperimentEngine(instrument=inst).run([point, twin])
        assert calls.read_text() == "x"
        assert (first.cached, second.cached) == (False, True)
        assert first.result == second.result
        assert (inst.executed, inst.skipped) == (1, 1)

    def test_pre_change_failure_row_resimulates(self, tmp_path):
        """Older builds stored a quarantined point as a ``"failed"`` row
        with no result: it is skipped on load and the point runs again."""
        path = tmp_path / "store.jsonl"
        point = SweepPoint("sc", 0.2, tiny_config(), seed=1)
        row = {"schema": 2, "key": point.key, "label": point.label,
               "failed": {"error": "RuntimeError('boom')", "attempts": 3}, "meta": {}}
        path.write_text(json.dumps(row) + "\n")
        store = ResultStore(path)
        assert store.skipped_lines == 1 and point.key not in store
        engine = ExperimentEngine(store=store, instrument=RunInstrumentation())
        (outcome,) = engine.run([point])
        assert engine.instrument.executed == 1 and not outcome.cached
        assert ResultStore(path).get(point.key) == outcome.result

    def test_run_preserves_order(self, tmp_path):
        """Outcomes come back in input order across pool completion
        order, store hits and in-batch repeats."""
        points = sweep_points(tiny_config(), SCHEMES, FRACS, seed=1)
        store = ResultStore(tmp_path / "store.jsonl")
        ExperimentEngine(store=store).run(points[2:3])
        batch = [*points, *points[::-1]]
        outcomes = ExperimentEngine(workers=2, store=store).run(batch)
        assert [o.point for o in outcomes] == batch
        assert [o.cached for o in outcomes] == [
            i == 2 or i >= len(points) for i in range(len(batch))
        ]
