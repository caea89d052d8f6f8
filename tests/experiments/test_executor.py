"""Tests for the parallel experiment engine at tiny scale.

The contract under test: a sweep point computes the same bytes whether
it runs serially, in a worker process, or is replayed from the store;
failing points are retried a bounded number of times; crashed workers
don't take the suite down.
"""

import os

import pytest

from repro.experiments.executor import (
    ExperimentEngine,
    PointExecutionError,
    QuarantinedPoint,
    SweepPoint,
    run_point,
)
from repro.experiments.instrument import RunInstrumentation
from repro.experiments.runner import base_config, cache_size_sweep, sweep_points
from repro.workload import ProWGenConfig, generate_cluster_traces

TINY = ProWGenConfig(n_requests=4000, n_objects=300, n_clients=10)
SCHEMES = ("sc", "hier-gd")
FRACS = (0.2, 0.8)


def tiny_config():
    return base_config(workload=TINY)


# -- helpers that must be importable by worker processes ---------------------


def _flaky(arg):
    """Fails until the shared counter file reaches the threshold."""
    counter_path, fail_times, value = arg
    with open(counter_path, "a") as fh:
        fh.write("x")
    with open(counter_path) as fh:
        calls = len(fh.read())
    if calls <= fail_times:
        raise RuntimeError(f"transient failure #{calls}")
    return value * 10


def _always_fails(arg):
    raise RuntimeError("permanent failure")


def _hard_crash(arg):
    os._exit(13)  # kills the worker process outright (broken pool)


def _identity(arg):
    return arg


def _hang(arg):
    import time

    time.sleep(120)  # far beyond any test heartbeat; must be killed
    return arg


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


class TestRetry:
    def test_transient_failure_is_retried_parallel(self, tmp_path):
        counter = tmp_path / "calls"
        engine = ExperimentEngine(workers=2, retries=2)
        results = engine.map(_flaky, [(str(counter), 1, 5)])
        assert results == [50]

    def test_transient_failure_is_retried_serial(self, tmp_path):
        counter = tmp_path / "calls"
        inst = RunInstrumentation()
        engine = ExperimentEngine(workers=1, retries=2, instrument=inst)
        assert engine.map(_flaky, [(str(counter), 2, 7)]) == [70]
        assert inst.retries == 2

    def test_permanent_failure_exhausts_retries(self):
        engine = ExperimentEngine(workers=1, retries=1)
        with pytest.raises(PointExecutionError):
            engine.map(_always_fails, ["x"])

    def test_permanent_failure_exhausts_retries_parallel(self):
        engine = ExperimentEngine(workers=2, retries=1)
        with pytest.raises(PointExecutionError):
            engine.map(_always_fails, ["x"])

    def test_worker_crash_bounded(self):
        """A worker dying outright (broken pool) aborts after bounded
        pool rebuilds instead of looping forever."""
        engine = ExperimentEngine(workers=2, retries=1)
        with pytest.raises(PointExecutionError, match="crash"):
            engine.map(_hard_crash, ["x"])

    def test_healthy_items_survive_alongside_failures(self, tmp_path):
        engine = ExperimentEngine(workers=2, retries=3)
        results = engine.map(
            _flaky,
            [
                (str(tmp_path / "c1"), 1, 1),  # fails once, then succeeds
                (str(tmp_path / "c2"), 0, 2),
                (str(tmp_path / "c3"), 0, 3),
            ],
        )
        assert results == [10, 20, 30]

    def test_map_preserves_order(self):
        engine = ExperimentEngine(workers=2)
        items = list(range(12))
        assert engine.map(_identity, items) == items

    def test_retry_exhaustion_ticks_instrument(self):
        """Every retry of a doomed item is counted before the abort."""
        inst = RunInstrumentation()
        engine = ExperimentEngine(workers=1, retries=2, instrument=inst)
        with pytest.raises(PointExecutionError):
            engine.map(_always_fails, ["x"])
        assert inst.retries == 2

    def test_retry_backoff_sleeps_between_attempts(self, monkeypatch):
        import time as time_mod

        sleeps = []
        monkeypatch.setattr(time_mod, "sleep", sleeps.append)
        engine = ExperimentEngine(workers=1, retries=2, retry_backoff=0.1,
                                  quarantine=True)
        engine.map(_always_fails, ["x"])
        assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]  # exponential

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentEngine(heartbeat=0)
        with pytest.raises(ValueError):
            ExperimentEngine(retry_backoff=-1)


class TestQuarantine:
    def test_serial_poison_point_is_quarantined(self):
        engine = ExperimentEngine(workers=1, retries=1, quarantine=True)
        results = engine.map(_always_fails, ["x"])
        (q,) = results
        assert isinstance(q, QuarantinedPoint)
        assert q.index == 0 and q.attempts == 2
        assert "permanent failure" in q.error

    def test_parallel_poison_point_is_quarantined(self):
        engine = ExperimentEngine(workers=2, retries=1, quarantine=True)
        results = engine.map(_always_fails, ["a", "b"])
        assert all(isinstance(r, QuarantinedPoint) for r in results)
        assert [r.index for r in results] == [0, 1]

    def test_healthy_items_complete_around_poison(self, tmp_path):
        engine = ExperimentEngine(workers=2, retries=1, quarantine=True)
        results = engine.map(
            _flaky,
            [
                (str(tmp_path / "c1"), 0, 1),
                (str(tmp_path / "c2"), 99, 2),  # never recovers
                (str(tmp_path / "c3"), 0, 3),
            ],
        )
        assert results[0] == 10 and results[2] == 30
        assert isinstance(results[1], QuarantinedPoint)

    def test_quarantined_sweep_point_recorded_as_failed(self, tmp_path, monkeypatch):
        """End-to-end: a poison SweepPoint lands in the store as a
        failure record, the outcome carries the error, and the
        instrument counts it."""
        import repro.experiments.executor as executor_mod
        from repro.experiments.store import ResultStore

        def _boom(point):
            raise RuntimeError("sim exploded")

        monkeypatch.setattr(executor_mod, "run_point", _boom)
        store = ResultStore(tmp_path / "store.jsonl")
        inst = RunInstrumentation()
        engine = ExperimentEngine(
            workers=1, retries=0, quarantine=True, store=store, instrument=inst
        )
        point = SweepPoint("sc", 0.2, tiny_config(), seed=1)
        (outcome,) = engine.run([point])
        assert outcome.result is None
        assert "sim exploded" in outcome.failed
        assert inst.quarantined == 1
        assert store.get(point.key) is None  # failures never satisfy resume
        assert store.get_failed(point.key)["attempts"] == 1
        # A later healthy run supersedes the failure record.
        monkeypatch.undo()
        reloaded = ResultStore(tmp_path / "store.jsonl")
        assert reloaded.get_failed(point.key) is not None
        engine2 = ExperimentEngine(workers=1, store=reloaded)
        (ok,) = engine2.run([point])
        assert ok.result is not None and not ok.cached
        assert ResultStore(tmp_path / "store.jsonl").get_failed(point.key) is None


class TestHeartbeat:
    def test_hung_worker_is_killed_and_quarantined(self):
        engine = ExperimentEngine(
            workers=2, retries=0, quarantine=True, heartbeat=0.5
        )
        import time as time_mod

        start = time_mod.monotonic()
        results = engine.map(_hang, ["x"])
        elapsed = time_mod.monotonic() - start
        (q,) = results
        assert isinstance(q, QuarantinedPoint)
        assert "heartbeat" in q.error
        assert elapsed < 60  # the 120 s sleep was killed, not awaited

    def test_heartbeat_does_not_disturb_healthy_runs(self):
        engine = ExperimentEngine(workers=2, heartbeat=30.0)
        assert engine.map(_identity, list(range(6))) == list(range(6))

    def test_hang_without_quarantine_aborts_bounded(self):
        engine = ExperimentEngine(workers=2, retries=0, heartbeat=0.5)
        with pytest.raises(PointExecutionError, match="heartbeat"):
            engine.map(_hang, ["x"])
