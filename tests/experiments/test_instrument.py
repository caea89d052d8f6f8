"""Tests for the run-instrumentation layer."""

import json

from repro.experiments.instrument import (
    PointRecord,
    ProgressEvent,
    RunInstrumentation,
)


def _fill(inst: RunInstrumentation, n: int = 3) -> None:
    inst.begin(n)
    for i in range(n):
        inst.point_done(f"p{i}", wall_time=0.5, n_requests=1000)


class TestAccounting:
    def test_executed_and_skipped(self):
        inst = RunInstrumentation()
        inst.begin(3)
        inst.point_done("a", 0.5, 1000)
        inst.point_done("b", 0.0, 1000, cached=True)
        inst.point_done("c", 0.25, 500)
        assert inst.total == 3
        assert inst.executed == 2
        assert inst.skipped == 1
        assert inst.total_requests == 1500
        assert inst.busy_time == 0.75

    def test_begin_accumulates_across_sweeps(self):
        # Figure 3 issues one sweep per alpha through the same engine.
        inst = RunInstrumentation()
        inst.begin(4)
        inst.begin(6)
        assert inst.total == 10


class TestTimings:
    def test_finished_at_monotone(self):
        inst = RunInstrumentation()
        _fill(inst, 5)
        stamps = [r.finished_at for r in inst.records]
        assert stamps == sorted(stamps)
        assert all(s >= 0 for s in stamps)

    def test_elapsed_covers_all_completions(self):
        inst = RunInstrumentation()
        _fill(inst)
        assert inst.elapsed >= max(r.finished_at for r in inst.records)

    def test_requests_per_sec(self):
        record = PointRecord("p", wall_time=2.0, n_requests=1000,
                             cached=False, finished_at=2.0)
        assert record.requests_per_sec == 500.0
        cached = PointRecord("p", wall_time=0.0, n_requests=1000,
                             cached=True, finished_at=0.0)
        assert cached.requests_per_sec == 0.0

    def test_worker_utilization_bounds(self):
        inst = RunInstrumentation()
        _fill(inst)
        for workers in (1, 2, 8):
            util = inst.worker_utilization(workers)
            assert 0.0 <= util <= 1.0
        # More workers can only dilute utilization of the same busy time.
        assert inst.worker_utilization(8) <= inst.worker_utilization(1)
        assert inst.worker_utilization(0) == 0.0


class TestProgress:
    def test_events_reach_callback_in_order(self):
        events: list[ProgressEvent] = []
        inst = RunInstrumentation(progress=events.append)
        inst.begin(3)
        inst.point_done("a", 0.5, 100)
        inst.point_done("b", 0.0, 100, cached=True)
        inst.point_done("c", 0.5, 100)
        assert [e.done for e in events] == [1, 2, 3]
        assert all(e.total == 3 for e in events)
        assert [e.cached for e in events] == [False, True, False]
        assert events[0].label == "a"


class TestSummary:
    def test_summary_fields(self):
        inst = RunInstrumentation()
        _fill(inst)
        summary = inst.summary(workers=2)
        assert summary["total_points"] == 3
        assert summary["executed"] == 3
        assert summary["skipped"] == 0
        assert summary["workers"] == 2
        assert summary["total_requests"] == 3000
        assert len(summary["points"]) == 3

    def test_write_valid_json(self, tmp_path):
        inst = RunInstrumentation()
        _fill(inst)
        path = tmp_path / "instrumentation.json"
        inst.write(path, workers=4)
        loaded = json.loads(path.read_text())
        assert loaded["workers"] == 4
        assert loaded["executed"] == 3
