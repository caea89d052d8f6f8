"""What-if engine tests: exactness, approximation behaviour, refusals.

The two halves of the :mod:`repro.protocol.whatif` contract:

* **identity is exact** — re-judging a recording under the plan's own
  policies reproduces the recorded :class:`~repro.core.metrics.
  SchemeResult` byte for byte, including recordings made under a
  *non-default* policy set;
* **modified policies are honest approximations** — they change events,
  preserve the request count, draw deterministically from the seeded
  extension substream when probing past the recording, and are refused
  outright when the trace cannot support them (warmup-window
  recordings).
"""

import dataclasses
import json

import pytest

from repro.core.config import SimulationConfig
from repro.experiments.robustness import robustness_plan
from repro.faults import FaultPlan
from repro.faults.run import run_scheme_with_faults
from repro.protocol import (
    PolicySet,
    RetryPolicy,
    TraceIncompleteError,
    WhatIfError,
    recording_traces,
    whatif_trace,
)
from repro.workload import ProWGenConfig

TINY = ProWGenConfig(n_requests=3000, n_objects=300, n_clients=10)

PLAN = FaultPlan(
    p2p_loss=0.2,
    proxy_loss=0.2,
    push_loss=0.2,
    delay_rate=0.1,
    unresponsive_fraction=0.1,
    seed=7,
)

HEDGED_PLAN = dataclasses.replace(
    PLAN, policies=PolicySet(default=RetryPolicy(strategy="hedged"))
)


def cfg(**kw):
    kw.setdefault("n_proxies", 2)
    kw.setdefault("proxy_cache_fraction", 0.3)
    return SimulationConfig(workload=TINY, **kw)


def _record(directory, plan, scheme="hier-gd"):
    with recording_traces(directory) as recorder:
        result = run_scheme_with_faults(scheme, cfg(), plan=plan, seed=0)
    return recorder.written[-1], result


@pytest.fixture(scope="module")
def faulty_trace(tmp_path_factory):
    """One recorded faulty hier-gd run under the default ladder."""
    return _record(tmp_path_factory.mktemp("traces"), PLAN)


IDENTITY_PLANS = {"zero": FaultPlan(), "robustness-0.1": robustness_plan(0.1)}


class TestIdentity:
    @pytest.mark.parametrize("plan", IDENTITY_PLANS)
    @pytest.mark.parametrize("scheme", ["fc", "fc-ec", "hier-gd", "squirrel"])
    def test_identity_is_byte_identical(self, scheme, plan, tmp_path):
        path, result = _record(tmp_path, IDENTITY_PLANS[plan], scheme)
        report = whatif_trace(path)
        assert report.identity and report.identical
        assert report.n_changed == report.n_flips == 0
        assert report.extension_draws == 0
        if plan != "zero":
            assert report.n_ladders > 0  # the check is not vacuous
        assert dataclasses.asdict(report.result) == dataclasses.asdict(result)

    def test_identity_under_a_non_default_recorded_policy(self, tmp_path):
        # A trace recorded under hedged policies: its own policy set is
        # the identity, and the default ladder is *not*.
        path, result = _record(tmp_path, HEDGED_PLAN)
        report = whatif_trace(path)
        assert report.identity and report.identical
        assert dataclasses.asdict(report.result) == dataclasses.asdict(result)

        as_default = whatif_trace(path, PolicySet())
        assert not as_default.identity
        assert as_default.n_changed > 0
        # Hedged charges max-not-sum on exhaustion, so the default
        # ladder can only cost more on this fixed stream.
        assert as_default.result.total_latency >= result.total_latency

    def test_explicit_identity_policies_count_as_identity(self, faulty_trace):
        path, _ = faulty_trace
        report = whatif_trace(path, PolicySet())
        assert report.identity and report.identical


class TestModifiedPolicies:
    def test_immediate_changes_events_and_preserves_requests(self, faulty_trace):
        path, result = faulty_trace
        report = whatif_trace(path, RetryPolicy(strategy="immediate"))
        assert not report.identity and not report.identical
        assert report.n_changed > 0
        # SchemeResult validates tier_counts sum == n_requests, so a
        # successful construction already proves no request was lost.
        assert report.result.n_requests == result.n_requests
        assert report.n_flips >= report.unattributed_flips

    def test_policy_argument_coercion(self, faulty_trace):
        path, _ = faulty_trace
        bare = whatif_trace(path, RetryPolicy(strategy="immediate"))
        mapped = whatif_trace(
            path, {"default": {"strategy": "immediate"}, "per_link": {}}
        )
        assert dataclasses.asdict(bare.result) == dataclasses.asdict(mapped.result)
        with pytest.raises(TypeError):
            whatif_trace(path, policies=42)

    def test_raised_retry_budget_uses_the_extension_substream(self, faulty_trace):
        path, _ = faulty_trace
        first = whatif_trace(path, RetryPolicy(max_retries=5))
        again = whatif_trace(path, RetryPolicy(max_retries=5))
        assert first.extension_draws > 0  # probed past recorded exhaustions
        assert dataclasses.asdict(first.result) == dataclasses.asdict(again.result)

    def test_hedged_never_costs_more_than_the_recording(self, faulty_trace):
        path, result = faulty_trace
        report = whatif_trace(path, RetryPolicy(strategy="hedged"))
        assert report.result.total_latency <= result.total_latency + 1e-9


class TestRefusals:
    def test_warmup_recordings_refuse_modified_policies(self, faulty_trace, tmp_path):
        src, _ = faulty_trace
        lines = src.read_text(encoding="utf-8").splitlines()
        head = json.loads(lines[0])
        head["config"]["warmup_fraction"] = 0.5
        warm = tmp_path / "warm.jsonl"
        warm.write_text("\n".join([json.dumps(head), *lines[1:]]) + "\n",
                        encoding="utf-8")
        with pytest.raises(WhatIfError, match="warmup"):
            whatif_trace(warm, RetryPolicy(strategy="immediate"))
        assert whatif_trace(warm).identical  # identity stays exact

    def test_incomplete_traces_are_refused(self, faulty_trace, tmp_path):
        src, _ = faulty_trace
        lines = src.read_text(encoding="utf-8").splitlines()
        crashed = tmp_path / "crashed.jsonl"
        crashed.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(TraceIncompleteError):
            whatif_trace(crashed)
