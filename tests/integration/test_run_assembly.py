"""Every entry point builds the same scheme for the same ``(name, plan)``.

A run is simulated (``run_scheme`` / ``run_scheme_with_faults``),
replayed from its recording (``replay_trace``) or driven against live
daemons (``drive_scheme``); a replay or a live trace is only comparable
to the simulation if all of them constructed the same scheme class, on
the same Hier-GD engine, reporting under the same name.
"""

import pytest

from repro.core.churn import HierGdChurnScheme
from repro.core.config import SimulationConfig
from repro.core.run import run_scheme
from repro.core.schemes import SCHEME_REGISTRY
from repro.core.simulator import CachingScheme
from repro.daemon import LocalCluster, drive_scheme
from repro.faults import NO_FAULTS, FaultPlan, run_scheme_with_faults
from repro.protocol import recording_traces, replay_trace
from repro.workload import ProWGenConfig

CONFIG = SimulationConfig(
    workload=ProWGenConfig(n_requests=600, n_objects=120, n_clients=8),
    n_proxies=2,
    proxy_cache_fraction=0.3,
)

PLANS = {
    "none": None,
    "zero": NO_FAULTS,
    "active": FaultPlan(
        p2p_loss=0.1, proxy_loss=0.1, push_loss=0.1, stale_rate=0.05,
        unresponsive_fraction=0.1, churn_rate=2e-3, seed=7,
    ),
}

#: Schemes an active plan changes; ``nc`` stands for those it does not.
FAULTABLE = {"fc", "fc-ec", "squirrel", "hier-gd"}


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(n_clients=1) as running:
        yield running


@pytest.fixture
def built(monkeypatch):
    """``(class, indexed, reported name)`` of every scheme that runs."""
    seen = []
    run = CachingScheme.run

    def spy(self):
        seen.append((type(self), getattr(self, "indexed", None), self.name))
        return run(self)

    monkeypatch.setattr(CachingScheme, "run", spy)
    return seen


@pytest.mark.parametrize("plan_kind", list(PLANS))
@pytest.mark.parametrize("name", ["nc", "fc", "fc-ec", "squirrel", "hier-gd"])
def test_all_entry_points_build_the_same_scheme(name, plan_kind, built, cluster, tmp_path):
    plan = PLANS[plan_kind]
    bites = plan_kind == "active" and name in FAULTABLE
    with recording_traces(tmp_path) as recorder:
        run_scheme_with_faults(name, CONFIG, plan=plan, seed=1)
    replay_trace(recorder.written[0])
    drive_scheme(name, CONFIG, routes=cluster.routes, plan=plan, seed=1)
    if not bites:
        run_scheme(name, CONFIG, seed=1)

    if name != "hier-gd":
        expected = (SCHEME_REGISTRY[name], None, name)
    elif bites:
        expected = (HierGdChurnScheme, False, "hier-gd")
    else:
        expected = (SCHEME_REGISTRY[name], True, "hier-gd")
    assert built == [expected] * len(built) and len(built) >= 3
