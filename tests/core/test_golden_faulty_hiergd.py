"""Pin faulty and churning Hier-GD: result and exchange-trace digests per cell.

``GOLDEN_faulty_hiergd.json`` was written by the protocol-chain engine
(``core/hiergd.py`` + ``protocol/chain.py`` as they stood before Hier-GD
had one engine), so whatever serves these runs is held to the chain's
bytes, not to run-to-run determinism of its own code.  Two families:

* **recorded faulty cells** — {exact, bloom} x {unit, heavy-tailed sizes}
  x {gd, lru, lfu} x {loss, stale, unresponsive, churn, composite}, plus
  a few mechanism toggles under the composite plan.  Their keys end in
  ``-sync`` from when every cell also ran on a second, async execution
  path (retired; its cells equalled these byte for byte).
  Each is run through :func:`run_scheme_with_faults` inside
  :func:`recording_traces`; the cell pins the SHA-256 of the serialized
  result and of the trace's *event lines* (header and footer carry the
  config and the result, which are pinned separately or not at all — a
  new config field must not move this golden).  Replayed from its own
  trace, each also re-derives its golden result;
* **plain churn runs** — :class:`HierGdScheme` given a schedule of
  explicit fail / join events and no fault plan (reported as
  ``hier-gd-churn``): the non-faulty repair path, where an eviction
  notice's reachability probe repairs like a lookup and the entry is
  then removed a second time (ROADMAP item 1(a) — pinned as it is, Bloom
  cells included).  Result digest only.

Refresh — only after an *intentional* behaviour change — with
``PYTHONPATH=src python -m tests.core.test_golden_faulty_hiergd``.
"""

import dataclasses
import hashlib
import json
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core.churn import ChurnEvent
from repro.core.config import SimulationConfig
from repro.core.hiergd import HierGdScheme
from repro.experiments.robustness import robustness_plan
from repro.faults import FaultPlan
from repro.faults.run import run_scheme_with_faults
from repro.protocol.replay import replay_trace
from repro.protocol.trace import recording_traces
from repro.workload import ProWGenConfig, generate_cluster_traces
from tests.shard.test_golden_shards import result_sha

GOLDEN = Path(__file__).with_name("GOLDEN_faulty_hiergd.json")

N_PROXIES = 3
WORKLOADS = {
    "unit": ProWGenConfig(n_requests=2000, n_objects=300, n_clients=16),
}
WORKLOADS["sized"] = dataclasses.replace(WORKLOADS["unit"], object_sizes="heavy-tailed")

PLANS = {
    "loss": FaultPlan(p2p_loss=0.2, proxy_loss=0.2, push_loss=0.2, seed=5),
    "stale": FaultPlan(stale_rate=0.3, seed=5),
    "unresponsive": FaultPlan(unresponsive_fraction=0.3, seed=5),
    "churn": FaultPlan(churn_rate=0.004, seed=5),
    "composite": robustness_plan(0.1, seed=0),
}

#: Mechanism toggles, each run under the composite plan.
TOGGLES = {
    "replicas2": {"p2p_replicas": 2},
    "no-diversion": {"object_diversion": False, "piggyback": False},
    "no-promote": {"promote_on_p2p_hit": False},
    "chord": {"overlay": "chord"},
    "gd-credit": {"gd_cost_model": "gd"},
    "no-clients": {"client_cache_fraction": 0.0},
}

#: Explicit schedules for the plain churn runs (3 clusters x 16 clients).
EVENTS = [
    ChurnEvent(at_request=600, kind="fail", cluster=0, client=3),
    ChurnEvent(at_request=900, kind="join", cluster=1),
    ChurnEvent(at_request=1500, kind="fail", cluster=1, client=7),
    ChurnEvent(at_request=2400, kind="fail", cluster=0, client=11),
    ChurnEvent(at_request=2401, kind="join", cluster=0),
    ChurnEvent(at_request=3300, kind="fail", cluster=2, client=0),
    ChurnEvent(at_request=4200, kind="join", cluster=2),
    ChurnEvent(at_request=4800, kind="fail", cluster=1, client=16),  # the newcomer
]


def golden_config(directory, sizes, policy, **overrides) -> SimulationConfig:
    # Client caches of a handful of objects under a small proxy: the P2P
    # tier is busy, diverts, evicts and (sized) rejects oversize objects.
    overrides.setdefault("client_cache_fraction", 0.01 if sizes == "unit" else 0.005)
    return SimulationConfig(
        workload=WORKLOADS[sizes],
        n_proxies=N_PROXIES,
        proxy_cache_fraction=0.2,
        directory=directory,
        bloom_fp_rate=0.05,
        hiergd_policy=policy,
        leaf_set_size=4,
        chord_successors=4,
        hop_sample_rate=8,
        **overrides,
    )


@lru_cache(maxsize=None)
def traces_for(sizes):
    return generate_cluster_traces(WORKLOADS[sizes], N_PROXIES, seed=0)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(directory, sizes, policy, plan, **overrides):
    """One recorded faulty run: its result and its trace's lines."""
    config = golden_config(directory, sizes, policy, **overrides)
    with tempfile.TemporaryDirectory() as tmp, recording_traces(tmp) as recorder:
        result = run_scheme_with_faults(
            "hier-gd", config, traces_for(sizes), PLANS[plan], seed=0
        )
        lines = recorder.written[0].read_text(encoding="utf-8").splitlines(keepends=True)
    return result, lines


def faulty_cell(directory, sizes, policy, plan, **overrides):
    result, lines = record(directory, sizes, policy, plan, **overrides)
    assert json.loads(lines[-1])["complete"]
    return {"result": result_sha(result), "trace": sha("".join(lines[1:-1]))}


def churn_cell(directory, sizes, policy, **overrides):
    config = golden_config(directory, sizes, policy, **overrides)
    result = HierGdScheme(config, traces_for(sizes), events=EVENTS).run()
    return {"result": result_sha(result)}


CASES = {
    f"{directory}-{sizes}-{policy}-{plan}-sync": (
        faulty_cell, (directory, sizes, policy, plan), {}
    )
    for directory in ("exact", "bloom")
    for sizes in ("unit", "sized")
    for policy in ("gd", "lru", "lfu")
    for plan in PLANS
}
CASES.update(
    {
        f"{directory}-{sizes}-gd-composite-sync-{toggle}": (
            faulty_cell, (directory, sizes, "gd", "composite"), overrides
        )
        for directory in ("exact", "bloom")
        for sizes in ("unit", "sized")
        for toggle, overrides in TOGGLES.items()
    }
)
CASES.update(
    {
        f"plain-churn-{directory}-{sizes}-{policy}": (
            churn_cell, (directory, sizes, policy), {}
        )
        for directory in ("exact", "bloom")
        for sizes in ("unit", "sized")
        for policy in ("gd", "lru", "lfu")
    }
)
CASES.update(
    {
        f"plain-churn-{directory}-unit-gd-{toggle}": (
            churn_cell, (directory, "unit", "gd"), TOGGLES[toggle]
        )
        for directory in ("exact", "bloom")
        for toggle in ("replicas2", "no-diversion", "chord")
    }
)


def _cell(case: str) -> dict[str, str]:
    run, args, overrides = CASES[case]
    return run(*args, **overrides)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_cell_matches_golden(case, golden):
    assert _cell(case) == golden[case]


RECORDED = sorted(case for case, (run, _, _) in CASES.items() if run is faulty_cell)


@pytest.mark.parametrize("case", RECORDED)
def test_recorded_cell_replays_to_its_golden(case, golden, tmp_path):
    """The replay carrier re-drives a recorded cell from its own trace —
    the recorded outcomes in place of the fault ladder's draws — back to
    the golden result, with no event left over."""
    _, args, overrides = CASES[case]
    _, lines = record(*args, **overrides)
    path = tmp_path / "cell.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    report = replay_trace(path)
    assert report.divergence is None and report.identical
    assert report.events_replayed == report.n_events > 0
    assert result_sha(report.result) == golden[case]["result"]


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


def test_cells_exercise_what_they_pin():
    """The composite cells lose messages, drop notices, hit unresponsive
    holders and change membership; the plain churn runs repair entries."""
    config = golden_config("bloom", "unit", "gd")
    faulty = run_scheme_with_faults(
        "hier-gd", config, traces_for("unit"), PLANS["composite"], seed=0
    ).messages
    for counter in ("timeouts", "fallbacks", "failed_pushes", "dropped_eviction_notices",
                    "client_failures", "client_joins", "directory_repairs",
                    "diversions", "client_evictions"):
        assert faulty[counter] > 0, counter
    plain = HierGdScheme(config, traces_for("unit"), events=EVENTS).run().messages
    assert plain["client_failures"] == 5 and plain["client_joins"] == 3
    assert plain["objects_lost"] > 0 and plain["directory_repairs"] > 0


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case: _cell(case) for case in sorted(CASES)}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN} ({len(CASES)} cells)")
