"""Deterministic guards on Hier-GD's request path: frames and exchanges.

The ledger's 20 % bound would let a 12 % slip through, and needs a quiet
host; these count instead of timing:

* a proxy hit — ~3 of every 4 requests — of a *recorded faulty* run (the
  ``hiergd_faults`` shape: composite plan, Bloom directory, async
  backend) enters at most two Python frames below the simulator's
  ``map``: the recording layer's request counter and the engine's
  ``process``.  A wrapper frame per request, or a greedy-dual hit that
  is a method call again, fails here;
* a fault-free run on an exact directory, unit or sized, enters no
  ``_size_of`` / ``PresenceIndex.add`` / ``PresenceIndex.discard`` frame
  and asks ``_locate`` only about objects ``p2p_present`` lists: the
  request path that serves every run answers those from the state's
  indexes, not per request;
* a fault-free run asks the transport for nothing it did not ask for
  before the engine took the faulty runs: no exchange at all on an exact
  directory, and on a Bloom directory only the push protocol's scan —
  one ``PUSH`` per request it ends up serving.
"""

import dataclasses
import sys
from collections import Counter

import pytest

from repro.core.hiergd import HierGdScheme
from repro.core.presence import PresenceIndex
from repro.core.run import generate_workloads, run_scheme
from repro.core.simulator import CachingScheme
from repro.experiments.robustness import robustness_plan
from repro.experiments.runner import base_config
from repro.faults.run import run_scheme_with_faults
from repro.netmodel import TIER_COOP_P2P, TIER_LOCAL_PROXY
from repro.protocol.trace import recording_traces
from repro.protocol.transport import Transport


def guard_config(sizes="unit", **overrides):
    cfg = base_config()
    wl = dataclasses.replace(
        cfg.workload, n_requests=3_000, n_objects=300, n_clients=16
    )
    if sizes == "sized":
        wl = dataclasses.replace(wl, object_sizes="heavy-tailed")
    overrides = {"proxy_cache_fraction": 0.2, "client_cache_fraction": 0.01, **overrides}
    return dataclasses.replace(cfg, workload=wl, n_proxies=3, **overrides)


def test_recorded_faulty_proxy_hit_enters_two_frames(monkeypatch, tmp_path):
    config = guard_config(directory="bloom")
    traces = generate_workloads(config, seed=0)
    plan = robustness_plan(0.1)
    #: Python frames entered per request, by the tier that served it.
    frames = {}
    run = CachingScheme.run

    def profiled_run(scheme):
        per_request = scheme.process.__code__  # outermost frame under ``map``
        depth = entered = 0

        def profile(frame, event, arg):
            nonlocal depth, entered
            if event == "call":
                if depth or frame.f_code is per_request:
                    depth += 1
                    entered += 1
            elif event == "return" and depth:
                depth -= 1
                if not depth:
                    frames.setdefault(arg, Counter())[entered] += 1
                    entered = 0

        sys.setprofile(profile)
        try:
            return run(scheme)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(CachingScheme, "run", profiled_run)
    with recording_traces(tmp_path) as recorder:
        result = run_scheme_with_faults(
            "hier-gd", config, traces, plan, seed=0, backend="async"
        )
    assert recorder.written and result.messages["timeouts"] > 0

    hits = frames[TIER_LOCAL_PROXY]
    assert sum(hits.values()) == result.tier_counts[TIER_LOCAL_PROXY] > 1_000
    # Only a request that first fires membership events enters more.
    events = result.messages["client_failures"] + result.messages["client_joins"]
    assert events > 0
    assert sum(n for entered, n in hits.items() if entered > 2) <= events
    assert hits[2] >= sum(hits.values()) - events
    # Misses do real work: the guard is not vacuous.
    assert min(min(c) for tier, c in frames.items() if tier != TIER_LOCAL_PROXY) > 2


@pytest.mark.parametrize("sizes", ["unit", "sized"])
def test_fault_free_run_answers_from_the_state_indexes(sizes, monkeypatch):
    """One request path serves unit and sized runs alike, so it must not
    pay per request for what the state already indexes: sizes are read
    inline, the presence indexes are updated inline, and ``_locate`` is
    asked only about objects ``p2p_present`` lists (where a fixed
    membership makes it the set of what ``_locate`` can find)."""
    counted = {
        CachingScheme._size_of.__code__: "_size_of",
        PresenceIndex.add.__code__: "PresenceIndex.add",
        PresenceIndex.discard.__code__: "PresenceIndex.discard",
    }
    locate = HierGdScheme._locate.__code__
    entered = Counter()
    run = CachingScheme.run

    def profiled_run(scheme):
        def profile(frame, event, arg):
            if event != "call":
                return
            code = frame.f_code
            if code is locate:
                state, obj = frame.f_locals["state"], frame.f_locals["obj"]
                entered["_locate" if obj in state.p2p_present else "unlisted"] += 1
            elif code in counted:
                entered[counted[code]] += 1

        sys.setprofile(profile)
        try:
            return run(scheme)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(CachingScheme, "run", profiled_run)
    result = run_scheme("hier-gd", guard_config(sizes, directory="exact"), seed=0)
    for counter in ("client_evictions", "diversions", "p2p_lookups", "push_requests"):
        assert result.messages[counter] > 0, counter
    # Diverted objects are found through ``_locate``: the guard bites.
    assert entered.pop("_locate") > 0
    assert not entered


@pytest.mark.parametrize("sizes", ["unit", "sized"])
@pytest.mark.parametrize("directory", ["exact", "bloom"])
def test_fault_free_run_asks_the_transport_for_no_new_exchange(
    directory, sizes, monkeypatch
):
    attempts = Counter()
    attempt = Transport.attempt

    def counted(self, exchange, force_fail=False):
        attempts[exchange.kind] += 1
        return attempt(self, exchange, force_fail)

    monkeypatch.setattr(Transport, "attempt", counted)
    config = guard_config(sizes, directory=directory)
    result = run_scheme("hier-gd", config, seed=0)
    pushed = result.tier_counts[TIER_COOP_P2P]
    assert pushed > 0 and result.messages["p2p_lookups"] > 0
    if directory == "exact":
        assert not attempts
    else:
        # The scan asks one PUSH per holder it finds, the first answers.
        assert attempts == {"push": pushed}
