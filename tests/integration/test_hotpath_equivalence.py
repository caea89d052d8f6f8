"""Engine equivalence: every indexed path against its scan-everything partner.

The indexed paths (presence indexes, precomputed DHT placement, fused
cache operations) must not change any simulated result.  Each scheme is
run twice on the same traces, once as the registry builds it and once as
its *partner*, and the two :class:`SchemeResult`\\ s must be identical —
same request count, tier counts, total latency and protocol messages,
and the same extras except, on unit-size rows, ``mean_pastry_hops``:

* **Hier-GD** — the one engine (``repro.core.hiergd``), over
  every set of indexes its state can hold, against the naive protocol
  chain of ``chain_model.py``: fault-free rows, rows under fault plans
  (the exchange sequence the two ask of the transport compared too) and
  rows under churn events, unit and sized.  The chain resolves and
  routes keys on first touch; a unit-size fault-free run routes a
  sampled subset of a precomputed table, so that one statistic may
  differ there, while every other run resolves on first touch too and
  must match it (those rows compare the hop extra as well, and hold the
  finished scheme to ``check_invariants``);
* **SC / SC-EC** — SC's presence index and SC-EC's friend-access scan
  against the naive models below, which probe every cooperating cache
  through its public API in ascending order on every miss and count
  each probe (``coop_probes`` is compared with the other messages);
* **FC / FC-EC** — the copy store read inline against its literal model
  (``tests/models/fc_store.py``: a scanned dict, values recomputed from
  the traces);
* **Squirrel** — the precomputed home table against ``overlay.owner_of``
  per object;
* the remaining schemes have one path; their partner is a second run.

Every scheme runs unit and sized.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.cache import CLIENT_TIER, PROXY_TIER
from repro.core.churn import ChurnEvent
from repro.core.hiergd import HierGdScheme
from repro.core.run import SCHEME_REGISTRY, build_scheme, generate_workloads
from repro.core.schemes import ScEcScheme, ScScheme, SquirrelScheme
from repro.experiments.robustness import robustness_plan
from repro.experiments.runner import base_config
from repro.faults import FaultPlan
from repro.protocol.transport import FaultTransport, Transport
from repro.netmodel import (
    TIER_COOP_P2P,
    TIER_COOP_PROXY,
    TIER_LOCAL_P2P,
    TIER_LOCAL_PROXY,
    TIER_SERVER,
)
from repro.workload import object_url
from tests.core.test_hiergd import check_invariants, check_presence_indexes
from tests.integration.chain_model import ChainHierGd, ChurnWithoutRepair
from tests.models.fc_store import NaiveFc, NaiveFcEc
from tests.protocol.test_stack import Spy


class NaiveSc(ScScheme):
    def process(self, cluster, client, obj):
        if self.caches[cluster].lookup(obj):
            return TIER_LOCAL_PROXY
        tier = TIER_SERVER
        for other, remote in enumerate(self.caches):
            if other != cluster:
                self._probes += 1
                if remote.contains(obj):  # a probe is not a reference
                    tier = TIER_COOP_PROXY
                    self._coop_fetches += 1
                    break
        self.caches[cluster].insert(obj, size=self._size_of(obj))
        return tier


class NaiveScEc(ScEcScheme):
    def process(self, cluster, client, obj):
        tier = self.caches[cluster].lookup_tier(obj)
        if tier is not None:
            return TIER_LOCAL_PROXY if tier == PROXY_TIER else TIER_LOCAL_P2P
        served = TIER_SERVER
        for other, remote in enumerate(self.caches):
            if other == cluster:
                continue
            self._probes += 1
            remote_tier = remote.tier_of(obj)
            if remote_tier == PROXY_TIER:
                served = TIER_COOP_PROXY
                break
            if remote_tier == CLIENT_TIER:
                served = TIER_COOP_P2P  # keep scanning: a proxy copy is cheaper
        self._coop_fetches += served != TIER_SERVER
        self._pushes += served == TIER_COOP_P2P
        self.caches[cluster].insert(obj, size=self._size_of(obj))
        return served


def chain_hier_gd(config, traces):
    cls = ChurnWithoutRepair if config.directory == "bloom" else ChainHierGd
    return cls(config, traces)


PARTNERS = {
    "sc": NaiveSc, "sc-ec": NaiveScEc, "fc": NaiveFc, "fc-ec": NaiveFcEc,
    "hier-gd": chain_hier_gd,
}

#: What the chain model, a churn scheme, reports on top of plain Hier-GD.
CHURN_ONLY = ("client_failures", "client_joins", "objects_lost",
              "directory_repairs", "live_clients")


def small_config(**overrides):
    cfg = base_config()
    wl = dataclasses.replace(
        cfg.workload, n_requests=8_000, n_objects=600, n_clients=30
    )
    return dataclasses.replace(cfg, workload=wl, n_proxies=3, **overrides)


def assert_equivalent(name, config, hops=False):
    """``hops``: whether ``mean_pastry_hops`` must match too.  Returns
    the finished registry-built scheme."""
    traces = generate_workloads(config, seed=0)
    scheme = SCHEME_REGISTRY[name](config, traces)
    indexed = scheme.run()
    partner = PARTNERS.get(name, SCHEME_REGISTRY[name])(config, traces).run()
    assert indexed.n_requests == partner.n_requests
    assert indexed.tier_counts == partner.tier_counts
    assert indexed.total_latency == partner.total_latency
    strip = lambda d: {
        k: v for k, v in d.items()
        if (hops or k != "mean_pastry_hops") and k not in CHURN_ONLY
    }
    assert indexed.messages == strip(partner.messages)
    assert strip(indexed.extras) == strip(partner.extras)
    return scheme


@pytest.mark.parametrize("sizes", ["unit", "sized"])
@pytest.mark.parametrize("name", list(SCHEME_REGISTRY))
def test_all_schemes_equivalent(name, sizes):
    scheme = assert_equivalent(name, general_config(sizes) if sizes == "sized" else small_config())
    messages = scheme.finalize()[0]
    for counter in ("coop_probes", "coop_fetches", "push_requests", "placement_updates"):
        if counter in messages:
            assert messages[counter] > 0, counter  # the row exercises its path


def test_hier_gd_bloom_directory_equivalent():
    # Bloom false positives are modelled behaviour: the indexed engine
    # must reproduce them (and their wasted-round latency) exactly.
    assert_equivalent("hier-gd", small_config(directory="bloom"))


@pytest.mark.parametrize("policy", ["lru", "lfu"])
def test_hier_gd_alt_policies_equivalent(policy):
    # LRU/LFU caches take ``Cache.insert_absent``'s default, their
    # general insert; it must stay equivalent too.
    assert_equivalent("hier-gd", small_config(hiergd_policy=policy))


def test_hier_gd_replication_equivalent():
    assert_equivalent("hier-gd", small_config(p2p_replicas=2))


def test_hier_gd_no_diversion_no_piggyback_equivalent():
    assert_equivalent(
        "hier-gd", small_config(object_diversion=False, piggyback=False)
    )


def test_hier_gd_no_promotion_equivalent():
    assert_equivalent("hier-gd", small_config(promote_on_p2p_hit=False))


def general_config(sizes="unit", **overrides):
    """Small client caches under a small proxy: the P2P tier diverts,
    evicts and (sized) rejects, so stale entries and repairs happen."""
    if sizes == "unit":
        return small_config(
            **{"client_cache_fraction": 0.01, "proxy_cache_fraction": 0.2, **overrides}
        )
    config = small_config(
        **{"client_cache_fraction": 0.005, "proxy_cache_fraction": 0.2, **overrides}
    )
    return dataclasses.replace(
        config,
        workload=dataclasses.replace(config.workload, object_sizes="heavy-tailed"),
    )


def assert_sized_equivalent(**overrides):
    config = general_config("sized", **overrides)
    scheme = assert_equivalent("hier-gd", config, hops=True)
    assert "mean_pastry_hops" in scheme.finalize()[1]
    check_invariants(scheme)
    return scheme


@pytest.mark.parametrize("policy", ["gd", "lru", "lfu"])
@pytest.mark.parametrize("directory", ["exact", "bloom"])
@pytest.mark.parametrize("cost_model", ["gds", "gd"])
def test_hier_gd_sized_equivalent(cost_model, directory, policy):
    scheme = assert_sized_equivalent(
        gd_cost_model=cost_model, directory=directory, hiergd_policy=policy
    )
    # The rows are only worth their name if the P2P tier is busy and
    # sizes bite: some objects are larger than a whole client cache.
    assert scheme.sizes.max() > scheme.sizings[0].client_size > scheme.sizes.min()
    for counter in ("diversions", "client_evictions", "p2p_lookups", "push_requests"):
        assert scheme._msg[counter] > 500, counter


@pytest.mark.parametrize(
    "overrides",
    [
        {"p2p_replicas": 2},
        {"object_diversion": False},
        {"client_cache_fraction": 0.0},
        {"promote_on_p2p_hit": False, "gd_cost_model": "gd"},
    ],
    ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
)
def test_hier_gd_sized_mechanism_toggles_equivalent(overrides):
    assert_sized_equivalent(**overrides)


# -- under fault plans and churn events: the general functions ---------------

FAULT_PLANS = {
    "loss+delay": FaultPlan(
        p2p_loss=0.2, proxy_loss=0.2, push_loss=0.2, delay_rate=0.2, seed=3
    ),
    "stale+unresponsive": FaultPlan(stale_rate=0.3, unresponsive_fraction=0.3, seed=3),
    "churn": FaultPlan(churn_rate=0.002, seed=3),
    "composite": robustness_plan(0.1),
}

#: An explicit schedule for 3 clusters x 30 clients x 8 000 requests.
EVENTS = [
    ChurnEvent(at_request=0, kind="fail", cluster=2, client=29),
    ChurnEvent(at_request=3_000, kind="fail", cluster=0, client=4),
    ChurnEvent(at_request=5_000, kind="join", cluster=1),
    ChurnEvent(at_request=9_000, kind="fail", cluster=1, client=17),
    ChurnEvent(at_request=9_001, kind="join", cluster=0),
    ChurnEvent(at_request=14_000, kind="fail", cluster=0, client=12),
    ChurnEvent(at_request=17_000, kind="join", cluster=2),
    ChurnEvent(at_request=20_000, kind="fail", cluster=1, client=30),  # the newcomer
]


def assert_faulty_equivalent(config, plan):
    """The registry's faulty Hier-GD against the chain under the same
    plan and membership events: whole result, hop extra and churn
    counters included, and the same exchanges in the same order."""
    traces = generate_workloads(config, seed=0)

    def watched():
        return Spy(FaultTransport(Transport(config.network), plan, scope="hier-gd"))

    def exchanges(watcher):
        return [(x.kind, x.link, ok) for x, _, ok in watcher.seen]

    seen = watched()
    scheme = build_scheme("hier-gd", config, traces, plan, transport=seen)
    engine = scheme.run()
    chain_seen = watched()
    chain = ChainHierGd(config, traces, scheme._events, transport=chain_seen)
    chain.name = scheme.name
    assert dataclasses.asdict(engine) == dataclasses.asdict(chain.run())
    assert exchanges(seen) == exchanges(chain_seen) and seen.seen
    check_presence_indexes(scheme)
    return engine


@pytest.mark.parametrize("sizes", ["unit", "sized"])
@pytest.mark.parametrize("directory", ["exact", "bloom"])
@pytest.mark.parametrize("plan", list(FAULT_PLANS))
def test_hier_gd_faulty_equivalent(plan, directory, sizes):
    result = assert_faulty_equivalent(
        general_config(sizes, directory=directory), FAULT_PLANS[plan]
    )
    if plan == "composite":
        # The row is only worth its name if every failure mode bit.
        for counter in ("timeouts", "fallbacks", "failed_pushes", "client_failures",
                        "dropped_eviction_notices", "directory_repairs", "diversions"):
            assert result.messages[counter] > 0, counter


@pytest.mark.parametrize(
    "overrides",
    [
        {"hiergd_policy": "lru"},
        {"hiergd_policy": "lfu", "directory": "bloom"},
        {"p2p_replicas": 2},
        {"object_diversion": False, "piggyback": False},
        {"promote_on_p2p_hit": False, "gd_cost_model": "gd"},
        {"overlay": "chord", "directory": "bloom"},
        {"client_cache_fraction": 0.0},
    ],
    ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
)
@pytest.mark.parametrize("sizes", ["unit", "sized"])
def test_hier_gd_faulty_mechanism_toggles_equivalent(sizes, overrides):
    assert_faulty_equivalent(general_config(sizes, **overrides), FAULT_PLANS["composite"])


@pytest.mark.parametrize("sizes", ["unit", "sized"])
@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"directory": "bloom"},
        {"hiergd_policy": "lru"},
        {"hiergd_policy": "lfu", "directory": "bloom"},
        {"p2p_replicas": 2},
        {"object_diversion": False},
        {"overlay": "chord"},
    ],
    ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()) or "defaults",
)
def test_hier_gd_churn_events_equivalent(overrides, sizes):
    """Plain churn runs: no fault layer, so no hop is asked of the
    transport, and the eviction notice's probe repairs (pinned)."""
    config = general_config(sizes, **overrides)
    traces = generate_workloads(config, seed=0)
    scheme = HierGdScheme(config, traces, events=EVENTS)
    engine = scheme.run()
    chain = ChainHierGd(config, traces, EVENTS).run()
    assert dataclasses.asdict(engine) == dataclasses.asdict(chain)
    assert engine.messages["client_failures"] == 5 and engine.messages["objects_lost"] > 0
    check_presence_indexes(scheme)


@pytest.mark.parametrize("run", ["plain", "composite", "churn events"])
@pytest.mark.parametrize("sizes", ["unit", "sized"])
def test_engine_selection(sizes, run):
    """Construction rebinds nothing: every run is served by the class's
    own functions; the state holds what differs, and
    ``mutates_membership`` is whether the run was given a churn
    schedule."""
    config = general_config(sizes)
    traces = generate_workloads(config, seed=0)
    if run == "plain":
        scheme = SCHEME_REGISTRY["hier-gd"](config, traces)
    elif run == "composite":
        scheme = build_scheme("hier-gd", config, traces, FAULT_PLANS["composite"])
    else:
        scheme = HierGdScheme(config, traces, events=EVENTS)
    assert not {"process", "_proxy_insert"} & set(vars(scheme))
    assert scheme.process.__func__ is vars(HierGdScheme)["process"]
    assert scheme._proxy_insert.__func__ is vars(HierGdScheme)["_proxy_insert"]
    churn = run != "plain"
    assert scheme.mutates_membership == churn
    for state in scheme.states:
        assert state.first_touch == (sizes == "sized" or churn)


@pytest.mark.parametrize("directory", ["exact", "bloom"])
def test_chain_model_reaches_no_engine_method(monkeypatch, directory):
    """The model shares only what its docstring lists: no request-path
    method of ``HierGdScheme`` runs under it, under faults and churn."""
    for method in ("process", "_proxy_insert", "_pass_down", "_refresh_holder",
                   "_push_stage", "peer_surface"):
        monkeypatch.setattr(
            HierGdScheme, method,
            lambda *args, method=method: pytest.fail(f"the chain reached {method}"),
        )
    config = general_config("sized", directory=directory)
    transport = FaultTransport(
        Transport(config.network), FAULT_PLANS["composite"], scope="hier-gd"
    )
    ChainHierGd(config, generate_workloads(config, seed=0), EVENTS, transport).run()


def test_one_module_defines_the_request_path():
    """No module under ``src/`` defines a second pass-down or miss chain,
    and the engine has no second specialisation: exactly one function
    counts a pass-down and one a directory lookup — what any
    implementation of Figure 1 or of the miss chain must do — both in
    ``core/hiergd.py``."""
    root = Path(repro.__file__).parent
    counting = {"passdowns": set(), "p2p_lookups": set()}
    for path in root.rglob("*.py"):
        module = path.relative_to(root).as_posix()
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.AugAssign)
                    and isinstance(node.target, ast.Subscript)
                    and isinstance(node.target.slice, ast.Constant)
                    and node.target.slice.value in counting
                ):
                    counting[node.target.slice.value].add((module, func.name))
    engine = "core/hiergd.py"
    assert counting == {
        "passdowns": {(engine, "_pass_down")},
        "p2p_lookups": {(engine, "process")},
    }


def test_squirrel_home_table_matches_overlay_owner():
    config = small_config()
    scheme = SquirrelScheme(config, generate_workloads(config, seed=0))
    for ci, overlay in enumerate(scheme.overlays):
        for obj, home in enumerate(scheme._home_table[ci]):
            owner = overlay.owner_of(overlay.space.object_id(object_url(obj)))
            assert home is scheme.homes[ci][scheme.idx_of_node[ci][owner]]
