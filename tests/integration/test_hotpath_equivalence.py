"""Engine equivalence: every indexed path against its scan-everything partner.

The indexed paths (presence indexes, precomputed DHT placement, fused
cache operations) must not change any simulated result.  Each scheme is
run twice on the same traces, once as the registry builds it and once as
its *partner*, and the two :class:`SchemeResult`\\ s must be identical —
same request count, tier counts, total latency and protocol messages,
and the same extras except, on unit-size rows, ``mean_pastry_hops``:

* **Hier-GD** — the indexed engine against the protocol-chain engine,
  reached through the public zero-event churn scheme.  The chain resolves
  and routes keys on first touch; a unit-size indexed run routes a
  sampled subset of a precomputed table, so that one statistic may
  differ there, while a sized indexed run resolves on first touch too
  and must match it (the sized rows compare the hop extra as well, and
  hold the finished scheme to ``check_invariants``);
* **SC / SC-EC** — the presence indexes against the naive models below,
  which probe every cooperating cache in ascending order on every miss;
* **Squirrel** — the precomputed home table against ``overlay.owner_of``
  per object;
* the remaining schemes have one path; their partner is a second run.
"""

import dataclasses

import pytest

from repro.cache import CLIENT_TIER, PROXY_TIER
from repro.core.churn import HierGdChurnScheme
from repro.core.hiergd import HierGdScheme
from repro.core.run import SCHEME_REGISTRY, generate_workloads
from repro.core.schemes import ScEcScheme, ScScheme, SquirrelScheme
from repro.experiments.runner import base_config
from repro.netmodel import (
    TIER_COOP_P2P,
    TIER_COOP_PROXY,
    TIER_LOCAL_P2P,
    TIER_LOCAL_PROXY,
    TIER_SERVER,
)
from repro.workload import object_url
from tests.core.test_hiergd import check_invariants


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


class ChurnWithoutRepair(HierGdChurnScheme):
    """The churn scheme minus its lazy directory repair, for Bloom runs.

    The churn scheme repairs every directory entry a lookup fails to
    back — it cannot tell a Bloom false positive, or an eviction's
    reachability probe, from an entry gone stale through churn.  On an
    exact directory the extra removals are no-ops; on a counting Bloom
    filter each one decrements counters other objects share.  Plain
    Hier-GD has no churn and repairs nothing, so the Bloom row compares
    against the chain without the repair.
    """

    _locate = HierGdScheme._locate


def chain_hier_gd(config, traces):
    cls = ChurnWithoutRepair if config.directory == "bloom" else HierGdChurnScheme
    return cls(config, traces, events=[])


PARTNERS = {"sc": NaiveSc, "sc-ec": NaiveScEc, "hier-gd": chain_hier_gd}

#: What the churn harness reports on top of plain Hier-GD.
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


@pytest.mark.parametrize("name", list(SCHEME_REGISTRY))
def test_all_schemes_equivalent(name):
    assert_equivalent(name, small_config())


def test_hier_gd_bloom_directory_equivalent():
    # Bloom false positives are modelled behaviour: the indexed engine
    # must reproduce them (and their wasted-round latency) exactly.
    assert_equivalent("hier-gd", small_config(directory="bloom"))


@pytest.mark.parametrize("policy", ["lru", "lfu"])
def test_hier_gd_alt_policies_equivalent(policy):
    # LRU/LFU caches skip the unit-size greedy-dual insert; the generic
    # insert branch must stay equivalent too.
    assert_equivalent("hier-gd", small_config(hiergd_policy=policy))


def test_hier_gd_replication_equivalent():
    assert_equivalent("hier-gd", small_config(p2p_replicas=2))


def test_hier_gd_no_diversion_no_piggyback_equivalent():
    assert_equivalent(
        "hier-gd", small_config(object_diversion=False, piggyback=False)
    )


def test_hier_gd_no_promotion_equivalent():
    assert_equivalent("hier-gd", small_config(promote_on_p2p_hit=False))


def assert_sized_equivalent(**overrides):
    # Client caches of a few median objects and a small proxy: at the
    # defaults nearly every pass-down is larger than a whole client cache.
    overrides = {
        "client_cache_fraction": 0.005, "proxy_cache_fraction": 0.2, **overrides
    }
    config = small_config(**overrides)
    config = dataclasses.replace(
        config,
        workload=dataclasses.replace(config.workload, object_sizes="heavy-tailed"),
    )
    scheme = assert_equivalent("hier-gd", config, hops=True)
    assert scheme.indexed and "mean_pastry_hops" in scheme.finalize()[1]
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


def test_squirrel_home_table_matches_overlay_owner():
    config = small_config()
    scheme = SquirrelScheme(config, generate_workloads(config, seed=0))
    for ci, overlay in enumerate(scheme.overlays):
        for obj, home in enumerate(scheme._home_table[ci]):
            owner = overlay.owner_of(overlay.space.object_id(object_url(obj)))
            assert home is scheme.homes[ci][scheme.idx_of_node[ci][owner]]
