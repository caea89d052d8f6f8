"""Behavioural tests for the six upper-bound schemes on crafted traces."""

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.run import available_schemes, run_scheme
from repro.core.schemes import (
    FcEcScheme,
    FcScheme,
    NcEcScheme,
    NcScheme,
    ScEcScheme,
    ScScheme,
)
from repro.netmodel import (
    TIER_COOP_P2P,
    TIER_COOP_PROXY,
    TIER_LOCAL_P2P,
    TIER_LOCAL_PROXY,
    TIER_SERVER,
)
from repro.workload import ProWGenConfig, Trace, generate_cluster_traces


def mk_trace(objs, n_objects=10, n_clients=1):
    objs = np.asarray(objs, dtype=np.int64)
    return Trace(
        objs, np.zeros(len(objs), dtype=np.int32), n_objects=n_objects, n_clients=n_clients
    )


def cfg(n_proxies=1, n_clients=1, **kw):
    return SimulationConfig(
        workload=ProWGenConfig(n_requests=100, n_objects=10, n_clients=n_clients),
        n_proxies=n_proxies,
        **kw,
    )


class TestNc:
    def test_hit_after_first_fetch(self):
        t = mk_trace([0, 0, 1, 0])
        r = NcScheme(cfg(), [t]).run()
        # ICS=1 (only obj 0 re-referenced) -> proxy size 1.  LFU admits
        # every fetched object, so the one-timer 1 displaces 0 briefly.
        assert r.tier_counts[TIER_SERVER] == 3
        assert r.tier_counts[TIER_LOCAL_PROXY] == 1

    def test_never_uses_cooperation(self):
        traces = generate_cluster_traces(
            ProWGenConfig(n_requests=2000, n_objects=100, n_clients=4), 2, seed=0
        )
        r = NcScheme(cfg(n_proxies=2, n_clients=4), traces).run()
        assert TIER_COOP_PROXY not in r.tier_counts
        assert TIER_LOCAL_P2P not in r.tier_counts


class TestSc:
    def test_serves_remote_miss_from_cooperating_proxy(self):
        # Cluster 0 caches object 0 first; cluster 1 then finds it remotely.
        a = mk_trace([0, 0, 0])
        b = mk_trace([0, 0, 0])
        r = ScScheme(cfg(n_proxies=2), [a, b]).run()
        assert r.tier_counts[TIER_SERVER] == 1  # only the very first access
        assert r.tier_counts[TIER_COOP_PROXY] == 1  # cluster 1's first access
        assert r.tier_counts[TIER_LOCAL_PROXY] == 4

    def test_caches_locally_after_remote_fetch(self):
        a = mk_trace([0, 1, 1])  # ICS=1 -> proxy size 1
        b = mk_trace([0, 0, 0])
        r = ScScheme(cfg(n_proxies=2), [a, b]).run()
        # Cluster 1 fetched 0 remotely at t0 and kept a local copy.
        assert r.tier_counts[TIER_LOCAL_PROXY] >= 3


class TestFc:
    def test_duplicate_eviction_in_favour_of_primaries(self):
        # Both clusters reference objects 0 and 1 twice; aggregate capacity
        # is 2, so coordination keeps one primary of each object and no
        # duplicates: each cluster hits one object locally at best.
        a = mk_trace([0, 1, 0, 1])
        b = mk_trace([0, 1, 0, 1])
        r = FcScheme(cfg(n_proxies=2), [a, b]).run()
        assert r.tier_counts[TIER_SERVER] == 2  # cold start of 0 and 1
        assert r.tier_counts[TIER_COOP_PROXY] == 4
        assert r.tier_counts[TIER_LOCAL_PROXY] == 2

    def test_duplicates_allowed_when_capacity_spare(self):
        a = mk_trace([0, 0, 0])
        b = mk_trace([0, 0, 0])
        r = FcScheme(cfg(n_proxies=2), [a, b]).run()
        # Capacity 2 and a single hot object: second cluster duplicates it.
        assert r.tier_counts[TIER_SERVER] == 1
        assert r.tier_counts[TIER_COOP_PROXY] == 1
        assert r.tier_counts[TIER_LOCAL_PROXY] == 4

    def test_cold_start_is_honest(self):
        t = mk_trace([0, 0])
        r = FcScheme(cfg(), [t]).run()
        assert r.tier_counts[TIER_SERVER] == 1

    def test_one_timers_do_not_displace_working_set(self):
        # Hot objects 0,1 plus a stream of one-timers.
        stream = [0, 1] * 10 + list(range(2, 8)) + [0, 1] * 5
        t = mk_trace(stream, n_objects=10)
        r = FcScheme(cfg(), [t]).run()
        # ICS=2, proxy=1; the single slot must stay on a hot object:
        # every 0/1 access after warmup cannot all be misses.
        assert r.tier_counts[TIER_LOCAL_PROXY] >= 10


class TestNcEc:
    def test_client_tier_serves_second_class_objects(self):
        t = mk_trace([0, 0, 0, 1, 1])
        # ICS=2 -> proxy=1; one client with 50% fraction -> p2p=1.
        r = NcEcScheme(cfg(client_cache_fraction=0.5), [t]).run()
        assert r.tier_counts[TIER_SERVER] == 2
        assert r.tier_counts[TIER_LOCAL_PROXY] == 2
        assert r.tier_counts[TIER_LOCAL_P2P] == 1

    def test_no_cooperation(self):
        traces = generate_cluster_traces(
            ProWGenConfig(n_requests=2000, n_objects=100, n_clients=4), 2, seed=1
        )
        r = NcEcScheme(cfg(n_proxies=2, n_clients=4), traces).run()
        assert TIER_COOP_PROXY not in r.tier_counts
        assert TIER_COOP_P2P not in r.tier_counts


class TestScEc:
    def test_uses_all_four_cache_tiers(self):
        traces = generate_cluster_traces(
            ProWGenConfig(n_requests=5000, n_objects=300, n_clients=5), 2, seed=2
        )
        r = ScEcScheme(
            cfg(n_proxies=2, n_clients=5, proxy_cache_fraction=0.2,
                client_cache_fraction=0.02),
            traces,
        ).run()
        for tier in (TIER_LOCAL_PROXY, TIER_LOCAL_P2P, TIER_COOP_PROXY, TIER_COOP_P2P):
            assert r.tier_counts.get(tier, 0) > 0, tier

    def test_prefers_remote_proxy_tier_over_remote_p2p(self):
        # With one remote cluster holding the object in its proxy tier the
        # scheme must report coop_proxy, not coop_p2p.
        a = mk_trace([0, 0, 0])
        b = mk_trace([0, 0, 0])
        r = ScEcScheme(cfg(n_proxies=2, client_cache_fraction=0.5), [a, b]).run()
        assert r.tier_counts.get(TIER_COOP_P2P, 0) == 0
        assert r.tier_counts[TIER_COOP_PROXY] == 1


class TestFcEc:
    def test_extends_fc_with_p2p_capacity(self):
        traces = generate_cluster_traces(
            ProWGenConfig(n_requests=5000, n_objects=300, n_clients=5), 2, seed=3
        )
        base = cfg(n_proxies=2, n_clients=5, proxy_cache_fraction=0.2,
                   client_cache_fraction=0.02)
        fc = FcScheme(base, traces).run()
        fcec = FcEcScheme(base, traces).run()
        assert fcec.mean_latency < fc.mean_latency

    def test_local_p2p_tier_used(self):
        traces = generate_cluster_traces(
            ProWGenConfig(n_requests=5000, n_objects=300, n_clients=5), 2, seed=4
        )
        r = FcEcScheme(
            cfg(n_proxies=2, n_clients=5, proxy_cache_fraction=0.1,
                client_cache_fraction=0.05),
            traces,
        ).run()
        assert r.tier_counts.get(TIER_LOCAL_P2P, 0) > 0

    def test_capacity_accounting(self):
        traces = generate_cluster_traces(
            ProWGenConfig(n_requests=2000, n_objects=200, n_clients=5), 2, seed=5
        )
        scheme = FcEcScheme(
            cfg(n_proxies=2, n_clients=5, client_cache_fraction=0.02), traces
        )
        scheme.run()
        assert len(scheme._copies) <= scheme.capacity


class TestRegistryIntegration:
    def test_every_registered_scheme_runs(self):
        config = SimulationConfig(
            workload=ProWGenConfig(n_requests=3000, n_objects=200, n_clients=5),
            n_proxies=2,
        )
        results = {name: run_scheme(name, config, seed=0) for name in available_schemes()}
        assert set(results) == {
            "nc", "sc", "fc", "nc-ec", "sc-ec", "fc-ec", "hier-gd", "squirrel"
        }
        for name, res in results.items():
            assert res.scheme == name
            assert res.n_requests == 6000

    def test_unknown_scheme_raises(self):
        from repro.core.run import run_scheme

        with pytest.raises(KeyError):
            run_scheme("magic", SimulationConfig())
