"""Mechanism-level tests for Hier-GD (paper Figure 1 and §§3-4)."""

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.hiergd import HierGdScheme, member_map
from repro.netmodel import (
    TIER_COOP_P2P,
    TIER_LOCAL_P2P,
    TIER_LOCAL_PROXY,
)
from repro.workload import ProWGenConfig, Trace, generate_cluster_traces


def mk_trace(objs, n_objects=50, n_clients=4):
    objs = np.asarray(objs, dtype=np.int64)
    return Trace(
        objs,
        np.zeros(len(objs), dtype=np.int32),
        n_objects=n_objects,
        n_clients=n_clients,
    )


def cfg(n_proxies=1, n_clients=4, **kw):
    kw.setdefault("leaf_set_size", 2)
    return SimulationConfig(
        workload=ProWGenConfig(n_requests=100, n_objects=50, n_clients=n_clients),
        n_proxies=n_proxies,
        **kw,
    )


def moderate_workload(n_clusters=1, n_clients=10, seed=0):
    return generate_cluster_traces(
        ProWGenConfig(n_requests=8000, n_objects=400, n_clients=n_clients),
        n_clusters,
        seed=seed,
    )


def check_invariants(scheme):
    """Cross-structure consistency that must hold at any quiescent point."""
    for state in scheme.states:
        # Every object the directory ground truth lists must be locatable,
        # and every locatable object must be listed.
        for obj in state.p2p_present:
            assert scheme._locate(state, obj) is not None, obj
        # Exact directory mirrors ground truth precisely.
        if scheme.config.directory == "exact":
            assert len(state.directory) == len(state.p2p_present)
            for obj in state.p2p_present:
                assert obj in state.directory
        # Pointer targets actually hold the object they are blamed for.
        for owner_idx, ptrs in state.pointers.items():
            for obj, holder in ptrs.items():
                assert state.clients[holder].contains(obj)
        # Caches respect their (byte) capacities and charge each held
        # object exactly its size.
        holdings = set()
        for cache in [state.proxy, *state.clients]:
            assert cache._used == len(cache) <= cache.capacity
            assert cache._used == sum(scheme._size_of(obj) for obj in cache.keys())
            if cache is not state.proxy:
                holdings.update(cache.keys())
        # The directory ground truth lists everything a client holds
        # (and, per the first check, nothing else).
        assert holdings == state.p2p_present
        for obj in holdings:
            assert obj in state.directory
    check_presence_indexes(scheme)


def check_presence_indexes(scheme):
    """The presence indexes are what a scan of the clusters would find
    (also under faults and churn, where the checks above do not hold:
    directories go stale there by design)."""

    def scan(held):
        found = {}
        for state in scheme.states:
            for obj in held(state):
                found.setdefault(obj, set()).add(state.cluster)
        return found

    assert scheme._proxy_presence.as_dict() == scan(lambda s: s.proxy.keys())
    # ``_locate`` probes the caches' own membership dicts: one per client,
    # joins and failures included, none rebound.
    for state in scheme.states:
        assert len(state.member_maps) == len(state.clients)
        for members, cache in zip(state.member_maps, state.clients):
            assert members is member_map(cache)
        # Free clients: exactly those with room, failed and joined ones too.
        assert state.free_clients == {
            k for k, c in enumerate(state.clients) if c.capacity - c._used > 0
        }
    if scheme._dir_presence is not None:
        assert scheme._dir_presence.as_dict() == scan(lambda s: s.p2p_present)


class TestPassDown:
    def test_evicted_object_lands_in_p2p_cache(self):
        # Proxy size will be 1 (ICS=1): requesting a second object evicts
        # the first, which must be passed down, not dropped.
        t = mk_trace([0, 0, 1, 0])
        scheme = HierGdScheme(cfg(), [t])
        r = scheme.run()
        # Access 4 (obj 0) finds 0 in the P2P cache: local_p2p hit.
        assert r.tier_counts.get(TIER_LOCAL_P2P, 0) == 1
        assert r.messages["passdowns"] >= 1
        assert r.messages["store_receipts"] >= 1
        check_invariants(scheme)

    def test_p2p_hit_cheaper_than_server(self):
        t = mk_trace([0, 0, 1, 0])
        nc_like = HierGdScheme(cfg(), [mk_trace([0, 0, 1, 0])])
        r = nc_like.run()
        # The trace has 3 distinct fetch events + one p2p hit at 2.4.
        assert r.mean_latency < 21.0

    def test_store_receipt_updates_directory(self):
        t = mk_trace([0, 0, 1])
        scheme = HierGdScheme(cfg(), [t])
        scheme.run()
        state = scheme.states[0]
        assert 0 in state.directory  # 0 was evicted by 1 and passed down
        check_invariants(scheme)

    def test_refresh_instead_of_duplicate_store(self):
        # Promote 0 back up, then evict it again: the P2P cache must not
        # hold two copies / double-count directory entries.
        t = mk_trace([0, 0, 1, 0, 1, 0])
        scheme = HierGdScheme(cfg(), [t])
        scheme.run()
        state = scheme.states[0]
        holders = [
            idx
            for idx, cache in enumerate(state.clients)
            if cache.contains(0)
        ]
        assert len(holders) <= 1
        check_invariants(scheme)


class TestDiversionAndEviction:
    def test_diversion_balances_full_owners(self):
        traces = moderate_workload()
        scheme = HierGdScheme(
            cfg(n_clients=10, proxy_cache_fraction=0.1,
                client_cache_fraction=0.01),
            traces,
        )
        r = scheme.run()
        assert r.messages["diversions"] > 0
        check_invariants(scheme)

    def test_no_diversion_when_disabled(self):
        traces = moderate_workload()
        scheme = HierGdScheme(
            cfg(n_clients=10, proxy_cache_fraction=0.1,
                client_cache_fraction=0.01, object_diversion=False),
            traces,
        )
        r = scheme.run()
        assert r.messages["diversions"] == 0
        check_invariants(scheme)

    def test_client_evictions_clean_directory(self):
        traces = moderate_workload(seed=7)
        scheme = HierGdScheme(
            cfg(n_clients=10, proxy_cache_fraction=0.1,
                client_cache_fraction=0.005),
            traces,
        )
        r = scheme.run()
        assert r.messages["client_evictions"] > 0
        check_invariants(scheme)

    def test_p2p_capacity_respected(self):
        traces = moderate_workload(seed=3)
        scheme = HierGdScheme(
            cfg(n_clients=10, client_cache_fraction=0.01), traces
        )
        scheme.run()
        sizing = scheme.sizings[0]
        total = sum(len(c) for c in scheme.states[0].clients)
        assert total <= sizing.p2p_size


class TestDirectories:
    def test_exact_directory_never_false_positive(self):
        traces = moderate_workload(seed=1)
        scheme = HierGdScheme(cfg(n_clients=10), traces)
        r = scheme.run()
        assert r.messages["directory_false_positives"] == 0
        assert r.extras["extra_latency"] == 0.0

    def test_bloom_directory_counts_false_positives(self):
        traces = moderate_workload(seed=1)
        scheme = HierGdScheme(
            cfg(n_clients=10, directory="bloom", bloom_fp_rate=0.2), traces
        )
        r = scheme.run()
        assert r.messages["directory_false_positives"] > 0
        assert r.extras["extra_latency"] > 0.0

    def test_bloom_penalty_worsens_latency(self):
        traces = moderate_workload(seed=2)
        exact = HierGdScheme(cfg(n_clients=10), traces).run()
        bloom = HierGdScheme(
            cfg(n_clients=10, directory="bloom", bloom_fp_rate=0.3), traces
        ).run()
        assert bloom.mean_latency >= exact.mean_latency

    def test_directory_memory_reported(self):
        traces = moderate_workload(seed=2)
        r = HierGdScheme(cfg(n_clients=10), traces).run()
        assert r.extras["directory_bytes"] > 0


class TestPiggyback:
    def test_piggyback_on_by_default(self):
        traces = moderate_workload(seed=4)
        r = HierGdScheme(cfg(n_clients=10), traces).run()
        assert r.messages["piggybacked_destages"] == r.messages["passdowns"]
        assert r.messages["dedicated_destage_connections"] == 0

    def test_dedicated_connections_when_disabled(self):
        traces = moderate_workload(seed=4)
        r = HierGdScheme(cfg(n_clients=10, piggyback=False), traces).run()
        assert r.messages["dedicated_destage_connections"] == r.messages["passdowns"]
        assert r.messages["piggybacked_destages"] == 0


class TestPushProtocol:
    def test_remote_p2p_served_via_push(self):
        # Cluster 0 warms object 0 into its P2P cache; cluster 1 then
        # requests it: must come through the push protocol (coop_p2p).
        a = mk_trace([0, 0, 1, 2])  # 0 evicted into P2P by 1, 2
        b = mk_trace([3, 3, 0, 0])
        scheme = HierGdScheme(cfg(n_proxies=2), [a, b])
        r = scheme.run()
        assert r.tier_counts.get(TIER_COOP_P2P, 0) >= 1
        assert r.messages["push_requests"] >= 1
        check_invariants(scheme)

    def test_promote_on_p2p_hit_toggle(self):
        t = mk_trace([0, 0, 1, 0, 0])
        promoted = HierGdScheme(cfg(), [t]).run()
        not_promoted = HierGdScheme(cfg(promote_on_p2p_hit=False), [t]).run()
        # With promotion the 5th access hits the proxy again; without, it
        # keeps hitting the P2P tier.
        assert promoted.tier_counts.get(TIER_LOCAL_PROXY, 0) > not_promoted.tier_counts.get(
            TIER_LOCAL_PROXY, 0
        )
        assert not_promoted.tier_counts.get(TIER_LOCAL_P2P, 0) >= 2


class TestGreedyDualCosts:
    def test_fetch_cost_feeds_greedy_dual(self):
        t = mk_trace([0, 0, 1])
        scheme = HierGdScheme(cfg(), [t])
        scheme.run()
        state = scheme.states[0]
        # Object 1 was fetched from the server: its recorded cost is Ts.
        assert state.costs[1] == pytest.approx(scheme.config.network.t_server)

    def test_p2p_promotion_uses_tp2p_cost(self):
        t = mk_trace([0, 0, 1, 0])
        scheme = HierGdScheme(cfg(), [t])
        scheme.run()
        state = scheme.states[0]
        # The final access promoted 0 from the P2P cache at cost Tp2p.
        assert state.costs[0] == pytest.approx(scheme.config.network.t_p2p)


class TestZeroClientCaches:
    def test_degenerates_gracefully(self):
        t = mk_trace([0, 0, 1, 0])
        scheme = HierGdScheme(cfg(client_cache_fraction=0.0), [t])
        r = scheme.run()
        # No P2P storage at all: behaves like a GD-only proxy.
        assert TIER_LOCAL_P2P not in r.tier_counts
        assert r.extras["p2p_objects"] == 0
        check_invariants(scheme)


class TestOverlayIntegration:
    def test_hop_statistics_sampled(self):
        traces = moderate_workload(seed=5, n_clients=30)
        r = HierGdScheme(
            cfg(n_clients=30, hop_sample_rate=8, leaf_set_size=4), traces
        ).run()
        assert r.extras.get("mean_pastry_hops", 0) >= 0
        assert "mean_pastry_hops" in r.extras

    def test_owner_mapping_is_stable_and_memoised(self):
        traces = moderate_workload(seed=6)
        scheme = HierGdScheme(cfg(n_clients=10), traces, events=[])
        scheme.run()
        state = scheme.states[0]
        assert len(state.owner_memo) > 0
        # Deterministic: recomputing an owner gives the memoised value.
        some = list(state.owner_memo)[:20]
        for obj in some:
            memo = state.owner_memo[obj]
            state.owner_memo.pop(obj)
            assert state.owner(obj) == memo

    def test_fast_placement_table_matches_reference_owners(self):
        traces = moderate_workload(seed=6)
        indexed = HierGdScheme(cfg(n_clients=10), traces)
        chain = HierGdScheme(cfg(n_clients=10), traces, events=[])
        for state, chain_state in zip(indexed.states, chain.states):
            state.build_placement()
            assert state.owner_of
            for obj in range(len(state.owner_of)):
                assert state.owner_of[obj] == chain_state.owner(obj)
