"""Tests for PAST-style replication in the P2P client cache."""

import pytest

from repro.core.churn import ChurnEvent
from repro.core.config import SimulationConfig
from repro.core.hiergd import HierGdScheme
from repro.workload import ProWGenConfig, generate_cluster_traces


def cfg(replicas=2, **kw):
    kw.setdefault("leaf_set_size", 4)
    # Roomy client caches by default so best-effort replicas find space.
    kw.setdefault("client_cache_fraction", 0.05)
    return SimulationConfig(
        workload=ProWGenConfig(n_requests=8000, n_objects=400, n_clients=10),
        n_proxies=1,
        proxy_cache_fraction=0.1,
        p2p_replicas=replicas,
        **kw,
    )


def workload(seed=0):
    return generate_cluster_traces(
        ProWGenConfig(n_requests=8000, n_objects=400, n_clients=10), 1, seed=seed
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(p2p_replicas=0)

    def test_default_is_single_copy(self):
        assert SimulationConfig().p2p_replicas == 1


class TestReplication:
    def test_no_replicas_by_default(self):
        r = HierGdScheme(cfg(replicas=1), workload()).run()
        assert r.messages["replicas_stored"] == 0

    def test_replicas_stored_when_enabled(self):
        scheme = HierGdScheme(cfg(replicas=2), workload())
        r = scheme.run()
        assert r.messages["replicas_stored"] > 0
        # Replica bookkeeping refers to caches that really hold the object.
        state = scheme.states[0]
        for obj, holders in state.replicas.items():
            for idx in holders:
                assert state.clients[idx].contains(obj)

    def test_more_replicas_more_copies(self):
        two = HierGdScheme(cfg(replicas=2), workload()).run()
        three = HierGdScheme(cfg(replicas=3), workload()).run()
        assert three.messages["replicas_stored"] >= two.messages["replicas_stored"]

    def test_replicas_never_evict(self):
        # Tight client caches: replication is best-effort, so capacity
        # pressure must not increase client evictions.
        tight = cfg(replicas=3, client_cache_fraction=0.005)
        base = cfg(replicas=1, client_cache_fraction=0.005)
        with_reps = HierGdScheme(tight, workload(seed=2)).run()
        without = HierGdScheme(base, workload(seed=2)).run()
        assert with_reps.messages["client_evictions"] <= without.messages[
            "client_evictions"
        ] * 1.05 + 5

    def test_latency_not_harmed(self):
        with_reps = HierGdScheme(cfg(replicas=2), workload(seed=3)).run()
        without = HierGdScheme(cfg(replicas=1), workload(seed=3)).run()
        assert with_reps.mean_latency <= without.mean_latency * 1.02


class TestReplicationUnderChurn:
    def churn_events(self, n=4):
        return [
            ChurnEvent(at_request=2000 + 1000 * i, kind="fail", cluster=0, client=i)
            for i in range(n)
        ]

    def test_replicas_reduce_objects_lost(self):
        traces = workload(seed=4)
        lost = {}
        for replicas in (1, 3):
            scheme = HierGdScheme(cfg(replicas=replicas), traces, events=self.churn_events())
            r = scheme.run()
            # "Lost" means gone from the P2P ground truth; with replicas a
            # failure only loses objects whose every copy died.
            lost[replicas] = r.extras["p2p_objects"]
        # More surviving objects with replication.
        assert lost[3] >= lost[1]

    def test_survivors_remain_locatable(self):
        traces = workload(seed=5)
        scheme = HierGdScheme(cfg(replicas=2), traces, events=self.churn_events())
        scheme.run()
        state = scheme.states[0]
        for obj in list(state.p2p_present):
            assert scheme._locate(state, obj) is not None
