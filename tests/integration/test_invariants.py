"""Cross-cutting property tests: conservation laws every run must obey."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimulationConfig
from repro.core.run import available_schemes, run_scheme
from repro.netmodel import ALL_TIERS
from repro.workload import ProWGenConfig, generate_cluster_traces
from repro.workload.prowgen import generate_trace


def small_setup(seed, n_proxies=2):
    cfg = SimulationConfig(
        workload=ProWGenConfig(n_requests=4000, n_objects=300, n_clients=8),
        n_proxies=n_proxies,
        proxy_cache_fraction=0.3,
        client_cache_fraction=0.0125,  # 8 clients x 1.25% => 10%
    )
    traces = generate_cluster_traces(cfg.workload, n_proxies, seed=seed)
    return cfg, traces


class TestConservation:
    @pytest.mark.parametrize("scheme", available_schemes())
    def test_every_request_served_exactly_once(self, scheme):
        cfg, traces = small_setup(seed=1)
        result = run_scheme(scheme, cfg, traces)
        assert result.n_requests == sum(len(t) for t in traces)
        assert sum(result.tier_counts.values()) == result.n_requests
        assert set(result.tier_counts) <= set(ALL_TIERS)

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_mean_latency_bounded_by_extremes(self, scheme):
        cfg, traces = small_setup(seed=2)
        result = run_scheme(scheme, cfg, traces)
        net = cfg.network
        lo = net.latency("local_proxy")
        # Off-tier latency (Squirrel's home-relay detour, Bloom false
        # positives) sits on top of the per-tier bound.
        hi = net.latency("server") + result.extras.get("extra_latency", 0.0) / max(
            1, result.n_requests
        )
        assert lo <= result.mean_latency <= hi + 1e-9

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_latency_equals_tier_weighted_sum(self, scheme):
        cfg, traces = small_setup(seed=3)
        result = run_scheme(scheme, cfg, traces)
        net = cfg.network
        want = sum(net.latency(t) * c for t, c in result.tier_counts.items())
        want += result.extras.get("extra_latency", 0.0)
        assert result.total_latency == pytest.approx(want)

    def test_schemes_totally_ordered_by_information(self):
        # More machinery can never hurt on average in the upper-bound
        # models: cooperative >= isolated, unified >= split.
        cfg, traces = small_setup(seed=4)
        res = {s: run_scheme(s, cfg, traces) for s in ("nc", "sc", "nc-ec", "sc-ec")}
        assert res["sc"].mean_latency <= res["nc"].mean_latency
        assert res["sc-ec"].mean_latency <= res["nc-ec"].mean_latency


class TestWorkloadInvariants:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([0.0, 0.3, 0.6]),
        st.sampled_from([0.5, 0.8, 1.1]),
    )
    @settings(max_examples=12, deadline=None)
    def test_popularity_independent_of_ordering_knobs(self, seed, stack, alpha):
        """Temporal locality must reorder requests, never change counts."""
        cfg_a = ProWGenConfig(
            n_requests=3000, n_objects=200, n_clients=4,
            alpha=alpha, stack_fraction=stack,
        )
        cfg_b = ProWGenConfig(
            n_requests=3000, n_objects=200, n_clients=4,
            alpha=alpha, stack_fraction=0.9,
        )
        a = generate_trace(cfg_a, seed=seed + 1, counts_seed=seed)
        b = generate_trace(cfg_b, seed=seed + 2, counts_seed=seed)
        assert np.array_equal(a.reference_counts(), b.reference_counts())

    def test_cluster_traces_share_popularity(self):
        traces = generate_cluster_traces(
            ProWGenConfig(n_requests=3000, n_objects=200, n_clients=4), 3, seed=9
        )
        base = traces[0].reference_counts()
        for t in traces[1:]:
            assert np.array_equal(t.reference_counts(), base)
            assert not np.array_equal(t.object_ids, traces[0].object_ids)
