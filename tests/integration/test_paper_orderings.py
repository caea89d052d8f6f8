"""Integration tests: the paper's summary observations (§5.3) must hold.

These run all seven schemes on a moderate synthetic workload and check
the *qualitative* results the paper reports — the orderings and trends,
not absolute numbers.
"""

import pytest

from repro.core.config import SimulationConfig
from repro.core.metrics import latency_gain
from repro.core.run import available_schemes, gains_vs_nc, generate_workloads, run_scheme
from repro.workload import ProWGenConfig

WORKLOAD = ProWGenConfig(n_requests=30_000, n_objects=1_500, n_clients=25)


def run_at(fraction, schemes=None, seed=11, **cfg_kw):
    config = SimulationConfig(
        workload=WORKLOAD,
        proxy_cache_fraction=fraction,
        client_cache_fraction=0.004,  # 25 clients x 0.4% => 10% P2P cache
        **cfg_kw,
    )
    traces = generate_workloads(config, seed=seed)
    names = schemes if schemes is not None else available_schemes()
    return {name: run_scheme(name, config, traces) for name in names}


@pytest.fixture(scope="module")
def results_small():
    return run_at(0.1)


@pytest.fixture(scope="module")
def results_mid():
    return run_at(0.4)


class TestObservation1CoordinationHelps:
    """FC/FC-EC > SC/SC-EC > NC/NC-EC (more coordination, more gain)."""

    def test_fc_beats_sc_beats_nc(self, results_mid):
        r = results_mid
        assert r["fc"].mean_latency < r["sc"].mean_latency < r["nc"].mean_latency

    def test_fc_ec_beats_sc_ec_beats_nc_ec(self, results_mid):
        r = results_mid
        assert (
            r["fc-ec"].mean_latency
            < r["sc-ec"].mean_latency
            < r["nc-ec"].mean_latency
        )


class TestObservation2ClientCachesHelp:
    """X-EC outperforms X, particularly at small proxy caches."""

    @pytest.mark.parametrize("pair", [("nc-ec", "nc"), ("sc-ec", "sc"), ("fc-ec", "fc")])
    def test_ec_variants_win(self, results_small, pair):
        ec, base = pair
        assert results_small[ec].mean_latency < results_small[base].mean_latency

    def test_ec_advantage_shrinks_with_cache_size(self, results_small, results_mid):
        def advantage(res):
            return 1 - res["sc-ec"].mean_latency / res["sc"].mean_latency

        assert advantage(results_small) > advantage(results_mid)


class TestObservation3HierGd:
    """Hier-GD beats SC-EC, SC, NC-EC; beats FC at small proxy caches."""

    def test_beats_simple_cooperation(self, results_small):
        r = results_small
        for other in ("sc-ec", "sc", "nc-ec"):
            assert r["hier-gd"].mean_latency < r[other].mean_latency, other

    def test_beats_fc_at_small_caches(self, results_small):
        assert results_small["hier-gd"].mean_latency < results_small["fc"].mean_latency

    def test_positive_gain_everywhere(self, results_small, results_mid):
        for res in (results_small, results_mid):
            assert latency_gain(res["hier-gd"], res["nc"]) > 0


class TestGainShapes:
    """Gains shrink as the proxy cache approaches the object universe."""

    def test_gains_converge_at_full_cache(self):
        small = run_at(0.1, schemes=["nc", "hier-gd", "fc-ec"])
        full = run_at(1.0, schemes=["nc", "hier-gd", "fc-ec"])
        g_small = latency_gain(small["hier-gd"], small["nc"])
        g_full = latency_gain(full["hier-gd"], full["nc"])
        assert g_small > g_full
        g_small_fcec = latency_gain(small["fc-ec"], small["nc"])
        g_full_fcec = latency_gain(full["fc-ec"], full["nc"])
        assert g_small_fcec > g_full_fcec

    def test_gains_vs_nc_helper(self, results_mid):
        gains = gains_vs_nc(results_mid)
        assert "nc" not in gains
        assert set(gains) == {
            "sc", "fc", "nc-ec", "sc-ec", "fc-ec", "hier-gd", "squirrel"
        }
        assert all(g > 0 for g in gains.values() if g != gains.get("squirrel"))

    def test_gains_vs_nc_requires_baseline(self, results_mid):
        partial = {k: v for k, v in results_mid.items() if k != "nc"}
        with pytest.raises(KeyError):
            gains_vs_nc(partial)


class TestNetworkSensitivity:
    """Gain increases with Ts/Tc and Ts/Tl (paper Fig 5 (a)/(b))."""

    def test_tc_ratio_direction(self):
        lo = run_at(0.2, schemes=["nc", "hier-gd"],
                    network=SimulationConfig().network.with_ratios(ts_over_tc=2))
        hi = run_at(0.2, schemes=["nc", "hier-gd"],
                    network=SimulationConfig().network.with_ratios(ts_over_tc=10))
        assert latency_gain(hi["hier-gd"], hi["nc"]) > latency_gain(
            lo["hier-gd"], lo["nc"]
        )

    def test_tl_ratio_direction(self):
        lo = run_at(0.2, schemes=["nc", "hier-gd"],
                    network=SimulationConfig().network.with_ratios(ts_over_tl=5))
        hi = run_at(0.2, schemes=["nc", "hier-gd"],
                    network=SimulationConfig().network.with_ratios(ts_over_tl=20))
        assert latency_gain(hi["hier-gd"], hi["nc"]) > latency_gain(
            lo["hier-gd"], lo["nc"]
        )


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = run_at(0.3, schemes=["hier-gd"], seed=5)["hier-gd"]
        b = run_at(0.3, schemes=["hier-gd"], seed=5)["hier-gd"]
        assert a.total_latency == b.total_latency
        assert a.tier_counts == b.tier_counts
        assert a.messages == b.messages
