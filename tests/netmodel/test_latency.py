"""Tests for the four-parameter network latency model."""

import pytest

from repro.netmodel import (
    ALL_TIERS,
    TIER_COOP_P2P,
    TIER_COOP_PROXY,
    TIER_LOCAL_P2P,
    TIER_LOCAL_PROXY,
    TIER_SERVER,
    NetworkConfig,
)


class TestDefaults:
    def test_paper_ratios(self):
        n = NetworkConfig()
        assert n.ts_over_tc == 10 and n.ts_over_tl == 20
        assert n.tp2p_over_tl == pytest.approx(1.4)

    def test_derived_absolute_values(self):
        n = NetworkConfig()
        assert n.t_server == pytest.approx(20.0)
        assert n.t_coop == pytest.approx(2.0)
        assert n.t_p2p == pytest.approx(1.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(t_local=0)
        with pytest.raises(ValueError):
            NetworkConfig(ts_over_tc=-1)
        with pytest.raises(ValueError):
            NetworkConfig(ts_over_tl=0)
        with pytest.raises(ValueError):
            NetworkConfig(tp2p_over_tl=0)


class TestLatencies:
    def test_tier_latencies(self):
        n = NetworkConfig()
        assert n.latency(TIER_LOCAL_PROXY) == pytest.approx(1.0)
        assert n.latency(TIER_LOCAL_P2P) == pytest.approx(2.4)
        assert n.latency(TIER_COOP_PROXY) == pytest.approx(3.0)
        assert n.latency(TIER_COOP_P2P) == pytest.approx(4.4)
        assert n.latency(TIER_SERVER) == pytest.approx(21.0)

    def test_paper_ordering_preserved(self):
        # P2P hit cheaper than co-proxy fetch, both far cheaper than server.
        n = NetworkConfig()
        lat = [n.latency(t) for t in ALL_TIERS]
        assert lat == sorted(lat)

    def test_unknown_tier(self):
        with pytest.raises(KeyError):
            NetworkConfig().latency("nearline")

    def test_benefit_terms(self):
        n = NetworkConfig()
        assert n.benefit_first_copy_remote == pytest.approx(18.0)  # Ts - Tc
        assert n.benefit_local_copy == pytest.approx(2.0)  # Tc


class TestRatioSweeps:
    def test_with_ratios(self):
        n = NetworkConfig().with_ratios(ts_over_tc=2)
        assert n.t_coop == pytest.approx(10.0)
        assert n.ts_over_tl == 20  # untouched

    def test_ts_over_tl_changes_server_latency(self):
        n = NetworkConfig().with_ratios(ts_over_tl=5)
        assert n.t_server == pytest.approx(5.0)
        assert n.t_coop == pytest.approx(0.5)

    def test_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            NetworkConfig().t_local = 2.0
