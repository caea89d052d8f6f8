"""Tests for cost-benefit replacement (FC / FC-EC policy block)."""

import pytest

from repro.cache import CostBenefitCache, FrequencyOracle


class TestFrequencyOracle:
    def test_unknown_defaults_to_one(self):
        o = FrequencyOracle({})
        assert o("ghost") == 1


class TestPerfectKnowledge:
    def oracle(self):
        return FrequencyOracle({"hot": 100, "warm": 10, "cold": 1})

    def test_value_is_freq_times_benefit(self):
        c = CostBenefitCache(4, frequency=self.oracle())
        c.insert("hot", cost=2.0)
        assert c.value("hot") == pytest.approx(200.0)

    def test_evicts_minimum_value(self):
        c = CostBenefitCache(2, frequency=self.oracle())
        c.insert("warm", cost=1.0)  # value 10
        c.insert("cold", cost=50.0)  # value 50
        evicted = c.insert("hot", cost=1.0)  # value 100 > min(10)
        assert evicted == ["warm"]

    def test_admission_test_rejects_low_value(self):
        c = CostBenefitCache(1, frequency=self.oracle())
        c.insert("hot", cost=1.0)  # value 100
        assert c.insert("cold", cost=1.0) == ["cold"]  # not admitted
        assert c.contains("hot")

    def test_one_timers_cannot_thrash_working_set(self):
        oracle = FrequencyOracle({f"w{i}": 50 for i in range(4)})
        c = CostBenefitCache(4, frequency=oracle)
        for i in range(4):
            c.insert(f"w{i}", cost=1.0)
        for i in range(100):
            c.insert(f"one-timer-{i}", cost=1.0)  # freq 1 each
        assert sorted(c.keys()) == [f"w{i}" for i in range(4)]


class TestOnlineCounting:
    def test_counts_accumulate_on_lookup(self):
        c = CostBenefitCache(2)
        c.insert("a", cost=1.0)
        for _ in range(5):
            c.lookup("a")
        # Only lookups are references; a bare insert is not one.
        assert c.value("a") == pytest.approx(5.0)

    def test_miss_counts_as_reference(self):
        c = CostBenefitCache(2)
        c.lookup("x")
        c.lookup("x")
        c.insert("x", cost=1.0)
        assert c.value("x") == pytest.approx(2.0)

    def test_eviction_tracks_online_values(self):
        c = CostBenefitCache(2)
        c.insert("a", cost=1.0)
        c.insert("b", cost=1.0)
        for _ in range(3):
            c.lookup("a")
        for _ in range(6):
            c.lookup("nonresident")  # bumps its count to 6
        evicted = c.insert("nonresident", cost=1.0)
        assert evicted == ["b"]


class TestValidation:
    def test_non_positive_size_rejected(self):
        with pytest.raises(ValueError):
            CostBenefitCache(2).insert("x", size=0)

    def test_negative_benefit_rejected(self):
        with pytest.raises(ValueError):
            CostBenefitCache(2).insert("x", cost=-1.0)

    def test_zero_capacity(self):
        c = CostBenefitCache(0)
        assert c.insert("a") == ["a"]
        assert not c.contains("a")

    def test_value_keyerror_for_uncached(self):
        with pytest.raises(KeyError):
            CostBenefitCache(2).value("nope")

    def test_remove(self):
        c = CostBenefitCache(2)
        c.insert("a")
        assert c.remove("a") is True
        assert c.remove("a") is False

    def test_reinsert_updates_benefit(self):
        c = CostBenefitCache(2, frequency=FrequencyOracle({"a": 10}))
        c.insert("a", cost=1.0)
        c.insert("a", cost=3.0)
        assert len(c) == 1
        assert c.value("a") == pytest.approx(30.0)

    def test_growing_refresh_never_evicts_itself(self):
        # Regression: a re-insert that grows and displaces incumbents
        # used to trial-pop the refreshed key's own stale heap entry.
        oracle = FrequencyOracle({"a": 1, "b": 5})
        c = CostBenefitCache(4, frequency=oracle)
        c.insert("a", cost=1.0, size=2)
        c.insert("b", cost=0.5, size=2)  # density 1.25 < the refresh's 2.25
        assert c.insert("a", cost=9.0, size=4) == ["b"]
        assert c.contains("a") and not c.contains("b")
        assert len(c) == 4

    def test_oversized_refresh_drops_stale_copy(self):
        c = CostBenefitCache(4)
        c.insert("a", cost=1.0, size=2)
        assert c.insert("a", cost=1.0, size=9) == ["a"]
        assert not c.contains("a")
        assert len(c) == 0
