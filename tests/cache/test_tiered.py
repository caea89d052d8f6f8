"""Tests for the unified two-tier (proxy + P2P client) cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CLIENT_TIER, PROXY_TIER, TieredCache
from tests.cache.test_lfu import NaiveLfu, stats_of
from tests.cache.test_topk import NaiveBudgetTracker, NaiveTracker, pop_order, records


class NaiveTiered:
    """``request`` as the schemes used to spell it -- ``lookup_tier``, then
    ``insert`` on a miss -- over the naive LFU and the naive trackers
    (count mode: the rebalance loop; byte mode: the whole pass)."""

    def __init__(self, proxy, client, reset, by_bytes):
        self.lfu = NaiveLfu(proxy + client, reset_on_evict=reset)
        self.by_bytes = by_bytes
        if by_bytes:
            self.tiers = NaiveBudgetTracker(proxy)
        else:
            self.tiers = NaiveTracker(proxy)

    def add(self, key, size=None):
        value = float(self.lfu.counts[key])
        if self.by_bytes:
            self.tiers.add(key, value, size)
        else:
            self.tiers.add(key, value)

    def request(self, key, size):
        lfu, tiers = self.lfu, self.tiers
        if lfu.lookup(key):
            before = key in tiers.top
            self.add(key)
            return PROXY_TIER if before else CLIENT_TIER
        for victim in lfu.insert(key, size):
            tiers.remove(victim)
        if key in lfu.sizes:
            self.add(key, size)
        return None

    def remove(self, key):
        self.tiers.remove(key)
        return self.lfu.remove(key)


class TestBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TieredCache(-1, 4)
        with pytest.raises(ValueError):
            TieredCache(4, -1)

    def test_new_object_enters_proxy_tier(self):
        c = TieredCache(2, 4)
        c.insert("a")
        assert c.tier_of("a") == PROXY_TIER

    def test_new_insert_does_not_displace_proxy_resident(self):
        c = TieredCache(1, 4)
        c.insert("a")
        c.insert("b")  # equal value: the incumbent keeps the proxy slot
        assert c.tier_of("a") == PROXY_TIER
        assert c.tier_of("b") == CLIENT_TIER

    def test_hot_proxy_resident_not_demoted(self):
        c = TieredCache(1, 4)
        c.insert("hot")
        for _ in range(5):
            c.lookup_tier("hot")
        c.insert("new")  # freq 1 < hot's 6: "new" itself goes down
        assert c.tier_of("hot") == PROXY_TIER
        assert c.tier_of("new") == CLIENT_TIER

    def test_global_min_evicted_on_client_overflow(self):
        c = TieredCache(1, 1)
        c.insert("a")
        c.insert("b")  # a demoted to client
        evicted = c.insert("c")  # client overflow: min freq leaves
        assert len(evicted) == 1
        assert len(c) == 2

    def test_promotion_on_access(self):
        c = TieredCache(1, 2)
        c.insert("a")  # takes the proxy slot
        c.insert("b")  # client tier
        # One access heats "b" (freq 2) past "a" (freq 1): the hit is served
        # from the client tier, and the promotion swap happens afterwards.
        tier = c.lookup_tier("b")
        assert tier == CLIENT_TIER
        assert c.tier_of("b") == PROXY_TIER
        assert c.tier_of("a") == CLIENT_TIER

    def test_lookup_tier_counts_stats(self):
        c = TieredCache(1, 1)
        assert c.lookup_tier("x") is None
        c.insert("x")
        assert c.lookup_tier("x") == PROXY_TIER
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_zero_proxy_tier(self):
        c = TieredCache(0, 2)
        c.insert("a")
        assert c.tier_of("a") == CLIENT_TIER

    def test_zero_total_capacity(self):
        c = TieredCache(0, 0)
        assert c.insert("a") == ["a"]
        assert len(c) == 0

    def test_duplicate_insert_noop(self):
        c = TieredCache(1, 1)
        c.insert("a")
        assert c.insert("a") == []
        assert len(c) == 1

    def test_remove_from_either_tier(self):
        c = TieredCache(1, 2)
        c.insert("a")
        c.insert("b")
        assert c.remove("a") and c.remove("b")
        assert not c.remove("a")
        assert len(c) == 0

    def test_unit_sizes_only(self):
        with pytest.raises(ValueError):
            TieredCache(1, 1).insert("a", size=2)


class TestInvariants:
    def test_occupancy_never_exceeds_tier_capacities(self):
        c = TieredCache(3, 5)
        for i in range(100):
            key = f"k{i % 17}"
            if c.lookup_tier(key) is None:
                c.insert(key)
            proxy = c._tiers.top_count
            assert proxy <= 3 and len(c) - proxy <= 5

    def test_proxy_tier_holds_hottest_in_steady_state(self):
        c = TieredCache(2, 4)
        # Skewed access: keys 0,1 hot; 2..5 cold.
        pattern = [0, 1] * 30 + list(range(2, 6))
        import random

        rng = random.Random(7)
        seq = pattern * 10
        rng.shuffle(seq)
        for k in seq:
            if c.lookup_tier(k) is None:
                c.insert(k)
        # After plenty of accesses the two hottest keys occupy the proxy tier.
        for hot in (0, 1):
            c.lookup_tier(hot)
        assert c.tier_of(0) == PROXY_TIER
        assert c.tier_of(1) == PROXY_TIER

    @given(st.lists(st.integers(min_value=0, max_value=12), max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_total_capacity_respected(self, refs):
        c = TieredCache(2, 3)
        for k in refs:
            if c.lookup_tier(k) is None:
                c.insert(k)
            # lookup_tier's premise: store residency is tracker residency.
            assert set(c._tiers) == set(c.keys())
        assert len(c) <= 5
        assert c._tiers.top_count <= 2 and len(c) - c._tiers.top_count <= 3

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_frequency_counts_every_reference(self, refs):
        c = TieredCache(2, 2)
        for k in refs:
            if c.lookup_tier(k) is None:
                c.insert(k)
            assert set(c._tiers) == set(c.keys())
        from collections import Counter

        counts = Counter(refs)
        for k, n in counts.items():
            assert c.frequency(k) == n


#: One operation is one integer, decoded by ``divmod`` (op, key, size).
TIER_OPS = ["request"] * 6 + ["remove"]
TIER_KEYS = 8


def tier_codes(n_sizes):
    return st.lists(
        st.integers(min_value=0, max_value=len(TIER_OPS) * TIER_KEYS * n_sizes - 1),
        min_size=60,
        max_size=300,
    )


class TestRequestAgainstNaiveModels:
    """``request`` inlines the store's refresh and, in count mode, the
    tracker's case (a) on a proxy-tier hit.  After every operation: the served
    tier, the LFU's victims-to-be (residents, ``used``, stats, counts),
    both tracker heaps' pop order (count mode) or ``(priority, seq)``
    records (byte mode), and every resident's ``tier_of``."""

    @staticmethod
    def drive(codes, proxy, client, reset, by_bytes, sizes):
        cache = TieredCache(proxy, client, lfu_reset_on_evict=reset, by_bytes=by_bytes)
        model = NaiveTiered(proxy, client, reset, by_bytes)
        for code in codes:
            code, op = divmod(code, len(TIER_OPS))
            size, key = divmod(code, TIER_KEYS)
            if TIER_OPS[op] == "request":
                assert cache.request(key, sizes[size]) == model.request(key, sizes[size])
            else:
                assert cache.remove(key) is model.remove(key)
            store, tiers, naive = cache._store, cache._tiers, model.tiers
            assert set(store.keys()) == set(model.lfu.sizes) == set(tiers)
            assert len(store) == model.lfu.used
            assert stats_of(cache) == stats_of(model.lfu)
            assert {k: cache.frequency(k) for k in range(TIER_KEYS)} == {
                k: model.lfu.counts.get(k, 0) for k in range(TIER_KEYS)
            }
            assert {k: cache.tier_of(k) for k in store.keys()} == {
                k: PROXY_TIER if k in naive.top else CLIENT_TIER for k in model.lfu.sizes
            }
            if by_bytes:
                assert records(tiers._top) == records(naive.top)
                assert records(tiers._rest) == records(naive.rest)
                assert tiers.top_bytes == naive.top_bytes
            else:
                assert pop_order(tiers._top) == pop_order(naive.top)
                assert pop_order(tiers._rest) == pop_order(naive.rest)

    @given(
        tier_codes(1),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([0, 1, 2, 5]),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_count_mode(self, codes, proxy, client, reset):
        self.drive(codes, proxy, client, reset, False, [1])

    @given(
        tier_codes(5),
        st.sampled_from([0, 3, 4, 9]),
        st.sampled_from([0, 2, 6, 12]),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_byte_mode(self, codes, proxy, client, reset):
        self.drive(codes, proxy, client, reset, True, [1, 1, 2, 3, 5])

    def test_unit_sizes_only(self):
        c = TieredCache(1, 1)
        with pytest.raises(ValueError, match="unit object sizes"):
            c.request("a", 2)
        assert c.stats.misses == 0 and len(c) == 0
