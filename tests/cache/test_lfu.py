"""Tests for the LFU policy (both counting modes)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import LfuCache
from repro.cache.base import CacheStats


class NaiveLfu:
    """The policy as a scan: a count and a last-update sequence number per
    key, and eviction of the resident with the least ``(count, seq)``.
    Every hit and every admission takes the next sequence number, as a
    ``HeapDict`` push does; an insert is not a reference."""

    def __init__(self, capacity, reset_on_evict=False):
        self.capacity = capacity
        self.reset = reset_on_evict
        self.counts = {}
        self.seqs = {}  # resident -> sequence number of its last update
        self.sizes = {}  # resident -> size
        self.clock = 0
        self.stats = CacheStats()

    @property
    def used(self):
        return sum(self.sizes.values())

    def _tick(self, key):
        self.clock += 1
        self.seqs[key] = self.clock

    def lookup(self, key):
        if key in self.sizes:
            self.counts[key] += 1
            self._tick(key)
            self.stats.hits += 1
            return True
        if not self.reset:
            self.counts[key] = self.counts.get(key, 0) + 1
        self.stats.misses += 1
        return False

    def insert(self, key, size=1):
        if size <= 0:
            raise ValueError("size must be positive")
        if key in self.sizes:  # refresh: same count, new size
            del self.sizes[key], self.seqs[key]
            if size > self.capacity:
                if self.reset:
                    self.counts.pop(key, None)
                self.stats.evictions += 1
                return [key]
        elif size > self.capacity:
            return [key]
        self.counts.setdefault(key, 1)
        evicted = []
        while self.used + size > self.capacity:
            victim = min(self.sizes, key=lambda k: (self.counts[k], self.seqs[k]))
            del self.sizes[victim], self.seqs[victim]
            if self.reset:
                del self.counts[victim]
            evicted.append(victim)
            self.stats.evictions += 1
        self.sizes[key] = size
        self._tick(key)
        self.stats.insertions += 1
        return evicted

    def lookup_or_insert(self, key, size=1):
        if self.lookup(key):
            return True, []
        return False, self.insert(key, size)

    def remove(self, key):
        if key not in self.sizes:
            return False
        del self.sizes[key], self.seqs[key]
        if self.reset:
            self.counts.pop(key, None)
        return True


def stats_of(cache):
    """Every counter of ``cache.stats``, comparable across caches."""
    return {name: getattr(cache.stats, name) for name in CacheStats.__slots__}


def check_same(cache, model, keys):
    assert set(cache.keys()) == set(model.sizes)
    assert len(cache) == model.used
    assert stats_of(cache) == stats_of(model)
    assert {k: cache.frequency(k) for k in keys} == {
        k: model.counts.get(k, 0) for k in keys
    }


#: One operation is one integer, decoded by ``divmod`` (op, key, size):
#: a tuple per operation makes hypothesis spend its time generating data.
LFU_OPS = ["lookup", "insert", "lookup_or_insert", "lookup_or_insert", "remove"]
LFU_KEYS = 7
UNIT_SIZES = [1]
MIXED_SIZES = [1, 1, 2, 3, 5, 0]  # 0: refused, after the miss is counted


def lfu_codes(sizes):
    return st.lists(
        st.integers(min_value=0, max_value=len(LFU_OPS) * LFU_KEYS * len(sizes) - 1),
        min_size=40,
        max_size=250,
    )


class TestAgainstNaiveModel:
    """Every public operation against :class:`NaiveLfu`, after each one:
    victims in order, residents, ``used``, ``CacheStats`` and counts."""

    @staticmethod
    def drive(codes, capacity, reset, sizes):
        cache = LfuCache(capacity, reset_on_evict=reset)
        model = NaiveLfu(capacity, reset_on_evict=reset)
        keys = range(LFU_KEYS)
        for code in codes:
            code, op = divmod(code, len(LFU_OPS))
            size, key = divmod(code, LFU_KEYS)
            op, size = LFU_OPS[op], sizes[size]
            if op == "lookup":
                assert cache.lookup(key) is model.lookup(key)
            elif op == "remove":
                assert cache.remove(key) is model.remove(key)
            elif size <= 0 and (op == "insert" or key not in model.sizes):
                call = cache.insert if op == "insert" else cache.lookup_or_insert
                with pytest.raises(ValueError, match="size must be positive"):
                    call(key, size=size)
                with pytest.raises(ValueError):
                    getattr(model, op)(key, size)
            elif op == "insert":
                assert cache.insert(key, size=size) == model.insert(key, size)
            else:
                assert cache.lookup_or_insert(key, size=size) == model.lookup_or_insert(
                    key, size
                )
            check_same(cache, model, keys)

    @given(lfu_codes(UNIT_SIZES), st.sampled_from([0, 1, 2, 4]), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_unit_sizes(self, codes, capacity, reset):
        self.drive(codes, capacity, reset, UNIT_SIZES)

    @given(lfu_codes(MIXED_SIZES), st.sampled_from([0, 1, 4, 7, 12]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_mixed_sizes(self, codes, capacity, reset):
        self.drive(codes, capacity, reset, MIXED_SIZES)


class TestPerfectLfu:
    def test_evicts_least_frequent(self):
        c = LfuCache(2)
        c.insert("hot")
        for _ in range(5):
            c.lookup("hot")
        c.insert("cold")
        evicted = c.insert("new")
        assert evicted == ["cold"]
        assert c.contains("hot")

    def test_miss_counts_as_reference(self):
        c = LfuCache(2)
        # Reference "x" three times before it is ever cached.
        for _ in range(3):
            assert c.lookup("x") is False
        c.insert("x")
        assert c.frequency("x") == 3

    def test_frequency_survives_eviction(self):
        c = LfuCache(1)
        c.insert("a")
        c.lookup("a")
        c.insert("b")  # evicts a
        assert not c.contains("a")
        assert c.frequency("a") == 2  # perfect counting persists

    def test_tie_broken_by_least_recent_update(self):
        c = LfuCache(2)
        c.insert("a")
        c.insert("b")  # equal freq 1; a is older
        assert c.insert("c") == ["a"]

    def test_insert_without_prior_lookup(self):
        c = LfuCache(2)
        c.insert("direct")
        assert c.frequency("direct") == 1

    def test_reinsert_keeps_single_slot(self):
        c = LfuCache(2)
        c.insert("a")
        c.insert("a")
        assert len(c) == 1


class TestInCacheLfu:
    def test_count_resets_on_eviction(self):
        c = LfuCache(1, reset_on_evict=True)
        c.insert("a")
        c.lookup("a")
        c.insert("b")  # evicts a, dropping its count
        assert c.frequency("a") == 0

    def test_miss_does_not_count(self):
        c = LfuCache(2, reset_on_evict=True)
        c.lookup("x")
        c.lookup("x")
        assert c.frequency("x") == 0
        c.insert("x")
        assert c.frequency("x") == 1

    def test_remove_clears_count(self):
        c = LfuCache(2, reset_on_evict=True)
        c.insert("a")
        c.remove("a")
        assert c.frequency("a") == 0


class TestCommon:
    def test_zero_capacity(self):
        c = LfuCache(0)
        assert c.insert("a") == ["a"]

    def test_oversized_rejected(self):
        c = LfuCache(2)
        assert c.insert("x", size=3) == ["x"]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            LfuCache(2).insert("x", size=-1)

    def test_variable_sizes_capacity_respected(self):
        c = LfuCache(5)
        c.insert("a", size=3)
        c.insert("b", size=2)
        evicted = c.insert("c", size=4)
        assert len(c) <= 5
        assert evicted  # something had to go

    def test_growing_refresh_never_evicts_itself(self):
        # Regression: a re-insert that grows and forces evictions used to
        # crash (KeyError) when the refreshed key was the eviction
        # candidate — its stale heap entry was popped as a victim.
        c = LfuCache(4)
        c.insert("a", size=2)
        c.insert("b", size=2)
        c.lookup("b")  # b now more frequent than a
        assert c.insert("a", size=4) == ["b"]
        assert c.contains("a") and not c.contains("b")
        assert len(c) == 4

    def test_oversized_refresh_drops_stale_copy(self):
        c = LfuCache(4)
        c.insert("a", size=2)
        assert c.insert("a", size=9) == ["a"]
        assert not c.contains("a")
        assert len(c) == 0

    def test_contains_no_side_effect(self):
        c = LfuCache(2)
        c.insert("a")
        f = c.frequency("a")
        assert c.contains("a")
        assert c.frequency("a") == f

    def test_remove(self):
        c = LfuCache(2)
        c.insert("a")
        assert c.remove("a") and not c.remove("a")

    def test_hit_rate_stats(self):
        c = LfuCache(2)
        c.insert("a")
        c.lookup("a")
        c.lookup("b")
        assert c.stats.hits == 1 and c.stats.misses == 1
        assert c.stats.insertions == 1
