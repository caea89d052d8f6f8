"""Tests for the LRU reference policy."""

import pytest

from repro.cache import LruCache


class TestLru:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LruCache(-1)

    def test_hit_miss_accounting(self):
        c = LruCache(2)
        assert c.lookup("a") is False
        c.insert("a")
        assert c.lookup("a") is True
        assert c.stats.hits == 1 and c.stats.misses == 1
        assert c.stats.hit_rate == 0.5

    def test_eviction_order_is_lru(self):
        c = LruCache(2)
        c.insert("a")
        c.insert("b")
        c.lookup("a")  # a becomes MRU
        evicted = c.insert("c")
        assert evicted == ["b"]
        assert c.contains("a") and c.contains("c")

    def test_contains_does_not_touch_recency(self):
        c = LruCache(2)
        c.insert("a")
        c.insert("b")
        assert c.contains("a")  # probe, not a reference
        assert c.insert("c") == ["a"]

    def test_reinsert_refreshes_recency(self):
        c = LruCache(2)
        c.insert("a")
        c.insert("b")
        c.insert("a")  # refresh
        assert c.insert("c") == ["b"]

    def test_variable_sizes(self):
        c = LruCache(10)
        c.insert("big", size=7)
        c.insert("small", size=3)
        assert len(c) == c.capacity == 10
        evicted = c.insert("mid", size=5)
        assert evicted == ["big"]
        assert len(c) == 8

    def test_oversized_object_rejected(self):
        c = LruCache(4)
        assert c.insert("huge", size=5) == ["huge"]
        assert not c.contains("huge")

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            LruCache(4).insert("x", size=0)

    def test_remove(self):
        c = LruCache(2)
        c.insert("a")
        assert c.remove("a") is True
        assert c.remove("a") is False
        assert len(c) == 0

    def test_zero_capacity(self):
        c = LruCache(0)
        assert c.insert("a") == ["a"]
        assert not c.contains("a")

    def test_lru_order_and_clear(self):
        c = LruCache(3)
        for k in "abc":
            c.insert(k)
        c.lookup("a")
        assert list(c._entries) == ["b", "c", "a"]  # least recent first
        c.clear()
        assert len(c) == 0 and list(c.keys()) == []

    def test_free_space(self):
        c = LruCache(3)
        c.insert("a")
        assert c.free_space == 2
