"""Tests for the greedy-dual policy against its defining invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import GreedyDualCache
from tests.cache.test_lfu import stats_of


class TestGreedyDual:
    def test_default_cost_validation(self):
        with pytest.raises(ValueError):
            GreedyDualCache(2, default_cost=0)

    def test_insert_sets_credit_L_plus_cost(self):
        c = GreedyDualCache(4)
        c.insert("a", cost=5.0)
        assert c.credit("a") == pytest.approx(5.0)  # L starts at 0

    def test_eviction_raises_inflation_to_victim_credit(self):
        c = GreedyDualCache(1)
        c.insert("a", cost=3.0)
        c.insert("b", cost=7.0)  # evicts a (credit 3) -> L = 3
        assert c.inflation == pytest.approx(3.0)
        assert c.credit("b") == pytest.approx(10.0)  # L(3) + 7

    def test_evicts_minimum_credit(self):
        c = GreedyDualCache(2)
        c.insert("cheap", cost=1.0)
        c.insert("dear", cost=9.0)
        assert c.insert("new", cost=5.0) == ["cheap"]

    def test_hit_restores_credit(self):
        c = GreedyDualCache(2)
        c.insert("a", cost=2.0)
        c.insert("b", cost=9.0)
        # Inflate L by cycling evictions.
        c.insert("x", cost=9.0)  # evicts a, L=2
        assert c.inflation == pytest.approx(2.0)
        assert c.lookup("b") is True
        assert c.credit("b") == pytest.approx(2.0 + 9.0)

    def test_recency_protection_emerges(self):
        # A recently hit cheap object outlives an old expensive one once
        # inflation has grown past the expensive object's stale credit.
        c = GreedyDualCache(2)
        c.insert("old-dear", cost=4.0)
        c.insert("cheap", cost=1.0)
        for i in range(10):  # churn to inflate L beyond 4
            c.insert(f"filler{i}", cost=6.0)
            c.lookup("cheap") if c.contains("cheap") else c.insert("cheap", cost=1.0)
        assert not c.contains("old-dear")

    def test_credit_never_below_inflation(self):
        c = GreedyDualCache(3)
        for i in range(50):
            key = f"k{i % 7}"
            if not c.lookup(key):
                c.insert(key, cost=1.0 + (i % 5))
            for cached in c.keys():
                assert c.credit(cached) >= c.inflation - 1e-9

    def test_inflation_monotone(self):
        c = GreedyDualCache(2)
        last = 0.0
        for i in range(30):
            c.insert(f"k{i}", cost=1.0 + (i % 3))
            assert c.inflation >= last
            last = c.inflation

    def test_unit_size_equals_classic_gd(self):
        # With uniform costs and unit sizes GD degenerates to FIFO-with-
        # renewal: the least recently inserted/hit object is evicted.
        c = GreedyDualCache(2)
        c.insert("a")
        c.insert("b")
        c.lookup("a")
        assert c.insert("c") == ["b"]

    def test_size_divides_credit(self):
        c = GreedyDualCache(10)
        c.insert("big", cost=8.0, size=4)
        c.insert("small", cost=8.0, size=1)
        assert c.credit("big") == pytest.approx(2.0)
        assert c.credit("small") == pytest.approx(8.0)

    def test_oversized_rejected(self):
        c = GreedyDualCache(2)
        assert c.insert("x", size=3) == ["x"]

    def test_invalid_params(self):
        c = GreedyDualCache(2)
        with pytest.raises(ValueError):
            c.insert("x", cost=-1.0)
        with pytest.raises(ValueError):
            c.insert("x", size=0)

    def test_remove(self):
        c = GreedyDualCache(2)
        c.insert("a")
        assert c.remove("a") is True
        assert c.remove("a") is False
        with pytest.raises(KeyError):
            c.credit("a")

    def test_min_credit_matches_next_eviction(self):
        c = GreedyDualCache(3)
        c.insert("a", cost=2.0)
        c.insert("b", cost=1.0)
        c.insert("c", cost=3.0)
        # The smallest live (priority, seq) record is the next victim.
        assert min(rec[2:4] for rec in c._entries.values())[0] == pytest.approx(1.0)
        assert c.insert("d", cost=9.0) == ["b"]

    def test_zero_capacity(self):
        c = GreedyDualCache(0)
        assert c.insert("a") == ["a"]

    def test_classic_gd_flag_ignores_size_in_credit(self):
        c = GreedyDualCache(10, credit_by_size=False)
        c.insert("big", cost=8.0, size=4)
        c.insert("small", cost=8.0, size=1)
        assert c.credit("big") == pytest.approx(8.0)
        assert c.credit("small") == pytest.approx(8.0)

    def test_growing_refresh_never_evicts_itself(self):
        # Regression: a refresh-insert that grows and forces evictions
        # used to crash (KeyError) when the refreshed key held the
        # minimum credit — its stale heap entry was popped as a victim.
        c = GreedyDualCache(4)
        c.insert("a", cost=1.0, size=2)
        c.insert("b", cost=9.0, size=2)
        assert c.insert("a", cost=1.0, size=4) == ["b"]
        assert c.contains("a") and not c.contains("b")
        assert len(c) == 4

    def test_oversized_refresh_drops_stale_copy(self):
        # Regression: a refresh-insert that grows past the capacity must
        # drop the cached copy, not keep serving the old version while
        # reporting the key evicted.
        c = GreedyDualCache(4)
        c.insert("a", cost=1.0, size=2)
        assert c.insert("a", cost=1.0, size=9) == ["a"]
        assert not c.contains("a")
        assert len(c) == 0
        assert c.insert("b", cost=1.0, size=4) == []


class NaiveGds:
    """Brute-force greedy-dual(-size): linear-scan min, in-place credits.

    The reference the O(log n) lazy-heap implementation is checked
    against: same credit rule, eviction rule and inflation update, with
    ties broken by insertion/refresh order (the heap's sequence number).
    """

    def __init__(self, capacity, credit_by_size=True):
        self.capacity = capacity
        self.credit_by_size = credit_by_size
        self.L = 0.0
        self.seq = 0
        self.entries = {}  # key -> [credit, seq, size, cost]
        self.used = 0

    def _credit(self, cost, size):
        return self.L + (cost / size if self.credit_by_size else cost)

    def lookup(self, key):
        e = self.entries.get(key)
        if e is None:
            return False
        self.seq += 1
        e[0] = self._credit(e[3], e[2])
        e[1] = self.seq
        return True

    def insert(self, key, cost, size):
        old = self.entries.pop(key, None)
        if old is not None:
            self.used -= old[2]
        if size > self.capacity:
            return [key]
        evicted = []
        while self.used + size > self.capacity:
            victim = min(self.entries, key=lambda k: tuple(self.entries[k][:2]))
            credit = self.entries[victim][0]
            if credit > self.L:
                self.L = credit
            self.used -= self.entries.pop(victim)[2]
            evicted.append(victim)
        self.seq += 1
        self.entries[key] = [self._credit(cost, size), self.seq, size, cost]
        self.used += size
        return evicted

    def remove(self, key):
        e = self.entries.pop(key, None)
        if e is None:
            return False
        self.used -= e[2]
        return True

    def clear(self):
        self.entries.clear()
        self.used = 0


def test_insert_absent_rejects_at_zero_capacity():
    cache = GreedyDualCache(0)
    assert cache.insert_absent("a", 1.0, 1) == ["a"] == GreedyDualCache(0).insert("a")
    assert len(cache) == 0 and not cache.contains("a")


def gd_state(cache):
    """Everything a later operation can observe: each key's ``[size,
    credit, priority, seq]`` record (``heap_seq`` is how far
    reconciliation got, not state), the sequence counter, bytes used,
    inflation and statistics."""
    return (
        {k: rec[:4] for k, rec in cache._entries.items()},
        cache._seq,
        cache._used,
        cache.inflation,
        stats_of(cache),
    )


class TestInsertAbsent:
    """``insert_absent`` against ``insert`` on an absent key, unit sizes
    (what every unit-size workload inserts) weighted in."""

    @given(
        st.integers(min_value=0, max_value=12),
        st.booleans(),
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "insert", "lookup", "remove"]),
                st.integers(min_value=0, max_value=9),
                # Few distinct costs: ties on the credit exercise the seq.
                st.sampled_from([0.5, 1.0, 2.0, 7.0]),
                st.one_of(st.just(1), st.integers(min_value=1, max_value=14)),
            ),
            max_size=80,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_victims_heap_and_stats_as_insert(self, capacity, credit_by_size, ops):
        fused = GreedyDualCache(capacity, credit_by_size=credit_by_size)
        plain = GreedyDualCache(capacity, credit_by_size=credit_by_size)
        for op, key, cost, size in ops:
            if op == "lookup":
                assert fused.lookup(key) == plain.lookup(key)
            elif op == "remove":
                assert fused.remove(key) == plain.remove(key)
            elif fused.contains(key):
                # Not absent: out of the sibling's contract, insert on both.
                assert fused.insert(key, cost=cost, size=size) == plain.insert(
                    key, cost=cost, size=size
                )
            else:
                victims = plain.insert(key, cost=cost, size=size)
                assert fused.insert_absent(key, cost, size) == victims
            assert gd_state(fused) == gd_state(plain)
            assert fused._used <= capacity

    def test_rejects_what_can_never_fit(self):
        for capacity, size in [(0, 1), (4, 5)]:
            cache = GreedyDualCache(capacity)
            cache.insert("resident", cost=1.0, size=capacity or 1)
            before = gd_state(cache)
            assert cache.insert_absent("big", 1.0, size) == ["big"]
            assert gd_state(cache) == before and not cache.contains("big")

    def test_multi_victim_eviction_can_leave_free_space(self):
        cache = GreedyDualCache(10)
        cache.insert("a", cost=1.0, size=2)
        cache.insert("b", cost=7.0, size=7)
        # 1 unit free, 4 needed: evicting a (2) is not enough, b (7) is too much.
        assert cache.insert_absent("c", 9.0, 4) == ["a", "b"]
        assert len(cache) == 4 and cache.free_space == 6
        assert cache.inflation == 1.0 and cache.credit("c") == 1.0 + 9.0 / 4


class TestAgainstNaiveGds:
    """The record store against the linear-scan model over a mix that
    reaches every exit of the one eviction loop: live heads (the last
    one leaves by ``heapreplace``), lazily raised heads (re-pushed by
    ``heapreplace``), heads whose key was removed, cleared or refreshed
    (popped), and ``_compact`` once stale entries pile up."""

    @pytest.mark.parametrize("capacity", [32, 80])
    @pytest.mark.parametrize("credit_by_size", [True, False])
    def test_randomized_sized_run_matches_model(self, credit_by_size, capacity, monkeypatch):
        compactions = []
        compact = GreedyDualCache._compact
        monkeypatch.setattr(
            GreedyDualCache, "_compact", lambda self: compactions.append(compact(self))
        )
        rng = random.Random(credit_by_size * 1000 + capacity)
        cache = GreedyDualCache(capacity, credit_by_size=credit_by_size)
        model = NaiveGds(capacity, credit_by_size=credit_by_size)
        refreshes = {"lower": 0, "raise": 0}
        for _ in range(4000):
            key = f"k{rng.randrange(24)}"
            op = rng.random()
            if op < 0.35:
                assert cache.lookup(key) == model.lookup(key)
            elif op < 0.42:
                assert cache.remove(key) == model.remove(key)
            elif op < 0.425:
                cache.clear()
                model.clear()
            else:
                # Random float costs keep credits tie-free, so the
                # eviction order is fully determined by the credit rule.
                cost = rng.uniform(0.5, 10.0)
                size = rng.randrange(1, 9)
                if cache.contains(key):
                    # A refresh: the new credit lands below or above the
                    # cached one, and the stale heap entry must never win.
                    new = model.L + (cost / size if credit_by_size else cost)
                    refreshes["lower" if new < model.entries[key][0] else "raise"] += 1
                    got = cache.insert(key, cost=cost, size=size)
                elif rng.random() < 0.5:
                    # The insert of an absent key has its own method; the
                    # other half of the absent keys go through insert, so
                    # both meet the model on multi-victim evictions.
                    got = cache.insert_absent(key, cost, size)
                else:
                    got = cache.insert(key, cost=cost, size=size)
                assert got == model.insert(key, cost=cost, size=size)
            assert len(cache) == model.used
            assert cache.inflation == pytest.approx(model.L)
            assert set(cache.keys()) == set(model.entries)
            for k, e in model.entries.items():
                assert cache.credit(k) == pytest.approx(e[0])
                assert cache._entries[k][3] == e[1]  # the same tie-break seq
        assert cache.stats.evictions > 100
        assert min(refreshes.values()) > 50, refreshes
        assert compactions, "no stale-entry build-up reached _compact"
