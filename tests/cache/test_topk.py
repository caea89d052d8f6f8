"""Tests for the top-K membership tracker."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.heapdict import HeapDict
from repro.cache.topk import TopKTracker


class NaiveTracker:
    """Count mode as it was before the four-case ``add`` / ``remove``: lift
    the key out, push it back eagerly, loop until the partition rests.
    Same two ``HeapDict`` s, so value ties break exactly as they used to."""

    def __init__(self, k):
        self.k = k
        self.top = HeapDict()  # min-heap by value
        self.rest = HeapDict()  # min-heap by -value

    def add(self, key, value):
        self.top.discard(key)
        self.rest.discard(key)
        if len(self.top) < self.k:
            self.top.push(key, value)
        else:
            self.rest.push(key, -value)
        self._rebalance()

    def remove(self, key):
        removed = self.top.discard(key) or self.rest.discard(key)
        if removed:
            self._rebalance()
        return removed

    def in_top(self, key):
        return key in self.top

    def __iter__(self):
        yield from self.top
        yield from self.rest

    def _rebalance(self):
        top, rest = self.top, self.rest
        while len(top) > self.k:
            key, value = top.pop_min()
            rest.push(key, -value)
        while len(top) < self.k and len(rest):
            key, neg = rest.pop_min()
            top.push(key, -neg)
        while self.k and len(top) and len(rest):
            top_key, top_val = top.peek_min()
            rest_key, rest_neg = rest.peek_min()
            if -rest_neg <= top_val:
                break
            top.pop_min()
            rest.pop_min()
            top.push(rest_key, -rest_neg)
            rest.push(top_key, -top_val)


class NaiveBudgetTracker:
    """Byte mode as it was before the settled-partition memo: validate
    nothing, lift the key out, push it back eagerly, run the whole demote /
    promote / swap pass on every mutation.  Same two ``HeapDict`` s, so
    every ``(priority, seq)`` record can be compared.  ``demotions`` counts
    iterations of the demote loop the tracker itself no longer has."""

    def __init__(self, budget):
        self.budget = budget
        self.top = HeapDict()  # min-heap by value
        self.rest = HeapDict()  # min-heap by -value
        self.sizes = {}
        self.top_bytes = 0
        self.demotions = 0

    def add(self, key, value, size=None):
        before = None
        if self.top.discard(key):
            before = True
            self.top_bytes -= self.sizes[key]
        elif self.rest.discard(key):
            before = False
        if size is None:
            size = self.sizes.get(key, 1)
        self.sizes[key] = size
        if self.top_bytes + size <= self.budget:
            self.top.push(key, value)
            self.top_bytes += size
        else:
            self.rest.push(key, -value)
        self._rebalance()
        return before

    def remove(self, key):
        in_top = self.top.discard(key)
        if not (in_top or self.rest.discard(key)):
            return False
        size = self.sizes.pop(key)
        if in_top:
            self.top_bytes -= size
        self._rebalance()
        return True

    def in_top(self, key):
        return key in self.top

    def __iter__(self):
        return iter(self.sizes)

    def _rebalance(self):
        top, rest, sizes = self.top, self.rest, self.sizes
        while self.top_bytes > self.budget and len(top):
            self.demotions += 1
            key, value = top.pop_min()
            self.top_bytes -= sizes[key]
            rest.push(key, -value)
        while len(rest):
            key, neg = rest.peek_min()
            if self.top_bytes + sizes[key] > self.budget:
                break
            rest.pop_min()
            top.push(key, -neg)
            self.top_bytes += sizes[key]
        while len(top) and len(rest):
            top_key, top_val = top.peek_min()
            rest_key, rest_neg = rest.peek_min()
            if -rest_neg <= top_val:
                break
            if self.top_bytes - sizes[top_key] + sizes[rest_key] > self.budget:
                break
            top.pop_min()
            rest.pop_min()
            top.push(rest_key, -rest_neg)
            rest.push(top_key, -top_val)
            self.top_bytes += sizes[rest_key] - sizes[top_key]


def placements(tracker):
    return {key: tracker.in_top(key) for key in tracker}


def records(heap):
    """``{key: (priority, seq)}``: what decides every later pop and tie."""
    return {key: record[:2] for key, record in heap._live.items()}


def pop_order(heap):
    """Keys in the order ``pop_min`` would yield them: by (priority, seq)."""
    return sorted(heap._live, key=lambda key: heap._live[key][:2])


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            TopKTracker(-1)

    def test_fills_top_first(self):
        t = TopKTracker(2)
        t.add("a", 1.0)
        assert t.in_top("a")
        t.add("b", 0.5)
        assert t.in_top("b")
        assert t.top_count == 2

    def test_third_item_partitions_by_value(self):
        t = TopKTracker(2)
        t.add("a", 3.0)
        t.add("b", 1.0)
        t.add("c", 2.0)
        assert t.in_top("a") and t.in_top("c")
        assert not t.in_top("b")

    def test_update_can_promote(self):
        t = TopKTracker(1)
        t.add("a", 2.0)
        t.add("b", 1.0)
        t.update("b", 5.0)
        assert t.in_top("b") and not t.in_top("a")

    def test_update_unknown_raises(self):
        with pytest.raises(KeyError):
            TopKTracker(1).update("x", 1.0)

    def test_remove_promotes_best_of_rest(self):
        t = TopKTracker(1)
        t.add("a", 3.0)
        t.add("b", 2.0)
        t.add("c", 1.0)
        assert t.remove("a") is True
        assert t.in_top("b")  # best remaining
        assert t.remove("a") is False

    def test_k_zero_tracks_but_never_tops(self):
        t = TopKTracker(0)
        t.add("a", 9.0)
        assert not t.in_top("a")
        assert "a" in t and len(t) == 1

    def test_value_lookup(self):
        t = TopKTracker(1)
        t.add("a", 3.0)
        t.add("b", 1.0)
        assert t.value("a") == 3.0
        assert t.value("b") == 1.0

    def test_iter_and_len(self):
        t = TopKTracker(2)
        for i, k in enumerate("abc"):
            t.add(k, float(i))
        assert set(t) == {"a", "b", "c"}
        assert len(t) == 3


class TestByteBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            TopKTracker(1, budget=-1)
        with pytest.raises(ValueError):
            TopKTracker(1, budget=10).add("a", 1.0, size=0)

    def test_refused_size_leaves_the_tracker_untouched(self):
        # Validation comes before the lift-out, on the generic path ("a" is
        # the top's recorded minimum) and the two settled ones alike.
        t = TopKTracker(0, budget=10)
        t.add("a", 1.0, size=4)
        t.add("b", 2.0, size=4)
        t.add("c", 0.5, size=4)  # does not fit: the best of the rest
        t.add("d", 0.1, size=4)
        state = (records(t._top), records(t._rest), dict(t._sizes), t.top_bytes)
        for key in "abcd":
            for size in (0, -3):
                with pytest.raises(ValueError, match="size must be positive"):
                    t.add(key, 3.0, size=size)
                assert key in t and len(t) == 4
                assert state == (records(t._top), records(t._rest), t._sizes, t.top_bytes)
                assert placements(t) == {"a": True, "b": True, "c": False, "d": False}
        with pytest.raises(ValueError, match="size must be positive"):
            t.add("new", 3.0, size=0)
        assert "new" not in t and "new" not in t._sizes and len(t) == 4

    def test_partitions_by_value_within_budget(self):
        t = TopKTracker(99, budget=5)
        t.add("a", 3.0, size=3)
        t.add("b", 1.0, size=3)  # does not fit next to a
        t.add("c", 2.0, size=2)  # fits in the 2 leftover bytes
        assert t.in_top("a") and t.in_top("c") and not t.in_top("b")
        assert t.top_bytes == 5

    def test_swap_when_better_value_fits(self):
        t = TopKTracker(99, budget=4)
        t.add("low", 1.0, size=4)
        t.add("high", 9.0, size=4)  # swaps in: same bytes, higher value
        assert t.in_top("high") and not t.in_top("low")
        assert t.top_bytes == 4

    def test_no_swap_that_would_overflow(self):
        t = TopKTracker(99, budget=4)
        t.add("small", 1.0, size=2)
        t.add("tiny", 2.0, size=2)
        t.add("big", 9.0, size=3)  # best value but no 3-byte hole
        assert not t.in_top("big")
        assert t.top_bytes <= 4

    def test_update_keeps_size(self):
        t = TopKTracker(99, budget=4)
        t.add("a", 1.0, size=3)
        t.update("a", 7.0)
        assert t.in_top("a") and t.top_bytes == 3

    def test_remove_releases_bytes_and_promotes(self):
        t = TopKTracker(99, budget=4)
        t.add("a", 5.0, size=4)
        t.add("b", 1.0, size=4)
        assert not t.in_top("b")
        assert t.remove("a") is True
        assert t.in_top("b") and t.top_bytes == 4
        assert t.remove("a") is False

    def test_zero_budget_tracks_but_never_tops(self):
        t = TopKTracker(99, budget=0)
        t.add("a", 9.0, size=1)
        assert not t.in_top("a")
        assert "a" in t and t.top_bytes == 0

    def test_budget_rebalance_is_greedy_not_a_fixed_point(self):
        # One demote / promote / swap pass per mutation: the swap frees a
        # byte that only the *next* mutation's promote pass hands out.
        t = TopKTracker(99, budget=2)
        t.add("a", 1.0, size=2)
        t.add("b", 1.0, size=1)
        t.add("c", 2.0, size=1)  # swaps c for a; b now fits but stays put
        assert placements(t) == {"a": False, "b": False, "c": True}
        assert t.top_bytes == 1
        t.remove("nobody")  # not a mutation: nothing rebalances
        assert not t.in_top("b")
        t.add("a", 1.0)  # any mutation does
        assert t.in_top("b") and t.top_bytes == 2

    def test_settled_partition_skips_the_pass(self, monkeypatch):
        # The case table of the class docstring, one row each; a tie with
        # the best's value still skips (the older best pops first).
        passes = []
        rebalance = TopKTracker._rebalance_budget

        def spy(self):
            passes.append(self)
            rebalance(self)

        monkeypatch.setattr(TopKTracker, "_rebalance_budget", spy)
        t = TopKTracker(0, budget=8)
        t.add("low", 1.0, size=4)
        t.add("high", 2.0, size=4)
        t.add("best", 5.0, size=6)  # out-values both, fits next to neither
        assert placements(t) == {"low": True, "high": True, "best": False}
        del passes[:]
        assert t.add("high", 3.0) is True  # top raise, not the minimum
        assert t.add("high", 3.0) is True  # ... or an equal re-touch
        assert t.add("new", 5.0, size=2) is None  # ties the best, no room
        assert t.add("new", 4.0, size=7) is False  # rest key, other than the best
        assert placements(t) == {"low": True, "high": True, "best": False, "new": False}
        assert t.remove("new") is True
        assert passes == [] and "new" not in t
        assert t.top_bytes == 8 and "new" not in t._sizes
        # The recorded keys themselves, a drop, a size change, a fit, a top
        # remove: each runs the pass.
        for mutate in (
            lambda: t.add("low", 1.5),
            lambda: t.add("best", 5.0),
            lambda: t.add("high", 2.5),
            lambda: t.add("high", 2.5, size=3),
            lambda: t.add("small", 0.5, size=1),
            lambda: t.remove("small"),
        ):
            del passes[:]
            mutate()
            assert passes == [t]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "remove"]),
                st.integers(min_value=0, max_value=7),
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.integers(min_value=1, max_value=5),
            ),
            max_size=120,
        ),
        st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_budget_invariants(self, ops, budget):
        t = TopKTracker(10**9, budget=budget)
        model: dict[int, tuple[float, int]] = {}
        for op, key, value, size in ops:
            if op == "add":
                t.add(key, value, size=size)
                model[key] = (value, size)
            else:
                assert t.remove(key) == (key in model)
                model.pop(key, None)
            assert len(t) == len(model)
            top = {k for k in model if t.in_top(k)}
            assert t.top_bytes == sum(model[k][1] for k in top)
            assert t.top_bytes <= budget
            rest = set(model) - top
            if rest:
                # Greedy-by-value: the most valuable leftover either does
                # not fit in the remaining budget, or (on a value tie
                # with the top's worst) is not strictly better.
                best = max(rest, key=lambda k: model[k][0])
                fits = t.top_bytes + model[best][1] <= budget
                beats = top and model[best][0] > min(model[k][0] for k in top)
                assert not (fits and beats)

    def test_unit_sizes_match_count_mode(self):
        rng = random.Random(11)
        count = TopKTracker(6)
        budget = TopKTracker(6, budget=6)
        model: dict[int, float] = {}
        for _ in range(2000):
            key = rng.randrange(30)
            if rng.random() < 0.8:
                v = rng.random() * 100
                count.add(key, v)
                budget.add(key, v, size=1)
                model[key] = v
            else:
                assert count.remove(key) == budget.remove(key)
                model.pop(key, None)
            # Ties may place different keys; the value multisets agree.
            count_top = sorted(model[k] for k in model if count.in_top(k))
            budget_top = sorted(model[k] for k in model if budget.in_top(k))
            assert count_top == budget_top


#: (op, key, value): small integer values tie the way LFU counts do;
#: repeated keys give raises, drops and re-adds after a remove.
tie_heavy_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "remove"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=4).map(float),
    ),
    max_size=150,
)


class TestAgainstModel:
    @given(tie_heavy_ops, st.integers(min_value=0, max_value=5))
    @settings(max_examples=300, deadline=None)
    def test_exact_partition_matches_rebalance_loop(self, ops, k):
        """Key for key, not value multisets: the result digests depend on
        which of two equal-valued keys holds the proxy tier, and that is
        decided by the order the heaps' sequence numbers are taken in —
        so each heap's whole pop order is compared, which shows a
        misplaced sequence number at once, not when a later tie hits it."""
        tracker = TopKTracker(k)
        naive = NaiveTracker(k)
        for op, key, value in ops:
            if op == "add":
                before = tracker.in_top(key) if key in tracker else None
                assert tracker.add(key, value) is before
                naive.add(key, value)
            else:
                assert tracker.remove(key) == naive.remove(key)
            assert pop_order(tracker._top) == pop_order(naive.top)
            assert pop_order(tracker._rest) == pop_order(naive.rest)
            assert placements(tracker) == placements(naive)

    @staticmethod
    def budget_pair(budget):
        """The tracker and the whole-pass model side by side: ``step``
        applies one operation to both and compares everything the digests
        can come to depend on.  "hit" is the LFU step (a unit raise, size
        kept; a new key enters at 1), "add" an arbitrary value and size."""
        tracker = TopKTracker(0, budget=budget)
        naive = NaiveBudgetTracker(budget)

        def step(op, key, value, size):
            if op == "remove":
                assert tracker.remove(key) == naive.remove(key)
            else:
                if op == "hit" and key in tracker:
                    value, size = tracker.value(key) + 1.0, None
                elif op == "hit":
                    value = 1.0
                assert tracker.add(key, value, size=size) is naive.add(key, value, size=size)
            assert records(tracker._top) == records(naive.top)
            assert records(tracker._rest) == records(naive.rest)
            assert tracker.top_bytes == naive.top_bytes
            assert tracker._sizes == naive.sizes
            assert placements(tracker) == placements(naive)
            assert naive.demotions == 0  # the loop the tracker dropped

        return step

    #: What one operation is drawn from; an operation is one integer,
    #: decoded by ``divmod``, because a four-field tuple per operation
    #: makes hypothesis spend 85 % of the test generating data.
    OPS = ["hit", "hit", "hit", "add", "remove"]
    KEYS = 6
    VALUES = 7
    SIZES = [None, 1, 1, 2, 3, 5, 8]

    @given(
        st.lists(
            st.integers(min_value=0, max_value=len(OPS) * KEYS * VALUES * len(SIZES) - 1),
            min_size=60,  # hypothesis draws ~2x the minimum; from 0 it draws ~5
            max_size=300,
        ),
        st.sampled_from([0, 4, 9, 9, 13, 10**6]),
    )
    @settings(max_examples=400, deadline=None)
    def test_exact_budget_partition_matches_whole_pass(self, codes, budget):
        """Byte mode, record for record and placement for placement after
        every operation: a skipped pass must be one that would have moved
        nothing, and the lazy raise / single push that stands in for the
        lift-out must take the sequence number the lift-out's push took.
        Budgets 4 to 13 against sizes up to 8 make "out-values the top
        but does not fit" the resting state; 0 keeps the top empty, 10**6
        the rest."""
        step = self.budget_pair(budget)
        for code in codes:
            code, op = divmod(code, len(self.OPS))
            code, key = divmod(code, self.KEYS)
            size, value = divmod(code, self.VALUES)
            step(self.OPS[op], key, float(value), self.SIZES[size])

    @pytest.mark.parametrize("seed", range(40))
    def test_exact_budget_partition_long_runs(self, seed):
        # 600 operations reach what 300 shrinkable ones seldom do: a
        # recorded key that is touched long after the pass that recorded it.
        rng = random.Random(seed)
        step = self.budget_pair(rng.choice([0, 4, 9, 16, 10**6]))
        n_keys = rng.choice([4, 8, 16])
        for _ in range(600):
            key, value = rng.randrange(n_keys), float(rng.randrange(self.VALUES))
            step(rng.choice(self.OPS), key, value, rng.choice(self.SIZES))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "remove"]),
                st.integers(min_value=0, max_value=7),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            max_size=150,
        ),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_top_partition_matches_sorted_model(self, ops, k):
        t = TopKTracker(k)
        model: dict[int, float] = {}
        for op, key, value in ops:
            if op == "add":
                t.add(key, value)
                model[key] = value
            else:
                assert t.remove(key) == (key in model)
                model.pop(key, None)
            assert len(t) == len(model)
            assert t.top_count == min(k, len(model))
            if model and k:
                # Every top member's value >= every rest member's value.
                top = [key for key in model if t.in_top(key)]
                rest = [key for key in model if not t.in_top(key)]
                if top and rest:
                    assert min(model[x] for x in top) >= max(model[x] for x in rest)

    def test_randomized_long_run(self):
        rng = random.Random(3)
        t = TopKTracker(10)
        model: dict[int, float] = {}
        for _ in range(5000):
            key = rng.randrange(40)
            if rng.random() < 0.8:
                v = rng.random() * 100
                t.add(key, v)
                model[key] = v
            else:
                assert t.remove(key) == (key in model)
                model.pop(key, None)
        top = {key for key in model if t.in_top(key)}
        want = set(sorted(model, key=model.__getitem__, reverse=True)[:10])
        # Ties may differ; compare value multisets instead of keys.
        assert sorted(model[k] for k in top) == sorted(model[k] for k in want)
