"""Tests for the positional LRU stack, including a model check."""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.workload.lru_stack import LruStack


def top_down(stack):
    """Members from top (most recent) to bottom; the top is the list's tail."""
    return stack._items[::-1]


def filled(capacity, members):
    s = LruStack(capacity)
    for x in members:
        s.push(x)
    return s


class TestBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LruStack(-1)

    def test_zero_capacity_absorbs_nothing(self):
        s = LruStack(0)
        assert s.push("a") is None
        assert len(s) == 0

    def test_push_orders_most_recent_first(self):
        assert top_down(filled(5, "abc")) == ["c", "b", "a"]

    def test_touch_moves_to_top(self):
        s = filled(5, "abc")
        assert s.push(s.pop_at(3)) is None
        assert top_down(s) == ["a", "c", "b"]
        assert len(s) == 3

    def test_overflow_evicts_lru(self):
        s = filled(2, "ab")
        assert s.push("c") == "a"
        assert top_down(s) == ["c", "b"]

    def test_remove(self):
        s = filled(4, "abc")
        assert s.pop_at(2) == "b"
        assert top_down(s) == ["c", "a"]
        with pytest.raises(IndexError):
            s.pop_at(3)
        with pytest.raises(IndexError):
            s.pop_at(0)
        assert top_down(s) == ["c", "a"]


class StackAgainstNaiveList(RuleBasedStateMachine):
    """Drive :class:`LruStack` and a most-recent-first list in lockstep
    through exactly the operations the generator performs."""

    @initialize(capacity=st.sampled_from([0, 1, 2, 3, 6]))
    def build(self, capacity):
        self.capacity = capacity
        self.stack = LruStack(capacity)
        self.model: list[int] = []  # most recent first
        self.fresh = 0  # next never-seen object: pushes are of non-members

    positions = st.integers(min_value=1, max_value=6)

    @rule()
    def push_non_member(self):
        obj, self.fresh = self.fresh, self.fresh + 1
        want = None
        if self.capacity:
            self.model.insert(0, obj)
            if len(self.model) > self.capacity:
                want = self.model.pop()
        assert self.stack.push(obj) == want

    @precondition(lambda self: self.model)
    @rule(p=positions)
    def hit_and_move_to_top(self, p):
        p = min(p, len(self.model))
        obj = self.stack.pop_at(p)
        assert obj == self.model.pop(p - 1)
        assert self.stack.push(obj) is None  # room was just made
        self.model.insert(0, obj)

    @precondition(lambda self: self.model)
    @rule(p=positions)
    def exhausted_leaves_from_its_position(self, p):
        p = min(p, len(self.model))
        assert self.stack.pop_at(p) == self.model.pop(p - 1)

    @rule(p=st.integers(min_value=-2, max_value=9))
    def out_of_range_positions_raise_and_change_nothing(self, p):
        if 1 <= p <= len(self.model):
            return
        with pytest.raises(IndexError):
            self.stack.pop_at(p)

    @invariant()
    def same_order_and_bounded(self):
        assert top_down(self.stack) == self.model
        assert len(self.stack) == len(self.model) <= self.capacity


class TestAgainstModel:
    def test_matches_list_model(self):
        run_state_machine_as_test(
            StackAgainstNaiveList,
            settings=settings(max_examples=200, stateful_step_count=60, deadline=None),
        )

    def test_randomized_long_run(self):
        # Paper-scale stack, far more steps than hypothesis explores.
        rng = random.Random(9)
        s = LruStack(50)
        model: list[int] = []
        fresh = 0
        for _ in range(20000):
            r = rng.random()
            if r < 0.35 or not model:
                want = None
                model.insert(0, fresh)
                if len(model) > 50:
                    want = model.pop()
                assert s.push(fresh) == want
                fresh += 1
            else:
                p = rng.randrange(len(model)) + 1
                obj = s.pop_at(p)
                assert obj == model.pop(p - 1)
                if r < 0.9:
                    assert s.push(obj) is None
                    model.insert(0, obj)
        assert top_down(s) == model
