"""Differential oracle for the counting Bloom filter (model-based correctness).

A hypothesis state machine drives ``add`` / ``remove`` / ``discard`` /
``__contains__`` / ``clear`` on the real filter and on a naive model: one
Python int per slot, indices recomputed from ``hashlib`` on every call, no
memo, removal by explicit multiplicity.  The filters are tiny on purpose,
so a key's indices coincide and counters saturate at 15 within a few steps.
"""

import hashlib
import math
from collections import Counter
from unittest import mock

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import repro.bloom.bloom as bloom_module
from repro.bloom import CountingBloomFilter

from .test_bloom import counters

KEYS = st.one_of(
    st.integers(min_value=0, max_value=11),
    st.sampled_from(["", "a", "http://site/1", b"", b"a", 1 << 127]),
)


class NaiveCountingBloom:
    def __init__(self, num_bits: int, num_hashes: int) -> None:
        self.num_bits, self.num_hashes = num_bits, num_hashes
        self.slots = [0] * num_bits
        self.count = 0

    def indices(self, key) -> list[int]:
        if isinstance(key, int):
            data = key.to_bytes(max(1, (key.bit_length() + 7) // 8), "little")
        else:
            data = key.encode("utf-8") if isinstance(key, str) else key
        digest = hashlib.blake2b(data, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little")
        return [(h1 + i * h2) % self.num_bits for i in range(self.num_hashes)]

    def add(self, key) -> None:
        for i in self.indices(key):
            self.slots[i] = min(15, self.slots[i] + 1)
        self.count += 1

    def holds(self, key) -> bool:
        """Every unsaturated slot has one count per index of the key on it."""
        need = Counter(self.indices(key))
        return all(self.slots[i] >= min(n, 15) for i, n in need.items())

    def discard(self, key) -> bool:
        if not self.holds(key):
            return False
        for i, n in Counter(self.indices(key)).items():
            if self.slots[i] < 15:  # saturated slots are sticky
                self.slots[i] -= n
        self.count -= 1
        return True

    def __contains__(self, key) -> bool:
        return all(self.slots[i] > 0 for i in self.indices(key))


def one_entry_memo():
    """The filter's index memo emptied at every second key."""
    return mock.patch.object(bloom_module, "_MEMO_CAP", 1)


class BloomMachine(RuleBasedStateMachine):
    @initialize(num_bits=st.integers(1, 12), num_hashes=st.integers(1, 4))
    def build(self, num_bits, num_hashes):
        shape = {"num_bits": num_bits, "num_hashes": num_hashes}
        self.model = NaiveCountingBloom(**shape)
        self.real = CountingBloomFilter(**shape)
        self.forgetful = CountingBloomFilter(**shape)  # same answers, memo of one
        self.live = Counter()  # keys added and not yet removed
        self.only_live_removed = True

    @rule(key=KEYS)
    def add(self, key):
        self.model.add(key)
        self.real.add(key)
        with one_entry_memo():
            self.forgetful.add(key)
        self.live[key] += 1

    @rule(key=KEYS)
    def discard(self, key):
        removed = self.model.discard(key)
        assert self.real.discard(key) is removed
        with one_entry_memo():
            assert self.forgetful.discard(key) is removed
        if removed and self.live[key]:
            self.live[key] -= 1
        elif removed:
            # A false positive was "removed": the counts no longer cover
            # the live keys.  The design accepts that (eviction notices
            # only arrive for stored objects); the oracle stops asking.
            self.only_live_removed = False
        elif self.only_live_removed:
            assert not self.live[key], "a live key must be removable"

    @precondition(lambda self: self.only_live_removed and any(self.live.values()))
    @rule(data=st.data())
    def remove_live(self, data):
        key = data.draw(st.sampled_from(sorted(+self.live, key=repr)))
        assert self.model.discard(key)
        self.real.remove(key)
        with one_entry_memo():
            self.forgetful.remove(key)
        self.live[key] -= 1

    @rule(key=KEYS)
    def remove_or_refuse(self, key):
        if self.model.holds(key):
            return  # only the refusal is of interest here
        with pytest.raises(KeyError):
            self.real.remove(key)
        with one_entry_memo(), pytest.raises(KeyError):
            self.forgetful.remove(key)

    @rule(key=KEYS)
    def contains(self, key):
        expected = key in self.model
        assert (key in self.real) is expected
        with one_entry_memo():
            assert (key in self.forgetful) is expected

    @rule()
    def clear(self):
        self.model = NaiveCountingBloom(self.model.num_bits, self.model.num_hashes)
        self.real.clear()
        self.forgetful.clear()
        self.live.clear()
        self.only_live_removed = True

    @invariant()
    def slot_for_slot(self):
        assert counters(self.real) == self.model.slots
        assert counters(self.forgetful) == self.model.slots
        assert self.real.count == self.forgetful.count == self.model.count
        assert len(self.forgetful._memo) <= 1

    @invariant()
    def slots_stay_in_range_and_memory_stays_packed(self):
        m = self.model.num_bits
        for counting in (self.real, self.forgetful):
            assert all(0 <= c <= 15 for c in counters(counting))
            assert counting.memory_bytes() == math.ceil(m / 2)

    @invariant()
    def no_false_negatives(self):
        if self.only_live_removed:
            assert all(key in self.real for key in +self.live)


BloomMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=60, deadline=None
)
TestBloomMachine = BloomMachine.TestCase
