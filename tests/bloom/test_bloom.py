"""Unit and property tests for the counting Bloom filter."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom import CountingBloomFilter, optimal_num_bits, optimal_num_hashes

def counters(cbf: CountingBloomFilter) -> list[int]:
    """Every 4-bit counter, one slot per element of the filter's list."""
    assert len(cbf._slots) == cbf.num_bits
    return list(cbf._slots)


keys = st.one_of(
    st.integers(min_value=0, max_value=(1 << 128) - 1),
    st.text(max_size=40),
    st.binary(max_size=40),
)


class TestSizing:
    def test_optimal_bits_formula(self):
        # n=1000, p=0.01 -> m ~ 9585.06 bits
        assert optimal_num_bits(1000, 0.01) == math.ceil(
            -1000 * math.log(0.01) / math.log(2) ** 2
        )

    def test_optimal_hashes_formula(self):
        m = optimal_num_bits(1000, 0.01)
        assert optimal_num_hashes(m, 1000) == round((m / 1000) * math.log(2))

    def test_lower_fp_needs_more_bits(self):
        assert optimal_num_bits(1000, 0.001) > optimal_num_bits(1000, 0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_num_bits(0, 0.01)
        with pytest.raises(ValueError):
            optimal_num_bits(10, 0.0)
        with pytest.raises(ValueError):
            optimal_num_bits(10, 1.0)
        with pytest.raises(ValueError):
            optimal_num_hashes(100, 0)


class TestBehaviour:
    def test_no_false_negatives(self):
        bf = CountingBloomFilter(capacity=500, fp_rate=0.01)
        items = [f"http://site/{i}" for i in range(500)]
        for it in items:
            bf.add(it)
        assert all(it in bf for it in items)

    def test_empty_filter_contains_nothing(self):
        bf = CountingBloomFilter(capacity=100)
        assert "x" not in bf

    def test_fp_rate_near_target(self):
        bf = CountingBloomFilter(capacity=2000, fp_rate=0.02)
        for i in range(2000):
            bf.add(i)
        probes = [f"absent-{i}" for i in range(5000)]
        fp = sum(1 for p in probes if p in bf) / len(probes)
        # Within 3x of the design point is fine for 5000 probes.
        assert fp < 0.06, f"observed fp {fp}"

    def test_clear(self):
        bf = CountingBloomFilter(capacity=10)
        bf.add("a")
        bf.clear()
        assert "a" not in bf
        assert bf.count == 0

    def test_int_str_bytes_keys_independent(self):
        bf = CountingBloomFilter(capacity=100)
        bf.add(7)
        # int 7 encodes differently from "7": no cross-contamination
        # guaranteed in general, but at least int lookups work.
        assert 7 in bf

    def test_negative_int_rejected(self):
        bf = CountingBloomFilter(capacity=10)
        with pytest.raises(ValueError):
            bf.add(-1)

    def test_unsupported_key_type(self):
        bf = CountingBloomFilter(capacity=10)
        with pytest.raises(TypeError):
            bf.add(3.14)

    def test_memory_reporting(self):
        bf = CountingBloomFilter(capacity=1000, fp_rate=0.01)
        assert bf.memory_bytes() > 0

    def test_explicit_sizing(self):
        bf = CountingBloomFilter(num_bits=64, num_hashes=3)
        assert bf.num_bits == 64 and bf.num_hashes == 3

    def test_invalid_explicit_sizing(self):
        with pytest.raises(ValueError):
            CountingBloomFilter(num_bits=0, num_hashes=3)
        with pytest.raises(ValueError):
            CountingBloomFilter(num_bits=64, num_hashes=0)


class TestCountingSpecific:
    def test_remove_restores_absence(self):
        cbf = CountingBloomFilter(capacity=100)
        cbf.add("obj")
        cbf.remove("obj")
        assert "obj" not in cbf
        assert cbf.count == 0

    def test_remove_absent_raises(self):
        cbf = CountingBloomFilter(capacity=100)
        with pytest.raises(KeyError):
            cbf.remove("never-added")

    def test_discard(self):
        cbf = CountingBloomFilter(capacity=100)
        cbf.add("a")
        assert cbf.discard("a") is True
        assert cbf.discard("a") is False

    def test_duplicate_adds_need_matching_removes(self):
        cbf = CountingBloomFilter(capacity=100)
        cbf.add("x")
        cbf.add("x")
        cbf.remove("x")
        assert "x" in cbf  # one copy still accounted
        cbf.remove("x")
        assert "x" not in cbf

    def test_interleaved_add_remove_no_false_negatives(self):
        cbf = CountingBloomFilter(capacity=1000, fp_rate=0.01)
        live = set()
        for i in range(2000):
            k = f"obj-{i % 700}"
            if k in live:
                cbf.remove(k)
                live.remove(k)
            else:
                cbf.add(k)
                live.add(k)
        assert all(k in cbf for k in live)

    def test_saturation_is_sticky_not_wrapping(self):
        cbf = CountingBloomFilter(num_bits=8, num_hashes=1)
        assert CountingBloomFilter.MAX_COUNT == 15  # Summary Cache's 4 bits
        (slot,) = cbf._indices("y")
        for _ in range(20):  # five past saturation: no wrap to 0
            cbf.add("y")
        assert counters(cbf)[slot] == 15
        for _ in range(20):  # saturated slots don't decrement
            cbf.remove("y")
        assert counters(cbf)[slot] == 15 and "y" in cbf
        assert cbf.count == 0

    def test_neighbouring_slots_stay_isolated(self):
        # Moving a slot never moves its neighbours, saturated or empty
        # (slots 2i and 2i+1 are one byte of the modelled packed layout).
        cbf = CountingBloomFilter(num_bits=8, num_hashes=1)
        by_slot = {}
        for key in range(200):
            by_slot.setdefault(cbf._indices(key)[0], key)
        assert sorted(by_slot) == list(range(8))
        expect = [0] * 8
        for slot, times in ((0, 5), (1, 9), (6, 15), (7, 1)):
            for _ in range(times):
                cbf.add(by_slot[slot])
            expect[slot] = times
            assert counters(cbf) == expect
        for _ in range(5):
            cbf.remove(by_slot[0])
        cbf.remove(by_slot[7])
        expect[0] = expect[7] = 0
        assert counters(cbf) == expect
        assert by_slot[0] not in cbf and by_slot[1] in cbf

    def test_remove_inverts_add_when_indices_coincide(self):
        # h2(1) is a multiple of 64: all four indices of the int 1 are slot
        # 10.  Removal used to write "snapshot - 1" four times, leaving 3
        # counts behind and the key apparently present for ever.
        cbf = CountingBloomFilter(num_bits=64, num_hashes=4)
        assert cbf._indices(1) == (10, 10, 10, 10)
        cbf.add(1)
        assert counters(cbf)[10] == 4
        cbf.remove(1)
        assert 1 not in cbf and not any(counters(cbf))

    def test_presence_needs_one_count_per_coinciding_index(self):
        cbf = CountingBloomFilter(num_bits=64, num_hashes=4)
        assert cbf._indices(255) == (45, 10, 39, 4)
        cbf.add(255)  # slot 10 holds 1; the int 1 would need 4 there
        before = counters(cbf)
        assert cbf.discard(1) is False
        assert counters(cbf) == before and cbf.count == 1  # never underflows
        cbf.add(1)
        cbf.remove(1)
        assert counters(cbf) == before and 255 in cbf

    def test_refused_discard_leaves_saturated_slots_alone(self):
        # The undo of a refused discard re-adds only what it took: a
        # saturated slot it skipped stays at 15, never 16.
        cbf = CountingBloomFilter(num_bits=64, num_hashes=2)
        key, (first, second) = next(
            (k, cbf._indices(k)) for k in range(100) if len(set(cbf._indices(k))) == 2
        )
        filler = next(
            k for k in range(100, 1_000)
            if first in cbf._indices(k) and second not in cbf._indices(k)
        )
        for _ in range(20):
            cbf.add(filler)
        before = counters(cbf)
        assert before[first] == 15 and before[second] == 0
        assert cbf.discard(key) is False
        assert counters(cbf) == before

    def test_memory_half_byte_per_slot(self):
        cbf = CountingBloomFilter(num_bits=1000, num_hashes=3)
        assert cbf.memory_bytes() == 500

    def test_memory_smaller_than_exact_directory(self):
        # The paper's motivation: a Bloom directory is far smaller than a
        # hashtable of 128-bit objectIds, 4-bit counters included.
        n = 10_000
        cbf = CountingBloomFilter(capacity=n, fp_rate=0.01)
        exact_bytes = n * 16  # 128-bit ids alone, ignoring bucket overhead
        assert cbf.memory_bytes() < exact_bytes / 2


class TestProperties:
    @given(st.lists(keys, max_size=60, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_membership_invariant(self, items):
        bf = CountingBloomFilter(capacity=max(1, len(items)), fp_rate=0.01)
        for it in items:
            bf.add(it)
        assert all(it in bf for it in items)

    @given(st.lists(keys, max_size=40, unique=True), st.data())
    @settings(max_examples=50, deadline=None)
    def test_counting_remove_subset(self, items, data):
        cbf = CountingBloomFilter(capacity=max(1, len(items)), fp_rate=0.01)
        for it in items:
            cbf.add(it)
        if items:
            to_remove = data.draw(st.lists(st.sampled_from(items), unique=True))
            for it in to_remove:
                cbf.remove(it)
            remaining = [it for it in items if it not in to_remove]
            assert all(it in cbf for it in remaining)
