"""Tests for the Exact / Bloom lookup directories (paper §4.2)."""

import numpy as np
import pytest

from repro.core.directory import (
    BloomDirectory,
    ExactDirectory,
    make_directory,
)


class TestExactDirectory:
    def test_add_contains_remove(self):
        d = ExactDirectory()
        d.add(42)
        assert 42 in d and 43 not in d
        d.remove(42)
        assert 42 not in d and len(d) == 0

    def test_remove_absent_is_noop(self):
        d = ExactDirectory()
        d.remove(1)  # must not raise
        assert len(d) == 0

    def test_add_idempotent(self):
        d = ExactDirectory()
        d.add(1)
        d.add(1)
        assert len(d) == 1

    def test_memory_is_16_bytes_per_objectid(self):
        d = ExactDirectory()
        for i in range(100):
            d.add(i)
        assert d.memory_bytes() == 1600

    def test_never_false_positive(self):
        d = ExactDirectory()
        for i in range(1000):
            d.add(i)
        assert all(i not in d for i in range(1000, 3000))


class TestBloomDirectory:
    def test_add_contains_remove(self):
        d = BloomDirectory(capacity=100)
        d.add(7)
        assert 7 in d
        d.remove(7)
        assert 7 not in d

    def test_no_false_negatives(self):
        d = BloomDirectory(capacity=500)
        for i in range(500):
            d.add(i)
        assert all(i in d for i in range(500))

    def test_remove_absent_tolerated(self):
        d = BloomDirectory(capacity=10)
        d.remove(99)  # eviction notice for an unknown object: ignore
        assert len(d) == 0

    def test_len_tracks_live_entries(self):
        d = BloomDirectory(capacity=10)
        d.add(1)
        d.add(2)
        d.remove(1)
        assert len(d) == 1

    def test_memory_tradeoff_vs_exact(self):
        # The paper's point: the Bloom directory trades memory for FPs.
        n = 10_000
        exact = ExactDirectory()
        bloom = BloomDirectory(capacity=n, fp_rate=0.01)
        for i in range(n):
            exact.add(i)
            bloom.add(i)
        assert bloom.memory_bytes() < exact.memory_bytes()

    def test_false_positive_rate_near_design_point(self):
        d = BloomDirectory(capacity=2000, fp_rate=0.02)
        for i in range(2000):
            d.add(i)
        fp = sum(1 for i in range(10_000, 15_000) if i in d) / 5000
        assert fp < 0.06


class TestFactory:
    def test_make_exact(self):
        assert isinstance(make_directory("exact", capacity=10), ExactDirectory)

    def test_make_bloom(self):
        d = make_directory("bloom", capacity=10, fp_rate=0.05)
        assert isinstance(d, BloomDirectory)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_directory("trie", capacity=10)

    def test_zero_capacity_bloom_still_works(self):
        d = make_directory("bloom", capacity=0)
        d.add(1)
        assert 1 in d

    @pytest.mark.parametrize("kind", ["exact", "bloom"])
    def test_numpy_integer_is_the_same_object_as_its_int(self, kind):
        # Trace columns are numpy arrays: an index read from one must name
        # the same entry as the int, whichever representation is configured.
        d = make_directory(kind, capacity=100)
        d.add(np.int64(5))
        assert 5 in d and np.int64(5) in d and len(d) == 1
        d.remove(5)
        assert np.int64(5) not in d and len(d) == 0
