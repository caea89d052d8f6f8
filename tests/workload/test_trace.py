"""Tests for the trace container, statistics and IO."""

import numpy as np
import pytest

from repro.workload.trace import Trace, object_url


def mk(objs, clients=None, n_objects=None, n_clients=None):
    objs = np.asarray(objs)
    clients = np.zeros(len(objs), dtype=np.int32) if clients is None else np.asarray(clients)
    return Trace(
        object_ids=objs,
        client_ids=clients,
        n_objects=n_objects or (int(objs.max()) + 1 if len(objs) else 1),
        n_clients=n_clients or (int(clients.max()) + 1 if len(clients) else 1),
    )


def head(trace, n):
    """The first ``n`` requests of an in-memory or on-disk trace, read
    through its windowed accessors into an in-memory :class:`Trace`."""
    n = min(n, len(trace))
    return Trace(
        object_ids=trace.object_slice(0, n).copy(),
        client_ids=trace.client_slice(0, n).copy(),
        n_objects=trace.n_objects,
        n_clients=trace.n_clients,
        name=trace.name,
        sizes=trace.sizes,
    )


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Trace(np.array([1]), np.array([0, 0], dtype=np.int32), 2, 1)

    def test_object_out_of_range(self):
        with pytest.raises(ValueError):
            mk([0, 5], n_objects=3)

    def test_client_out_of_range(self):
        with pytest.raises(ValueError):
            mk([0], clients=[7], n_clients=2)

    def test_non_1d(self):
        with pytest.raises(ValueError):
            Trace(np.zeros((2, 2)), np.zeros((2, 2)), 4, 4)

    def test_empty_trace_ok(self):
        t = mk([])
        assert len(t) == 0
        assert t.one_timer_fraction == 0.0


class TestStatistics:
    def test_reference_counts(self):
        t = mk([0, 1, 1, 2, 2, 2])
        assert list(t.reference_counts()) == [1, 2, 3]

    def test_infinite_cache_size_counts_multireference(self):
        t = mk([0, 1, 1, 2, 2, 2, 3])
        assert t.infinite_cache_size == 2  # objects 1 and 2
        assert t.distinct_objects == 4

    def test_one_timer_fraction(self):
        t = mk([0, 1, 1, 2, 3])  # 0,2,3 one-timers of 4 referenced
        assert t.one_timer_fraction == pytest.approx(0.75)

    def test_unreferenced_objects_excluded(self):
        t = mk([0, 0], n_objects=10)
        assert t.distinct_objects == 1
        assert t.one_timer_fraction == 0.0

    def test_frequency_table(self):
        t = mk([0, 1, 1], n_objects=5)
        assert t.frequency_table() == {0: 1, 1: 2}

    def test_infinite_cache_bytes(self):
        t = mk([0, 1, 1, 2, 2], n_objects=3)
        assert t.infinite_cache_bytes == 2  # unit sizes: == object count
        t.sizes = np.array([7, 100, 1000])
        t.__post_init__()
        assert t.infinite_cache_bytes == 1100  # objects 1 and 2

    def test_sizes_validation(self):
        with pytest.raises(ValueError):
            Trace(
                np.array([0, 1]), np.zeros(2, dtype=np.int32), 2, 1,
                sizes=np.array([5]),  # wrong length
            )
        with pytest.raises(ValueError):
            Trace(
                np.array([0, 1]), np.zeros(2, dtype=np.int32), 2, 1,
                sizes=np.array([5, 0]),  # non-positive
            )


class TestTransforms:
    def test_head(self):
        t = mk([1, 2, 3, 4])
        h = head(t, 2)
        assert list(h.object_ids) == [1, 2]
        assert h.n_objects == t.n_objects


def test_object_url_stable_and_distinct():
    assert object_url(5) == object_url(5)
    assert object_url(5) != object_url(6)
    assert object_url(0).startswith("http://")
