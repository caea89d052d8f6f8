"""Tests that the ProWGen reimplementation honours its four knobs."""

import numpy as np
import pytest

from repro.workload.prowgen import ProWGenConfig, generate_trace, sample_object_sizes
from tests.models.trace_stats import mean_reuse_distance

SMALL = ProWGenConfig(n_requests=20_000, n_objects=1_000, n_clients=20)


class TestConfig:
    def test_defaults_match_paper(self):
        c = ProWGenConfig()
        assert c.n_requests == 1_000_000
        assert c.n_objects == 10_000
        assert c.one_timer_fraction == 0.5
        assert c.alpha == 0.7

    def test_derived_quantities(self):
        c = ProWGenConfig(n_requests=1000, n_objects=100, one_timer_fraction=0.5,
                          stack_fraction=0.2)
        assert c.n_one_timers == 50
        assert c.n_popular == 50
        assert c.stack_capacity == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ProWGenConfig(n_requests=0)
        with pytest.raises(ValueError):
            ProWGenConfig(one_timer_fraction=1.0)
        with pytest.raises(ValueError):
            ProWGenConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            ProWGenConfig(stack_fraction=1.5)
        with pytest.raises(ValueError):
            ProWGenConfig(stack_skew=-1)
        with pytest.raises(ValueError):
            # Budget too small: 100 objects need >= 50 + 2*50 refs.
            ProWGenConfig(n_requests=100, n_objects=100)


class TestGeneratedTrace:
    def test_exact_request_count_and_determinism(self):
        t1 = generate_trace(SMALL, seed=7)
        t2 = generate_trace(SMALL, seed=7)
        assert len(t1) == SMALL.n_requests
        assert np.array_equal(t1.object_ids, t2.object_ids)
        assert np.array_equal(t1.client_ids, t2.client_ids)

    def test_different_seeds_differ(self):
        t1 = generate_trace(SMALL, seed=1)
        t2 = generate_trace(SMALL, seed=2)
        assert not np.array_equal(t1.object_ids, t2.object_ids)

    def test_every_object_referenced(self):
        t = generate_trace(SMALL, seed=3)
        assert t.distinct_objects == SMALL.n_objects

    def test_one_timer_fraction_honoured(self):
        t = generate_trace(SMALL, seed=4)
        assert t.one_timer_fraction == pytest.approx(0.5, abs=0.01)
        assert t.infinite_cache_size == SMALL.n_popular

    def test_client_ids_span_cluster(self):
        t = generate_trace(SMALL, seed=5)
        assert t.n_clients == 20
        assert set(np.unique(t.client_ids)) == set(range(20))

    def test_popularity_skew_follows_alpha(self):
        lo = generate_trace(
            ProWGenConfig(n_requests=30_000, n_objects=1_000, alpha=0.5), seed=6
        )
        hi = generate_trace(
            ProWGenConfig(n_requests=30_000, n_objects=1_000, alpha=1.0), seed=6
        )
        top_share_lo = np.sort(lo.reference_counts())[-10:].sum() / len(lo)
        top_share_hi = np.sort(hi.reference_counts())[-10:].sum() / len(hi)
        assert top_share_hi > top_share_lo

    def test_ids_carry_no_popularity_signal(self):
        t = generate_trace(SMALL, seed=8)
        counts = t.reference_counts()
        # Correlation between object id and its count should be ~0.
        ids = np.arange(len(counts))
        corr = np.corrcoef(ids, counts)[0, 1]
        assert abs(corr) < 0.1

    def test_larger_stack_more_temporal_locality(self):
        # Mean reuse distance (distinct objects between successive
        # references): a larger LRU stack must reduce it.
        base = dict(n_requests=40_000, n_objects=2_000, n_clients=10)
        weak = generate_trace(ProWGenConfig(stack_fraction=0.05, **base), seed=9)
        strong = generate_trace(ProWGenConfig(stack_fraction=0.6, **base), seed=9)
        assert mean_reuse_distance(strong) < mean_reuse_distance(weak)

    def test_zero_stack_disables_locality_model(self):
        t = generate_trace(
            ProWGenConfig(n_requests=5_000, n_objects=500, stack_fraction=0.0), seed=10
        )
        assert len(t) == 5_000  # pure popularity draws still complete

    def test_trace_name_records_parameters(self):
        t = generate_trace(SMALL, seed=11)
        assert "a=0.7" in t.name and "seed=11" in t.name
        named = generate_trace(SMALL, seed=11, name="custom")
        assert named.name == "custom"


class TestObjectSizes:
    def test_basic_shape(self):
        rng = np.random.default_rng(0)
        sizes = sample_object_sizes(10_000, rng)
        assert len(sizes) == 10_000
        assert (sizes >= 64).all()
        # Heavy tail: max far above median.
        assert sizes.max() > 20 * np.median(sizes)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_object_sizes(-1, rng)
        with pytest.raises(ValueError):
            sample_object_sizes(10, rng, tail_fraction=1.5)

    def test_zero_n(self):
        rng = np.random.default_rng(0)
        assert len(sample_object_sizes(0, rng)) == 0
