"""Tests for Zipf weights and the alias sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.zipf import AliasSampler, zipf_pmf, zipf_weights


class TestZipfWeights:
    def test_values(self):
        w = zipf_weights(4, 1.0)
        assert np.allclose(w, [1, 0.5, 1 / 3, 0.25])

    def test_alpha_zero_is_uniform(self):
        assert np.allclose(zipf_weights(5, 0.0), 1.0)

    def test_pmf_normalised(self):
        p = zipf_pmf(1000, 0.7)
        assert p.sum() == pytest.approx(1.0)
        assert (np.diff(p) <= 0).all()  # monotone decreasing

    def test_higher_alpha_more_skew(self):
        lo, hi = zipf_pmf(100, 0.5), zipf_pmf(100, 1.0)
        assert hi[0] > lo[0]
        assert hi[-1] < lo[-1]

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 0.7)
        with pytest.raises(ValueError):
            zipf_weights(10, -0.1)


class TestAliasSampler:
    def test_validation(self):
        with pytest.raises(ValueError):
            AliasSampler(np.array([]))
        with pytest.raises(ValueError):
            AliasSampler(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            AliasSampler(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            AliasSampler(np.array([0.0, 0.0]))

    def test_single_outcome(self):
        s = AliasSampler(np.array([3.0]))
        rng = np.random.default_rng(0)
        assert all(s.sample(rng) == 0 for _ in range(10))

    def test_zero_weight_never_sampled(self):
        s = AliasSampler(np.array([1.0, 0.0, 1.0]))
        rng = np.random.default_rng(0)
        draws = s.sample_array(rng, 5000)
        assert 1 not in draws

    def test_empirical_matches_pmf(self):
        w = zipf_weights(50, 0.7)
        s = AliasSampler(w)
        rng = np.random.default_rng(42)
        draws = s.sample_array(rng, 200_000)
        emp = np.bincount(draws, minlength=50) / len(draws)
        want = w / w.sum()
        assert np.abs(emp - want).max() < 0.01

    def test_scalar_and_array_agree_statistically(self):
        w = np.array([0.7, 0.2, 0.1])
        s = AliasSampler(w)
        rng = np.random.default_rng(1)
        scalar = np.array([s.sample(rng) for _ in range(30_000)])
        rng = np.random.default_rng(2)
        arr = s.sample_array(rng, 30_000)
        for i in range(3):
            a = (scalar == i).mean()
            b = (arr == i).mean()
            assert abs(a - b) < 0.02

    def test_sample_array_validation(self):
        s = AliasSampler(np.array([1.0]))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            s.sample_array(rng, -1)
        assert len(s.sample_array(rng, 0)) == 0

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_draws_always_in_support(self, weights):
        w = np.asarray(weights)
        if w.sum() <= 0:
            w = w + 1.0
        s = AliasSampler(w)
        rng = np.random.default_rng(0)
        draws = s.sample_array(rng, 100)
        assert ((0 <= draws) & (draws < len(w))).all()
        positive = np.nonzero(w > 0)[0]
        assert np.isin(draws, positive).all()


def _reference_tables(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pre-PR-12 constructor, verbatim: numpy scalars, list comprehensions."""
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    n = weights.size
    prob = np.empty(n, dtype=np.float64)
    alias = np.zeros(n, dtype=np.int64)
    scaled = weights / total * n
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        big = large.pop()
        prob[s] = scaled[s]
        alias[s] = big
        scaled[big] = (scaled[big] + scaled[s]) - 1.0
        (small if scaled[big] < 1.0 else large).append(big)
    for i in large:
        prob[i] = 1.0
    for i in small:  # numerical leftovers
        prob[i] = 1.0
    return prob, alias


class TestTablesMatchReferenceConstructor:
    """The tables fix every generated trace, so they must stay bit-identical."""

    @staticmethod
    def _residual_counts() -> np.ndarray:
        # What the generator rebuilds from mid-run: integer counts, many
        # exhausted (zero), a few large.
        rng = np.random.default_rng(3)
        counts = rng.multinomial(40_000, zipf_pmf(3_000, 0.7)).astype(np.float64)
        counts[rng.random(3_000) < 0.4] = 0.0
        return counts

    @pytest.mark.parametrize(
        "weights",
        [
            zipf_weights(5_000, 0.7),
            zipf_weights(1_000, 1.0),
            _residual_counts(),
            np.array([3.0]),
            np.array([0.0, 2.0, 0.0]),
        ],
        ids=["zipf-0.7", "zipf-1.0", "residual-counts", "single", "one-positive"],
    )
    def test_bit_identical_tables(self, weights):
        prob, alias = AliasSampler(weights).tables()
        want_prob, want_alias = _reference_tables(weights)
        assert prob.dtype == want_prob.dtype and alias.dtype == want_alias.dtype
        assert prob.tobytes() == want_prob.tobytes()
        assert alias.tobytes() == want_alias.tobytes()
