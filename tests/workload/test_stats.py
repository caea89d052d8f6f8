"""ProWGen against its oracle, the trace-characterisation model."""

import numpy as np
import pytest

from repro.workload import ProWGenConfig
from repro.workload.prowgen import generate_trace
from repro.workload.trace import Trace
from tests.models.trace_stats import (
    estimate_zipf_alpha,
    mean_reuse_distance,
    reuse_distances,
    summarize,
    temporal_locality_index,
)


def mk(objs, n_objects=None):
    objs = np.asarray(objs, dtype=np.int64)
    return Trace(
        objs,
        np.zeros(len(objs), dtype=np.int32),
        n_objects=n_objects or int(objs.max()) + 1,
        n_clients=1,
    )


class TestReuseDistance:
    def test_hand_computed(self):
        # trace: a b a -> reuse of a skips {b} => distance 1
        t = mk([0, 1, 0])
        assert list(reuse_distances(t)) == [1]

    def test_immediate_rereference_is_zero(self):
        t = mk([0, 0, 0])
        assert list(reuse_distances(t)) == [0, 0]

    def test_mixed(self):
        # a b c b a: b skips {c} => 1; a skips {b, c} => 2
        t = mk([0, 1, 2, 1, 0])
        assert sorted(reuse_distances(t)) == [1, 2]

    def test_counts_distinct_not_requests(self):
        # a b b b a: the three b's between are ONE distinct object.
        t = mk([0, 1, 1, 1, 0])
        d = reuse_distances(t)
        assert list(d) == [0, 0, 1]

    def test_no_rereferences(self):
        t = mk([0, 1, 2])
        assert len(reuse_distances(t)) == 0
        assert mean_reuse_distance(t) == float("inf")

    def test_matches_naive_on_random_trace(self):
        rng = np.random.default_rng(4)
        objs = rng.integers(0, 30, size=300)
        t = mk(objs, n_objects=30)

        def naive():
            out = []
            for i, o in enumerate(objs):
                for j in range(i - 1, -1, -1):
                    if objs[j] == o:
                        out.append(len(set(objs[j + 1 : i].tolist())))
                        break
            return out

        assert sorted(reuse_distances(t).tolist()) == sorted(naive())


class TestAlphaEstimate:
    @pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0])
    def test_recovers_generator_alpha(self, alpha):
        t = generate_trace(
            ProWGenConfig(n_requests=60_000, n_objects=2_000, alpha=alpha,
                          n_clients=10),
            seed=3,
        )
        est = estimate_zipf_alpha(t)
        # Count assignment is multinomial + the "+2" floor flattens the
        # tail, so the fit runs a bit low; ordering and ballpark hold.
        assert est == pytest.approx(alpha, abs=0.25)

    def test_ordering_across_alphas(self):
        ests = []
        for alpha in (0.5, 1.0):
            t = generate_trace(
                ProWGenConfig(n_requests=60_000, n_objects=2_000, alpha=alpha,
                              n_clients=10),
                seed=3,
            )
            ests.append(estimate_zipf_alpha(t))
        assert ests[0] < ests[1]

    def test_needs_popular_objects(self):
        with pytest.raises(ValueError):
            estimate_zipf_alpha(mk([0, 1, 2]))


class TestTemporalLocality:
    def test_index_increases_with_stack_size(self):
        base = dict(n_requests=20_000, n_objects=1_000, n_clients=10)
        weak = generate_trace(ProWGenConfig(stack_fraction=0.05, **base), seed=5)
        strong = generate_trace(ProWGenConfig(stack_fraction=0.6, **base), seed=5)
        assert temporal_locality_index(strong) > temporal_locality_index(weak)

    def test_irm_trace_has_low_index(self):
        t = generate_trace(
            ProWGenConfig(n_requests=20_000, n_objects=1_000, stack_fraction=0.0,
                          n_clients=10),
            seed=6,
        )
        # Not exactly zero: fixed per-object counts (sampling without
        # replacement) leave a little residual clustering even with the
        # stack model disabled.
        assert temporal_locality_index(t) < 0.2

    def test_no_rereference_index_zero(self):
        assert temporal_locality_index(mk([0, 1, 2])) == 0.0


class TestSummary:
    def test_contains_paper_characteristics(self):
        t = generate_trace(
            ProWGenConfig(n_requests=20_000, n_objects=1_000, n_clients=10), seed=7
        )
        s = summarize(t)
        assert s["requests"] == 20_000
        assert s["distinct_objects"] == 1_000
        assert s["one_timer_fraction"] == pytest.approx(0.5, abs=0.01)
        assert 0.3 < s["zipf_alpha"] < 1.1
        assert s["temporal_locality_index"] >= 0.0
