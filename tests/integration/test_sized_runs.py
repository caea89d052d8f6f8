"""End-to-end invariants of size-aware runs (heavy-tailed object sizes).

The sizes-off byte-identity half of the story lives in
``tests/integration/test_golden_overlay.py`` (golden comparison at smoke
scale); the sized path has no golden history, so these tests pin its
determinism and conservation laws at a scale small enough for the tier-1
suite.
"""

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.metrics import byte_hit_rate, byte_latency_gain
from repro.core.run import available_schemes, run_scheme
from repro.core.schemes import NcScheme
from repro.experiments.store import serialize_result
from repro.netmodel import ALL_TIERS
from repro.workload import ProWGenConfig, generate_cluster_traces
from repro.workload.trace import Trace


def sized_setup(seed, n_proxies=2, **overrides):
    cfg = SimulationConfig(
        workload=ProWGenConfig(
            n_requests=4000, n_objects=300, n_clients=8,
            object_sizes="heavy-tailed",
        ),
        n_proxies=n_proxies,
        proxy_cache_fraction=0.3,
        client_cache_fraction=0.0125,
        **overrides,
    )
    traces = generate_cluster_traces(cfg.workload, n_proxies, seed=seed)
    return cfg, traces


class TestByteConservation:
    @pytest.mark.parametrize("scheme", available_schemes())
    def test_tier_bytes_sum_to_total(self, scheme):
        cfg, traces = sized_setup(seed=1)
        result = run_scheme(scheme, cfg, traces)
        total = result.extras["bytes_total"]
        assert total > 0
        assert sum(
            result.extras.get(f"bytes_{t}", 0.0) for t in ALL_TIERS
        ) == pytest.approx(total)
        assert 0.0 <= byte_hit_rate(result) <= 1.0

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_byte_latency_is_tier_weighted_byte_sum(self, scheme):
        cfg, traces = sized_setup(seed=2)
        result = run_scheme(scheme, cfg, traces)
        net = cfg.network
        want = sum(
            net.latency(t) * result.extras.get(f"bytes_{t}", 0.0)
            for t in ALL_TIERS
        )
        assert result.extras["byte_latency"] == pytest.approx(want)

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_independent_trace_generations_serialize_identically(self, scheme):
        first, second = (
            serialize_result(run_scheme(scheme, *sized_setup(seed=6))) for _ in range(2)
        )
        assert first == second

    def test_byte_gain_computes_against_nc(self):
        cfg, traces = sized_setup(seed=3)
        nc = run_scheme("nc", cfg, traces)
        sc = run_scheme("sc", cfg, traces)
        gain = byte_latency_gain(sc, nc)
        assert -2.0 < gain < 1.0

    def test_sizes_off_reports_no_byte_extras(self):
        cfg = SimulationConfig(
            workload=ProWGenConfig(n_requests=2000, n_objects=200, n_clients=8),
            n_proxies=2,
            proxy_cache_fraction=0.3,
            client_cache_fraction=0.0125,
        )
        traces = generate_cluster_traces(cfg.workload, 2, seed=4)
        result = run_scheme("sc", cfg, traces)
        assert "bytes_total" not in result.extras
        with pytest.raises(ValueError):
            byte_hit_rate(result)


class TestSizePlumbing:
    def test_mixed_sizedness_rejected(self):
        cfg, traces = sized_setup(seed=5)
        stripped = Trace(
            object_ids=traces[1].object_ids,
            client_ids=traces[1].client_ids,
            n_objects=traces[1].n_objects,
            n_clients=traces[1].n_clients,
        )
        with pytest.raises(ValueError, match="agree on carrying sizes"):
            NcScheme(cfg, [traces[0], stripped])

    def test_gd_cost_model_changes_sized_results(self):
        cfg, traces = sized_setup(seed=7)
        gds = run_scheme("hier-gd", cfg, traces)
        gd = run_scheme(
            "hier-gd", cfg.with_changes(gd_cost_model="gd"), traces
        )
        assert gds.total_latency != gd.total_latency

    def test_gd_cost_model_validated(self):
        with pytest.raises(ValueError, match="gd_cost_model"):
            SimulationConfig(
                workload=ProWGenConfig(n_requests=10, n_objects=5, n_clients=2),
                gd_cost_model="bogus",
            )

    def test_sharded_hier_gd_takes_sized_workloads(self):
        from repro.core.hiergd import HierGdScheme
        from repro.shard import ShardView

        cfg, traces = sized_setup(seed=8)
        view = ShardView(
            [0, 1], 2, warmup=0, round_requests=len(traces[0]),
            exchange=lambda round_index, deltas, pushes: (deltas, pushes),
        )
        scheme = HierGdScheme(cfg, traces)
        view.attach(scheme)
        assert scheme.run() == run_scheme("hier-gd", cfg, traces)

    def test_size_table_deterministic_per_seed(self):
        cfg, traces = sized_setup(seed=9)
        _, again = sized_setup(seed=9)
        _, other = sized_setup(seed=10)
        assert np.array_equal(traces[0].sizes, again[0].sizes)
        assert np.array_equal(traces[0].sizes, traces[1].sizes)
        assert not np.array_equal(traces[0].sizes, other[0].sizes)
