"""Tests for warmup windows and the LFU-mode knob."""

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.run import generate_workloads, run_scheme
from repro.core.schemes import NcScheme
from repro.workload import ProWGenConfig, Trace


class TestWarmup:
    def trace(self):
        objs = np.array([0, 1] * 50, dtype=np.int64)
        return Trace(objs, np.zeros(100, dtype=np.int32), n_objects=2, n_clients=1)

    def cfg(self, warmup):
        return SimulationConfig(
            workload=ProWGenConfig(n_requests=100, n_objects=10, n_clients=1),
            n_proxies=1,
            warmup_fraction=warmup,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(warmup_fraction=1.0)
        with pytest.raises(ValueError):
            SimulationConfig(warmup_fraction=-0.1)

    def test_warmup_excludes_cold_start(self):
        cold = NcScheme(self.cfg(0.0), [self.trace()]).run()
        warm = NcScheme(self.cfg(0.5), [self.trace()]).run()
        assert cold.n_requests == 100
        assert warm.n_requests == 50
        # ICS=2 -> proxy size 1; objects 0/1 alternate so steady state is
        # all misses either way, but the two cold-start fetches are gone.
        assert warm.mean_latency <= cold.mean_latency + 1e-9

    def test_warmup_improves_steady_state_reading(self):
        cfg = SimulationConfig(
            workload=ProWGenConfig(n_requests=20_000, n_objects=1_000, n_clients=10),
            n_proxies=1,
        )
        traces = generate_workloads(cfg, seed=9)
        cold = run_scheme("nc", cfg, traces)
        warm = run_scheme("nc", cfg.with_changes(warmup_fraction=0.3), traces)
        # Cold-start misses land in the excluded window: the steady-state
        # mean must be lower.
        assert warm.mean_latency < cold.mean_latency

    def test_extra_latency_respects_warmup(self):
        cfg = SimulationConfig(
            workload=ProWGenConfig(n_requests=20_000, n_objects=1_000, n_clients=10),
            n_proxies=1,
            directory="bloom",
            bloom_fp_rate=0.3,
        )
        traces = generate_workloads(cfg, seed=9)
        cold = run_scheme("hier-gd", cfg, traces)
        warm = run_scheme("hier-gd", cfg.with_changes(warmup_fraction=0.5), traces)
        assert warm.extras["extra_latency"] < cold.extras["extra_latency"]


class TestLfuMode:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(lfu_mode="approximate")

    def test_flag_derivation(self):
        assert SimulationConfig(lfu_mode="perfect").lfu_reset_on_evict is False
        assert SimulationConfig(lfu_mode="in-cache").lfu_reset_on_evict is True

    @pytest.mark.parametrize("scheme", ["nc", "sc", "nc-ec", "sc-ec"])
    def test_modes_change_behaviour(self, scheme):
        cfg = SimulationConfig(
            workload=ProWGenConfig(n_requests=10_000, n_objects=600, n_clients=10),
            proxy_cache_fraction=0.2,
        )
        traces = generate_workloads(cfg, seed=4)
        perfect = run_scheme(scheme, cfg, traces)
        incache = run_scheme(
            scheme, cfg.with_changes(lfu_mode="in-cache"), traces
        )
        assert perfect.total_latency != incache.total_latency
