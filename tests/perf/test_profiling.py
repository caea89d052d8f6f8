"""Profiling wrapper and per-scheme op-counter collection."""

import dataclasses

import pytest

from repro.core.run import SCHEME_REGISTRY, generate_workloads, run_scheme
from repro.experiments.robustness import robustness_plan
from repro.netmodel import TIER_LOCAL_P2P, TIER_LOCAL_PROXY
from repro.experiments.runner import base_config
from repro.faults import run_scheme_with_faults
from repro.perf import (
    OpCounterCollector,
    collecting_op_counters,
    op_counters_for,
    profile_call,
)


def tiny_config():
    cfg = base_config()
    wl = dataclasses.replace(
        cfg.workload, n_requests=800, n_objects=150, n_clients=10
    )
    return dataclasses.replace(cfg, workload=wl, n_proxies=2)


class TestProfileCall:
    def test_returns_result_and_report_shape(self):
        def work(n):
            return sum(i * i for i in range(n))

        result, report = profile_call(work, 10_000, top=5)
        assert result == sum(i * i for i in range(10_000))
        assert report["total_time_sec"] >= 0
        assert report["total_calls"] > 0
        assert 0 < len(report["top_functions"]) <= 5
        entry = report["top_functions"][0]
        assert set(entry) == {
            "function", "file", "line", "ncalls", "tottime_sec", "cumtime_sec"
        }

    def test_propagates_exceptions(self):
        def boom():
            raise ValueError("x")

        try:
            profile_call(boom)
        except ValueError:
            pass
        else:
            raise AssertionError("exception swallowed")


class TestOpCounters:
    def test_counts_scheme_cache_activity(self):
        cfg = tiny_config()
        traces = generate_workloads(cfg, seed=0)
        with collecting_op_counters() as collector:
            run_scheme("hier-gd", cfg, traces=traces)
        counters = collector.per_scheme["hier-gd"]
        # 2 clusters x (1 proxy + 10 clients) caches.
        assert counters["n_caches"] == 22
        assert counters["runs"] == 1
        assert counters["hits"] > 0
        assert counters["misses"] > 0
        assert counters["insertions"] > 0
        assert "GreedyDualCache" in counters["by_cache_type"]
        bucket = counters["by_cache_type"]["GreedyDualCache"]
        assert bucket["n_caches"] == 22

        # A faulty run is assembled by the same function, so it reports too.
        with collecting_op_counters() as collector:
            run_scheme_with_faults(
                "hier-gd", cfg, traces=traces, plan=robustness_plan(0.1)
            )
        faulty = collector.per_scheme["hier-gd"]
        assert faulty["runs"] == 1 and faulty["hits"] > 0
        assert faulty["protocol"]["links"]

    def test_repeat_runs_are_summed(self):
        cfg = tiny_config()
        traces = generate_workloads(cfg, seed=0)
        with collecting_op_counters() as collector:
            run_scheme("sc", cfg, traces=traces)
        once = dict(collector.per_scheme["sc"])
        with collecting_op_counters() as collector:
            run_scheme("sc", cfg, traces=traces)
            run_scheme("sc", cfg, traces=traces)
        twice = collector.per_scheme["sc"]
        assert twice["runs"] == 2
        for key in ("hits", "misses", "insertions", "evictions"):
            assert twice[key] == 2 * once[key]
        assert twice["n_caches"] == once["n_caches"]

    def test_repeat_runs_fold_traffic_and_overlays(self):
        cfg = tiny_config()
        traces = generate_workloads(cfg, seed=0)
        with collecting_op_counters() as collector:
            run_scheme("hier-gd", cfg, traces=traces)
        once = collector.per_scheme["hier-gd"]
        with collecting_op_counters() as collector:
            run_scheme("hier-gd", cfg, traces=traces)
            run_scheme("hier-gd", cfg, traces=traces)
        twice = collector.per_scheme["hier-gd"]
        assert set(twice) == set(once)
        for section in ("exchanges", "links"):
            assert twice["protocol"][section] == {
                k: 2 * n for k, n in once["protocol"][section].items()
            }
        assert twice["by_cache_type"]["GreedyDualCache"]["n_caches"] == 22
        (backend,) = once["overlay"]
        one, two = once["overlay"][backend], twice["overlay"][backend]
        # Fleet sizes and the worst route take the max; work is summed.
        assert two["overlays"] == one["overlays"] and two["max_hops"] == one["max_hops"]
        assert two["messages"] == 2 * one["messages"] > 0
        assert two["total_hops"] == 2 * one["total_hops"]
        assert two["mean_route_hops"] == two["total_hops"] / two["messages"]

    def test_inactive_by_default(self):
        cfg = tiny_config()
        # No collector active: run_scheme must not record anywhere.
        result = run_scheme("nc", cfg, traces=generate_workloads(cfg, seed=0))
        assert result.n_requests == 2 * cfg.workload.n_requests

    def test_op_counters_for_direct(self):
        class FakeScheme:
            pass

        scheme = FakeScheme()
        counters = op_counters_for(scheme)
        assert counters["n_caches"] == 0
        assert counters["by_cache_type"] == {}

    def test_collector_nesting_restores_previous(self):
        with collecting_op_counters() as outer:
            with collecting_op_counters() as inner:
                cfg = tiny_config()
                run_scheme("nc", cfg, traces=generate_workloads(cfg, seed=0))
            assert "nc" in inner.per_scheme
            assert "nc" not in outer.per_scheme
            # Outer collector is active again after the inner block.
            cfg = tiny_config()
            run_scheme("sc", cfg, traces=generate_workloads(cfg, seed=0))
            assert "sc" in outer.per_scheme

    def test_collector_record_isolated(self):
        class FakeStats:
            hits = 3
            misses = 2
            insertions = 2
            evictions = 1

        class FakeCache:
            pass

        # OpCounterCollector only counts real Cache instances.
        collector = OpCounterCollector()
        scheme = type("S", (), {})()
        scheme.cache = FakeCache()
        collector.record("s", scheme)
        assert collector.per_scheme["s"]["n_caches"] == 0


class TestLfuFamilyStats:
    """``op_counters_for`` reads every cache's ``CacheStats``, so a fused
    request path that drops a counter would corrupt ``--profile``
    silently.  Without warmup every request is one reference of its
    cluster's cache, and only a hit is served locally."""

    @pytest.mark.parametrize("sizes", ["off", "heavy-tailed"])
    @pytest.mark.parametrize("name", ["nc", "sc", "nc-ec", "sc-ec"])
    def test_counters_match_the_result(self, name, sizes):
        cfg = tiny_config()
        cfg = dataclasses.replace(
            cfg,
            warmup_fraction=0.0,
            proxy_cache_fraction=0.1,
            workload=dataclasses.replace(cfg.workload, object_sizes=sizes),
        )
        traces = generate_workloads(cfg, seed=0)
        scheme = SCHEME_REGISTRY[name](cfg, traces)
        result = scheme.run()
        assert result.n_requests == sum(len(t) for t in traces)
        for cache, trace in zip(scheme.caches, traces):
            stats = cache.stats
            assert stats.hits + stats.misses == len(trace)
            assert stats.insertions - stats.evictions == len(list(cache.keys()))
            assert stats.evictions > 0
        local = result.tier_counts.get(TIER_LOCAL_PROXY, 0)
        local += result.tier_counts.get(TIER_LOCAL_P2P, 0)
        counters = op_counters_for(scheme)
        assert counters["n_caches"] == len(traces)
        assert counters["hits"] == local
        assert counters["hits"] + counters["misses"] == result.n_requests


class TestProfileScheme:
    def test_end_to_end_report(self):
        cfg = tiny_config()
        with collecting_op_counters() as collector:
            result, report = profile_call(run_scheme, "hier-gd", cfg, seed=0, top=10)
        assert result.n_requests == 2 * cfg.workload.n_requests
        assert result.total_latency > 0
        assert report["total_calls"] > 0
        assert len(report["top_functions"]) <= 10
        assert collector.per_scheme["hier-gd"]["n_caches"] == 22
