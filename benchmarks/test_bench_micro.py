"""Micro-benchmarks for the substrates on the simulation hot path.

These are classic throughput benchmarks (statistical, many rounds) for
the data structures the guides' profiling workflow identified as the
per-request cost drivers: cache policy operations, DHT owner resolution,
Pastry routing, Bloom filter probes, and workload generation.
"""

from time import perf_counter

import numpy as np
import pytest

from repro.bloom import CountingBloomFilter
from repro.cache import GreedyDualCache, LfuCache, LruCache, TieredCache
from repro.cache.topk import TopKTracker
from repro.overlay import Dht, Overlay
from repro.workload import ProWGenConfig, generate_trace, sample_object_sizes
from repro.workload.rawdraws import RawDraws
from repro.workload.zipf import AliasSampler, zipf_weights

N_OPS = 10_000


def joined_overlay(n: int) -> Overlay:
    """A Pastry overlay of ``n`` nodes that joined one at a time."""
    overlay = Overlay()
    for i in range(n):
        overlay.add_named(f"cache-{i}")
    return overlay


@pytest.fixture(scope="module")
def zipf_stream():
    sampler = AliasSampler(zipf_weights(5_000, 0.7))
    rng = np.random.default_rng(0)
    return sampler.sample_array(rng, N_OPS).tolist()


def drive_cache(cache, stream):
    for obj in stream:
        if not cache.lookup(obj):
            cache.insert(obj, cost=20.0)
    return cache.stats.hits


@pytest.mark.parametrize(
    "factory",
    [
        pytest.param(lambda: LruCache(1000), id="lru"),
        pytest.param(lambda: LfuCache(1000), id="lfu"),
        pytest.param(lambda: GreedyDualCache(1000), id="greedy-dual"),
        pytest.param(lambda: TieredCache(500, 500), id="tiered"),
    ],
)
def test_cache_policy_throughput(benchmark, factory, zipf_stream):
    hits = benchmark(lambda: drive_cache(factory(), zipf_stream))
    assert hits > 0


@pytest.mark.parametrize("sized", [False, True], ids=["count", "bytes"])
def test_topk_rank_loop(benchmark, zipf_stream, sized, monkeypatch):
    # The ledger's ``cache.topk_ops_per_s`` loop (benchmarks/ledger/probes.py):
    # rank every object by its running reference count, as a unified LFU does;
    # "bytes" as the size-aware one does, heavy-tailed sizes against a byte
    # budget of ~30 % of their sum (count mode ignores the sizes).
    sizes = sample_object_sizes(5_000, np.random.default_rng(0)).tolist()
    budget = sum(sizes) * 3 // 10 if sized else None

    def run():
        tracker = TopKTracker(1000, budget=budget)
        seen = {}
        for obj in zipf_stream:
            n = seen.get(obj, 0) + 1
            seen[obj] = n
            tracker.add(obj, float(n), size=sizes[obj])
        return tracker, seen

    tracker, seen = benchmark(run)
    assert len(tracker) == len(seen)
    if sized:
        assert 0 < tracker.top_count < len(seen) and tracker.top_bytes <= budget
    else:
        assert tracker.top_count == 1000
    # A raise inside the top partition is one dict write: no swap, and in
    # byte mode no rebalance pass (spied on, not timed).  The top's
    # minimum is the one top key whose raise can reorder the partition.
    lowest = tracker._top.peek_min()[0]
    hot = [obj for obj in seen if tracker.in_top(obj) and obj != lowest][:100]
    passes = []
    monkeypatch.setattr(TopKTracker, "_rebalance_budget", lambda self: passes.append(self))
    for obj in hot * 10:
        seen[obj] += 1
        tracker.add(obj, float(seen[obj]))
    assert passes == [] and all(tracker.in_top(obj) for obj in hot)


def test_alias_sampler_throughput(benchmark):
    sampler = AliasSampler(zipf_weights(10_000, 0.7))
    rng = np.random.default_rng(1)
    out = benchmark(lambda: sampler.sample_array(rng, N_OPS))
    assert len(out) == N_OPS


def test_dht_owner_resolution_memoised(benchmark):
    overlay = joined_overlay(100)
    dht = Dht(overlay)
    keys = [overlay.space.object_id(f"http://o/{i}") for i in range(2000)]

    def resolve_all():
        return sum(dht.owner(k) % 2 for k in keys)

    benchmark(resolve_all)


def test_pastry_full_routing(benchmark):
    overlay = joined_overlay(100)
    keys = [overlay.space.object_id(f"k{i}") for i in range(500)]
    starts = overlay.node_ids()

    def route_all():
        total = 0
        for i, key in enumerate(keys):
            total += overlay.route(key, start=starts[i % len(starts)]).hops
        return total

    hops = benchmark(route_all)
    assert hops >= 0


def test_counting_bloom_add_remove(benchmark):
    # A lookup directory sees few distinct objects, each again and again:
    # after the first pass every operation is answered from the index memo.
    hot = range(N_OPS // 10)

    def run():
        cbf = CountingBloomFilter(capacity=N_OPS, fp_rate=0.01)
        for i in range(N_OPS):
            cbf.add(i)
        for i in range(0, N_OPS, 2):
            cbf.remove(i)
        hits = 0
        for _ in range(10):
            for i in hot:
                cbf.add(i)
            hits += sum(1 for i in hot if i in cbf)
            for i in hot:
                cbf.remove(i)
        return cbf.count, hits

    assert benchmark(run) == (N_OPS // 2, N_OPS)


def test_workload_generation_throughput(benchmark):
    config = ProWGenConfig(n_requests=20_000, n_objects=1_000, n_clients=50)
    trace = benchmark(lambda: generate_trace(config, seed=0))
    assert len(trace) == 20_000


def test_rawdraws_candidate_window_vs_numpy_scalars(benchmark):
    # ProWGen's out-of-stack candidate: ``integers(n_objects)`` then
    # ``random()``, resolved through the alias tables.  RawDraws decodes
    # a window of them in numpy and the loop reads ``cands[k]``; the
    # numpy scalar pair is all call overhead.  Measured 0.10-0.11 vs
    # 1.9-2.7 us a candidate (18-26x), gated at 10x.
    prob, alias = AliasSampler(zipf_weights(2_000, 0.7)).tables()
    prob_list, alias_list = prob.tolist(), alias.tolist()

    def numpy_pairs(rng):
        integers, random = rng.integers, rng.random
        for _ in range(N_OPS):
            obj = int(integers(2_000))
            if not random() < prob_list[obj]:
                obj = alias_list[obj]

    def window_reads(rng):
        draws = RawDraws(rng)
        cands, k = draws.cands, 0
        for _ in range(N_OPS):
            try:
                obj = cands[k]
            except IndexError:
                draws.refill(2_000, prob, alias)
                obj, k = cands[0], 0
            k += 1
        draws.sync(k)
        return obj

    def best_of_five(read):
        best = float("inf")
        for seed in range(5):
            rng = np.random.default_rng(seed)
            started = perf_counter()
            read(rng)
            best = min(best, perf_counter() - started)
        return best

    numpy_s, window_s = best_of_five(numpy_pairs), best_of_five(window_reads)
    benchmark(lambda: window_reads(np.random.default_rng(0)))
    assert numpy_s >= 10 * window_s, f"numpy {numpy_s:.4f}s vs RawDraws {window_s:.4f}s"


def test_overlay_construction(benchmark):
    overlay = benchmark(lambda: joined_overlay(100))
    assert len(overlay) == 100
