"""Layer probes: one public structure at a time, sized from the workload.

Every probe takes the workload's config and traces, so its capacities,
key streams and object counts track the workload it runs beside, and
returns ``Probe(ops, seconds, extra)`` so each rate is printed with its
base.  A probe stops at :data:`PROBE_SECONDS`: the traced run's own time
counts toward the harness budget.
"""

from __future__ import annotations

import math
from itertools import cycle, islice
from time import perf_counter
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.bloom import CountingBloomFilter
from repro.cache import (
    CostBenefitCache,
    FrequencyOracle,
    GreedyDualCache,
    LfuCache,
    LruCache,
    TieredCache,
)
from repro.cache.topk import TopKTracker
from repro.core.directory import ExactDirectory
from repro.core.presence import PresenceIndex
from repro.faults.injector import FaultInjector
from repro.netmodel import FAULT_LINKS
from repro.overlay import build_owner_table, make_overlay, object_ids_for_urls
from repro.protocol.messages import PROXY_FETCH
from repro.protocol.policy import DEFAULT_POLICY, run_ladder
from repro.protocol.wire import (
    decode_frame,
    encode_frame,
    event_frame,
    parse_event,
    parse_request,
    request_frame,
)
from repro.shard.digest import decode_digest, encode_digest, merge_digests
from repro.workload import object_url, sample_object_sizes

#: Wall-time cap per probe.
PROBE_SECONDS = 0.25
#: Operations between two looks at the clock.
_BLOCK = 4096


class Probe(NamedTuple):
    ops: int
    seconds: float
    extra: dict[str, float] = {}

    @property
    def per_second(self) -> float:
        return self.ops / self.seconds if self.seconds else 0.0

    @property
    def ns_per_op(self) -> float:
        return 1e9 * self.seconds / self.ops if self.ops else 0.0


def _timed_blocks(items: list, step: Callable[[list], None]) -> tuple[int, float]:
    """Feed ``items`` to ``step`` block by block until the time cap."""
    done = 0
    start = perf_counter()
    for at in range(0, len(items), _BLOCK):
        block = items[at : at + _BLOCK]
        step(block)
        done += len(block)
        if perf_counter() - start > PROBE_SECONDS:
            break
    return done, perf_counter() - start


def _object_stream(traces: list) -> list[int]:
    """Cluster 0's object stream, as the request loop sees it."""
    return traces[0].object_slice(0, len(traces[0])).tolist()


def _probe_sizes(config: Any, traces: list, seed: int) -> np.ndarray:
    """The trace's own sizes, or a seeded sample where it carries none."""
    sizes = getattr(traces[0], "sizes", None)
    if sizes is not None:
        return sizes
    return sample_object_sizes(config.workload.n_objects, np.random.default_rng(seed))


# -- cache/ -------------------------------------------------------------------


def _replay(cache: Any, objs: list[int], sizes: list[int] | None) -> Probe:
    """Lookup, insert on miss: the request loop's use of one cache."""
    lookup, insert = cache.lookup, cache.insert

    def unit(block: list[int]) -> None:
        for obj in block:
            if not lookup(obj):
                insert(obj)

    def sized(block: list[int]) -> None:
        for obj in block:
            if not lookup(obj):
                insert(obj, size=sizes[obj])

    ops, seconds = _timed_blocks(objs, unit if sizes is None else sized)
    stats = cache.stats
    return Probe(ops, seconds, {
        "hit_ratio": stats.hit_rate,
        "evictions_per_insert": (
            stats.evictions / stats.insertions if stats.insertions else 0.0
        ),
    })


def cache_probes(config: Any, traces: list, seed: int) -> dict[str, Probe]:
    """Every public cache class at the workload's proxy capacity.

    The unit-size probes take the object-count capacity, the sized GD
    probe the byte capacity the same fraction gives over the sizes.
    ``gd`` is the probe in the workload's own denomination; its
    ``CacheStats`` give ``cache.hit_ratio`` / ``evictions_per_insert``.
    """
    trace = traces[0]
    objs = _object_stream(traces)
    sizing = config.sizing_for(trace)
    sizes = _probe_sizes(config, traces, seed)
    counts = trace.reference_counts()
    fraction = config.proxy_cache_fraction
    unit_capacity = max(1, round(fraction * trace.infinite_cache_size))
    byte_capacity = max(1, round(fraction * int(sizes[counts > 1].sum())))
    size_list = sizes.tolist()
    t_server = config.network.t_server
    by_size = config.gd_cost_model == "gds"

    out = {
        "gd_unit": _replay(
            GreedyDualCache(unit_capacity, default_cost=t_server), objs, None
        ),
        "gd_sized": _replay(
            GreedyDualCache(byte_capacity, default_cost=t_server, credit_by_size=by_size),
            objs, size_list,
        ),
        "lfu": _replay(
            LfuCache(unit_capacity, reset_on_evict=config.lfu_reset_on_evict), objs, None
        ),
        "lru": _replay(LruCache(unit_capacity), objs, None),
        "tiered": _replay(
            TieredCache(
                unit_capacity,
                max(1, round(config.client_cache_fraction * trace.infinite_cache_size))
                * sizing.n_clients,
                lfu_reset_on_evict=config.lfu_reset_on_evict,
            ),
            objs, None,
        ),
        "costbenefit": _replay(
            CostBenefitCache(unit_capacity, FrequencyOracle(trace.frequency_table())),
            objs, None,
        ),
    }

    tracker = TopKTracker(unit_capacity)
    seen: dict[int, int] = {}

    def rank(block: list[int]) -> None:
        for obj in block:
            n = seen.get(obj, 0) + 1
            seen[obj] = n
            tracker.add(obj, float(n))

    out["topk"] = Probe(*_timed_blocks(objs, rank))
    out["gd"] = out["gd_sized"] if sizing.by_bytes else out["gd_unit"]
    # Paschos et al.'s cost model: a heap-backed policy pays O(log n) per
    # request, n the objects the cache holds.
    out["gd_unit"].extra["log2n"] = math.log2(max(2, unit_capacity))
    return out


# -- overlay/ -----------------------------------------------------------------


def overlay_probes(config: Any, traces: list) -> dict[str, Probe]:
    """Build one cluster's overlay, its owner table, and route on it."""
    n_clients = config.clients_per_cluster
    n_objects = config.workload.n_objects

    t0 = perf_counter()
    overlay = make_overlay(config)
    overlay.bulk_add_named([f"cluster0/cache{k}" for k in range(n_clients)])
    build = Probe(n_clients, perf_counter() - t0)

    t0 = perf_counter()
    keys = object_ids_for_urls([object_url(i) for i in range(n_objects)], overlay.space)
    build_owner_table(overlay, keys)
    owner_table = Probe(n_objects, perf_counter() - t0)

    sample = [int(k) for k in keys[:: max(1, n_objects // 1000)][:1000]]
    hops = 0
    t0 = perf_counter()
    for key in sample:
        hops += overlay.route(key, record=False).hops
    route = Probe(len(sample), perf_counter() - t0, {"hops_mean": hops / len(sample)})
    return {"build": build, "owner_table": owner_table, "route": route}


# -- bloom/, core/ ------------------------------------------------------------


def _membership_cycle(
    keys: list[int], add: Callable, contains: Callable, remove: Callable
) -> Probe:
    """Add every key, ask for every key, remove every key, and again."""
    start = perf_counter()
    ops = 0
    while perf_counter() - start < PROBE_SECONDS:
        for key in keys:
            add(key)
        for key in keys:
            contains(key)
        for key in keys:
            remove(key)
        ops += 3 * len(keys)
    return Probe(ops, perf_counter() - start)


def membership_probes(config: Any, traces: list) -> dict[str, Probe]:
    """The directory structures at the P2P tier's design capacity."""
    sizing = config.sizing_for(traces[0])
    mean_size = float(traces[0].sizes.mean()) if sizing.by_bytes else 1.0
    capacity = max(1, round(sizing.p2p_size / mean_size))
    keys = list(dict.fromkeys(_object_stream(traces)))[:capacity]

    bloom = CountingBloomFilter(capacity=capacity, fp_rate=config.bloom_fp_rate)
    exact = ExactDirectory()
    presence = PresenceIndex()
    clusters = cycle(range(config.n_proxies))
    return {
        "bloom": _membership_cycle(keys, bloom.add, bloom.__contains__, bloom.remove),
        "directory": _membership_cycle(
            keys, exact.add, exact.__contains__, exact.remove
        ),
        "presence": _membership_cycle(
            keys,
            lambda key: presence.add(key, next(clusters)),
            lambda key: presence.first_holder(key, 0),
            lambda key: [presence.discard(key, c) for c in range(config.n_proxies)],
        ),
    }


# -- protocol/ ----------------------------------------------------------------


def ladder_probe(config: Any, plan: Any) -> Probe:
    """``run_ladder`` under the default exponential policy, link by link."""
    injector = FaultInjector(plan, scope="ledger-probe")
    rtts = config.network.link_rtts()
    links = cycle(FAULT_LINKS)
    start = perf_counter()
    ops = 0
    while perf_counter() - start < PROBE_SECONDS:
        for link in islice(links, _BLOCK):
            run_ladder(DEFAULT_POLICY, plan, link, rtts[link], injector)
        ops += _BLOCK
    return Probe(ops, perf_counter() - start)


def wire_probe() -> Probe:
    """Encode and decode one request frame and its response frame."""
    start = perf_counter()
    ops = 0
    while perf_counter() - start < PROBE_SECONDS:
        for req in range(_BLOCK // 2):
            parse_request(decode_frame(encode_frame(request_frame(req, PROXY_FETCH))))
            parse_event(decode_frame(encode_frame(
                event_frame(req, PROXY_FETCH, True, [1.5], {"timeouts": 1}, {"l": [0.5]})
            )))
        ops += _BLOCK
    return Probe(ops, perf_counter() - start)


# -- shard/ -------------------------------------------------------------------


def digest_probe(config: Any, traces: list, round_requests: int) -> Probe:
    """Encode, decode and merge one round's digests from two shards.

    The deltas are what one round of the workload's own object streams
    could change: each cluster's distinct objects of its first round.
    """
    frames = []
    for shard in (0, 1):
        deltas = {}
        for cluster in range(shard, len(traces), 2):
            window = traces[cluster].object_slice(0, round_requests).tolist()
            distinct = sorted(set(window))
            half = len(distinct) // 2
            deltas[cluster] = (
                distinct[:half], distinct[half:], distinct[half:], distinct[:half]
            )
        # A few cross-shard pushes, tagged with their global stream position.
        pushes = [(at, shard, 1 - shard, obj) for at, obj in enumerate(window[:64])]
        frames.append((shard, deltas, pushes))
    start = perf_counter()
    ops = 0
    while perf_counter() - start < PROBE_SECONDS:
        merge_digests([
            decode_digest(encode_digest(ops, shard, deltas, pushes))
            for shard, deltas, pushes in frames
        ])
        ops += 1
    return Probe(ops, perf_counter() - start)


# -- workload/ ----------------------------------------------------------------


def sizes_probe(config: Any, seed: int) -> Probe:
    n = config.workload.n_objects
    t0 = perf_counter()
    sample_object_sizes(n, np.random.default_rng(seed))
    return Probe(n, perf_counter() - t0)
