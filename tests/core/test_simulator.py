"""Tests for the trace-replay engine (with an instrumented dummy scheme)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import simulator
from repro.core.config import SimulationConfig
from repro.core.schemes import SCHEME_REGISTRY
from repro.core.simulator import CachingScheme
from repro.netmodel import ALL_TIERS, TIER_LOCAL_PROXY, TIER_SERVER
from repro.workload import ProWGenConfig, Trace


def mk_trace(objs, clients=None, n_objects=10, n_clients=4, sizes=None):
    objs = np.asarray(objs, dtype=np.int64)
    clients = (
        np.zeros(len(objs), dtype=np.int32) if clients is None else np.asarray(clients)
    )
    return Trace(objs, clients, n_objects=n_objects, n_clients=n_clients, sizes=sizes)


def small_config(n_proxies=2, warmup_fraction=0.0):
    return SimulationConfig(
        workload=ProWGenConfig(n_requests=100, n_objects=10, n_clients=4),
        n_proxies=n_proxies,
        warmup_fraction=warmup_fraction,
    )


class Recorder(CachingScheme):
    """Scheme that records the exact request order it sees."""

    name = "recorder"

    def __init__(self, config, traces, tier=TIER_SERVER):
        super().__init__(config, traces)
        self.seen: list[tuple[int, int, int]] = []
        self.tier = tier

    def process(self, cluster, client, obj):
        self.seen.append((cluster, client, obj))
        return self.tier


class TestValidation:
    def test_trace_count_must_match_proxies(self):
        with pytest.raises(ValueError):
            Recorder(small_config(n_proxies=2), [mk_trace([1, 2])])

    def test_empty_trace_list_rejected(self):
        with pytest.raises(ValueError):
            Recorder(small_config(n_proxies=1), [])


class TestEngine:
    def test_round_robin_interleaving(self):
        a = mk_trace([1, 2], clients=[0, 1])
        b = mk_trace([3, 4, 5], clients=[2, 3, 2])
        s = Recorder(small_config(), [a, b])
        s.run()
        assert s.seen == [
            (0, 0, 1), (1, 2, 3),
            (0, 1, 2), (1, 3, 4),
            (1, 2, 5),
        ]

    def test_latency_accumulation(self):
        t = mk_trace([1, 2, 3])
        s = Recorder(small_config(n_proxies=1), [t], tier=TIER_SERVER)
        r = s.run()
        net = small_config().network
        assert r.total_latency == pytest.approx(3 * net.latency(TIER_SERVER))
        assert r.n_requests == 3
        assert r.tier_counts == {TIER_SERVER: 3}
        assert r.scheme == "recorder"

    def test_extra_latency_added(self):
        t = mk_trace([1])

        class Extra(Recorder):
            def process(self, cluster, client, obj):
                self.extra_latency += 5.0
                return TIER_LOCAL_PROXY

        r = Extra(small_config(n_proxies=1), [t]).run()
        assert r.total_latency == pytest.approx(1.0 + 5.0)

    def test_finalize_hooks_propagated(self):
        t = mk_trace([1])

        class WithMessages(Recorder):
            def finalize(self):
                return {"pings": 7}, {"note": 1.5}

        r = WithMessages(small_config(n_proxies=1), [t]).run()
        assert r.messages == {"pings": 7}
        assert r.extras == {"note": 1.5}

    def test_empty_traces_produce_empty_result(self):
        t = mk_trace([])
        r = Recorder(small_config(n_proxies=1), [t]).run()
        assert r.n_requests == 0
        assert r.mean_latency == 0.0

    def test_uneven_trace_lengths(self):
        a = mk_trace([1])
        b = mk_trace([2, 3, 4])
        r = Recorder(small_config(), [a, b]).run()
        assert r.n_requests == 4


# -- ragged traces: the one block loop against the per-request loop ----------


class Memo(Recorder):
    """Order-sensitive dummy: the first request of ``(cluster, obj)`` goes
    to the server and pays off-tier latency, every repeat is a local hit."""

    name = "memo"

    def __init__(self, config, traces):
        super().__init__(config, traces)
        self.held: set[tuple[int, int]] = set()

    def process(self, cluster, client, obj):
        super().process(cluster, client, obj)
        if (cluster, obj) in self.held:
            return TIER_LOCAL_PROXY
        self.held.add((cluster, obj))
        self.add_extra_latency(0.25)
        return TIER_SERVER


def naive_run(scheme):
    """The per-request loop ``run`` once kept for ragged traces: request
    ``i`` of every cluster whose trace is that long before request
    ``i + 1`` of any; the first ``warmup`` requests warm the caches and
    are left out of the statistics one by one.

    Returns ``(n_requests, total_latency, tier_counts, bytes_* extras)``.
    """
    latency_of = {tier: scheme.config.network.latency(tier) for tier in ALL_TIERS}
    tier_counts = dict.fromkeys(ALL_TIERS, 0)
    bytes_by_tier = dict.fromkeys(ALL_TIERS, 0)
    total_latency = 0.0
    n_requests = processed = 0
    streams = [(t.object_ids.tolist(), t.client_ids.tolist()) for t in scheme.traces]
    warmup_n = scheme._warmup_requests(sum(len(objs) for objs, _ in streams))
    scheme._in_warmup = warmup_n > 0
    for i in range(max(len(objs) for objs, _ in streams)):
        for c, (objs, clients) in enumerate(streams):
            if i >= len(objs):
                continue
            tier = scheme.process(c, clients[i], objs[i])
            processed += 1
            if processed <= warmup_n:
                if processed == warmup_n:
                    scheme._in_warmup = False
                continue
            tier_counts[tier] += 1
            total_latency += latency_of[tier]
            n_requests += 1
            bytes_by_tier[tier] += scheme._size_of(objs[i])
    byte_extras = {}
    if scheme.sizes is not None:
        byte_extras["bytes_total"] = float(sum(bytes_by_tier.values()))
        for tier, nbytes in bytes_by_tier.items():
            if nbytes:
                byte_extras[f"bytes_{tier}"] = float(nbytes)
    return (
        n_requests,
        total_latency + scheme.extra_latency,
        {t: n for t, n in tier_counts.items() if n},
        byte_extras,
    )


@st.composite
def ragged_runs(draw):
    """Traces of independent lengths (0 included) over 8 objects."""
    n_clusters = draw(st.integers(min_value=1, max_value=4))
    lengths = draw(st.lists(st.integers(0, 14), min_size=n_clusters, max_size=n_clusters))
    sizes = None
    if draw(st.booleans()):
        sizes = np.array(draw(st.lists(st.integers(1, 5), min_size=8, max_size=8)))
    traces = [
        mk_trace(
            draw(st.lists(st.integers(0, 7), min_size=n, max_size=n)),
            draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
            n_objects=8,
            sizes=sizes,
        )
        for n in lengths
    ]
    longest = max(lengths)
    block = draw(st.one_of(st.none(), st.integers(1, max(1, longest - 1))))
    # Requests across all clusters per window: window edges fall inside a
    # block, and warmup and short traces end mid-window.
    window = draw(st.one_of(st.none(), st.integers(1, max(1, n_clusters * longest))))
    return traces, block, window


def window_edges():
    """Blocks of 6 requests per cluster and windows of 4 × 3 clusters: each
    full block is a full window and a short one.  At warmup 0.3 the warmup
    (int(0.3 × 31) = 9 requests) ends inside the first window, and the
    5-request trace ends inside the second."""
    rng = np.random.default_rng(3)
    traces = [
        mk_trace(rng.integers(8, size=n), rng.integers(4, size=n), 8, sizes=np.arange(1, 9))
        for n in (13, 5, 13)
    ]
    return traces, 6, 12


class TestRaggedTracesAgainstNaiveLoop:
    @given(
        ragged_runs(),
        st.sampled_from([0.0, 0.3, 0.55]),
        st.sampled_from(["memo", "nc", "sc-ec", "fc", "fc-ec", "squirrel", "hier-gd"]),
    )
    @example(window_edges(), 0.3, "memo")
    @example(window_edges(), 0.3, "nc")
    @example(window_edges(), 0.3, "hier-gd")
    @settings(max_examples=300, deadline=None)
    def test_run_matches_the_per_request_loop(self, run, warmup, name):
        traces, block, window = run
        config = small_config(n_proxies=len(traces), warmup_fraction=warmup)
        cls = Memo if name == "memo" else SCHEME_REGISTRY[name]
        engine, model = cls(config, traces), cls(config, traces)
        if block is not None:
            engine._block_requests = lambda length: block
        with mock.patch.object(simulator, "WINDOW_REQUESTS", window or simulator.WINDOW_REQUESTS):
            result = engine.run()
        n_requests, total_latency, tier_counts, byte_extras = naive_run(model)
        assert result.n_requests == n_requests
        assert result.tier_counts == tier_counts
        assert {k: v for k, v in result.extras.items() if k.startswith("bytes_")} == (
            byte_extras
        )
        assert result.total_latency == pytest.approx(total_latency, rel=1e-12, abs=1e-12)
        if name == "memo":
            assert engine.seen == model.seen
