"""The single-process engine's memory stays flat as traces grow.

``CachingScheme.run`` turns the round-robin interleave into Python ints
one :data:`~repro.core.simulator.WINDOW_REQUESTS` window at a time, so its
live request state does not grow with the trace.  This gate measures the
``tracemalloc`` peak of ``run`` at ``N`` and ``8 N`` requests per cluster
and holds the difference below one list of ``8 N × P`` pointers
(``8 N × P × 8`` bytes), a third of what flattening the whole ``8 N``
interleave into object, client and cluster lists would take.  The
difference left is cache state still filling at the end of the short
run (under 0.3 MiB here); a whole-interleave engine adds 7.6 MiB.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.schemes import SCHEME_REGISTRY
from repro.workload import ProWGenConfig, Trace
from repro.workload.stream import ChunkedTraceWriter, StreamingTrace

N = 20_000  # requests per cluster of the short run
P = 2  # clusters
N_OBJECTS, N_CLIENTS = 2_000, 50
#: Chunk of the on-disk traces: below ``N``, so a chunk read is the same
#: size in both runs and only the engine's own state can differ.
CHUNK = N // 4
#: One pointer per request of the long run's interleave.
ONE_LIST_BYTES = 8 * N * P * 8


def traces(n):
    """``P`` in-memory traces of ``n`` requests over every object."""
    out = []
    for c in range(P):
        rng = np.random.default_rng(c)
        objs = rng.zipf(1.3, n) % N_OBJECTS
        objs[:N_OBJECTS] = np.arange(N_OBJECTS)  # the same universe at any n
        clients = rng.integers(N_CLIENTS, size=n, dtype=np.int32)
        out.append(Trace(objs, clients, n_objects=N_OBJECTS, n_clients=N_CLIENTS))
    return out


def streaming(trace_list, tmp_path):
    """The same traces as chunked on-disk files."""
    out = []
    for c, t in enumerate(trace_list):
        path = tmp_path / f"{len(t)}_{c}.ctrace"
        writer = ChunkedTraceWriter(path, len(t), N_OBJECTS, N_CLIENTS)
        writer.append_objects(t.object_ids)
        writer.append_clients(t.client_ids)
        out.append(StreamingTrace(writer.close(), chunk_requests=CHUNK))
    return out


def run_peak(name, trace_list):
    """Bytes ``run`` allocates at its peak beyond what it started with."""
    config = SimulationConfig(
        workload=ProWGenConfig(n_requests=N, n_objects=N_OBJECTS, n_clients=N_CLIENTS),
        n_proxies=P,
        warmup_fraction=0.1,
    )
    scheme = SCHEME_REGISTRY[name](config, trace_list)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        scheme.run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("on_disk", [False, True], ids=["in_memory", "streaming"])
@pytest.mark.parametrize("name", ["nc", "hier-gd"])
def test_run_peak_does_not_grow_with_the_trace(name, on_disk, tmp_path):
    peaks = []
    for n in (N, 8 * N):
        trace_list = traces(n)
        if on_disk:
            trace_list = streaming(trace_list, tmp_path)
        peaks.append(run_peak(name, trace_list))
    short, long = peaks
    assert long - short < ONE_LIST_BYTES, (
        f"{name}: run peak {short / 2**20:.2f} MiB at {N} requests per cluster, "
        f"{long / 2**20:.2f} MiB at {8 * N}"
    )
