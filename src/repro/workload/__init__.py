"""Workload substrate: ProWGen-style synthetic traces + UCB-like substitute.

- :mod:`repro.workload.zipf` — Zipf popularity + alias sampling.
- :mod:`repro.workload.lru_stack` — positional LRU stack (temporal
  locality model).
- :mod:`repro.workload.prowgen` — the four-knob trace generator (§5.1).
- :mod:`repro.workload.ucb` — UCB Home-IP trace substitute for Fig 2(b).
- :mod:`repro.workload.trace` — the compact in-memory trace container.
- :mod:`repro.workload.stream` — the chunked on-disk container, the one
  workload file format.
- :mod:`repro.workload.adapters` — Squid / Common Log Format replay.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from .adapters import AdapterReport, from_common_log, from_squid_log
from .lru_stack import LruStack
from .prowgen import (
    ProWGenConfig,
    generate_trace,
    generate_trace_streaming,
    sample_object_sizes,
)
from .stream import (
    CHUNK_REQUESTS,
    ChunkedTraceWriter,
    CorruptTraceError,
    StreamingTrace,
    TruncatedTraceError,
)
from .trace import Trace, object_url
from .ucb import UCB_TOTAL_REQUESTS, generate_ucb_like_trace, ucb_like_config
from .zipf import AliasSampler, zipf_pmf, zipf_weights

__all__ = [
    "AdapterReport",
    "from_common_log",
    "from_squid_log",
    "LruStack",
    "ProWGenConfig",
    "generate_trace",
    "generate_trace_streaming",
    "sample_object_sizes",
    "CHUNK_REQUESTS",
    "ChunkedTraceWriter",
    "CorruptTraceError",
    "StreamingTrace",
    "TruncatedTraceError",
    "Trace",
    "object_url",
    "UCB_TOTAL_REQUESTS",
    "generate_ucb_like_trace",
    "ucb_like_config",
    "AliasSampler",
    "zipf_pmf",
    "zipf_weights",
    "generate_cluster_traces",
    "generate_cluster_traces_streaming",
    "cluster_trace_seed",
]


def generate_cluster_traces(
    config: ProWGenConfig, n_clusters: int, seed: int = 0
) -> list[Trace]:
    """Statistically identical traces for ``n_clusters`` client clusters.

    Same generator parameters and the *same per-object popularity
    assignment* (it is one Web: the hot objects are hot for everyone),
    with independently ordered request streams per cluster — the paper's
    assumption that "clients accessing different proxies are statistically
    identical in their access pattern" (§5.1).
    """
    if n_clusters <= 0:
        raise ValueError("n_clusters must be positive")
    return [
        generate_trace(
            config,
            seed=cluster_trace_seed(seed, i),
            name=f"cluster{i}",
            counts_seed=seed,
        )
        for i in range(n_clusters)
    ]


def cluster_trace_seed(seed: int, cluster: int) -> int:
    """The per-cluster ordering seed :func:`generate_cluster_traces` uses.

    Exposed so a sharded run can regenerate *its* clusters' traces — by
    global cluster index — and end up with exactly the workload a
    single-process run over all clusters would see.
    """
    return seed + 1000 * (cluster + 1)


def generate_cluster_traces_streaming(
    config: ProWGenConfig,
    clusters,
    directory,
    seed: int = 0,
    chunk_requests: int = CHUNK_REQUESTS,
) -> list[StreamingTrace]:
    """Streaming counterpart of :func:`generate_cluster_traces`.

    ``clusters`` is an iterable of *global* cluster indexes (a sharded
    worker passes only its own); each trace is generated chunk-by-chunk
    into ``directory/cluster<i>.s<seed>.<config fingerprint>.ctrace``
    with the same per-cluster seeds as the in-memory generator, so the
    workload is identical bit for bit regardless of how clusters are
    spread over processes.  A sealed file already present under that
    name is reused instead of regenerated (cheap resume for repeated
    gate runs against one workload) once its body passes the range
    checks of ``reference_counts`` and ``sizes``; one that fails them
    (:class:`CorruptTraceError`) is regenerated.  A file written by this
    call is not read back.  The seed and *every*
    :class:`ProWGenConfig` field are part of the name, so one directory
    can hold several seeds' and several shapes' workloads — an alpha or
    stack-size sweep pointed at one directory — without cross-talk.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fingerprint = hashlib.sha256(
        json.dumps(asdict(config), sort_keys=True).encode()
    ).hexdigest()[:12]
    traces = []
    for i in clusters:
        path = directory / f"cluster{i}.s{seed}.{fingerprint}.ctrace"
        if path.exists():
            try:
                trace = StreamingTrace(path, chunk_requests=chunk_requests)
                trace.reference_counts()  # refuses an id out of range
                trace.sizes  # refuses a size below one byte
                traces.append(trace)
                continue
            except (ValueError, TruncatedTraceError):
                path.unlink()  # unsealed, stale or corrupt leftover: regenerate
        traces.append(
            generate_trace_streaming(
                config,
                seed=cluster_trace_seed(seed, i),
                path=path,
                name=f"cluster{i}",
                counts_seed=seed,
                chunk_requests=chunk_requests,
            )
        )
    return traces
