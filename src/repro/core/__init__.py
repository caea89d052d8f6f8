"""Core simulation layer: configuration, engine, schemes, metrics.

- :mod:`repro.core.config` — :class:`SimulationConfig` (paper §5.1 defaults).
- :mod:`repro.core.simulator` — the trace-replay engine.
- :mod:`repro.core.schemes` — NC, SC, FC and their -EC variants.
- :mod:`repro.core.hiergd` — the mechanism-level Hier-GD scheme (§§3-4).
- :mod:`repro.core.directory` — Exact / Bloom lookup directories (§4.2).
- :mod:`repro.core.metrics` — results and the latency-gain metric.
- :mod:`repro.core.run` — one-call entry points.
"""

from .churn import ChurnEvent
from .config import ClusterSizing, NetworkConfig, SimulationConfig
from .directory import BloomDirectory, ExactDirectory, LookupDirectory, make_directory
from .hiergd import HierGdScheme
from .metrics import SchemeResult, byte_hit_rate, byte_latency_gain, latency_gain
from .run import (
    available_schemes,
    gains_vs_nc,
    generate_workloads,
    run_scheme,
)
from .simulator import CachingScheme

__all__ = [
    "ChurnEvent",
    "ClusterSizing",
    "NetworkConfig",
    "SimulationConfig",
    "BloomDirectory",
    "ExactDirectory",
    "LookupDirectory",
    "make_directory",
    "HierGdScheme",
    "SchemeResult",
    "latency_gain",
    "byte_hit_rate",
    "byte_latency_gain",
    "available_schemes",
    "gains_vs_nc",
    "generate_workloads",
    "run_scheme",
    "CachingScheme",
]
