"""repro — reproduction of Zhu & Hu, "Exploiting Client Caches" (ICPP 2003).

A trace-driven simulation library for cooperative Web proxy caching that
exploits client browser caches by federating them into a P2P client cache
over a Pastry overlay, including the paper's Hier-GD cooperative
hierarchical greedy-dual replacement algorithm.

Quickstart::

    from repro import SimulationConfig, run_scheme
    from repro.core.run import generate_workloads

    cfg = SimulationConfig()                 # paper defaults
    traces = generate_workloads(cfg, seed=1)
    result = run_scheme("hier-gd", cfg, traces)
    print(result.mean_latency, result.summary())

See ``examples/quickstart.py`` and DESIGN.md for the full architecture.

The top-level names are imported lazily (PEP 562) so substrate users (e.g.
``repro.overlay`` or ``repro.bloom`` alone) don't pay for the simulator.
"""

from __future__ import annotations

__version__ = "1.0.0"

# name -> (module, attribute)
_LAZY = {
    "NetworkConfig": ("repro.core.config", "NetworkConfig"),
    "SimulationConfig": ("repro.core.config", "SimulationConfig"),
    "SchemeResult": ("repro.core.metrics", "SchemeResult"),
    "latency_gain": ("repro.core.metrics", "latency_gain"),
    "available_schemes": ("repro.core.run", "available_schemes"),
    "run_scheme": ("repro.core.run", "run_scheme"),
}

__all__ = ["__version__", *sorted(_LAZY)]


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
