"""Performance observability for the simulator hot path.

The request paths (presence indexes, precomputed DHT placement, fused
cache operations) are only trustworthy while they stay *measured*: this
package provides the instrumentation that keeps the speedups honest.

* :func:`profile_call` — run any callable under :mod:`cProfile` and get
  a JSON-safe report of the top functions alongside the return value.
* :func:`op_counters_for` — aggregate the per-cache operation counters
  (hits / misses / insertions / evictions) of a scheme, duck-typed over
  whatever cache layout the scheme carries.
* :func:`collecting_op_counters` — context manager that makes
  :func:`~repro.core.run.assemble_run` report every scheme run (plain,
  faulty, replayed or live), so a whole figure sweep yields per-scheme
  counters without touching the figure code.

The ``repro-experiments --profile`` flag is the CLI frontend: it writes
one ``profile_<figure>.json`` per figure next to ``instrumentation.json``.
"""

from .profiling import (
    OpCounterCollector,
    collecting_op_counters,
    op_counters_for,
    profile_call,
    record_scheme_ops,
)

__all__ = [
    "OpCounterCollector",
    "collecting_op_counters",
    "op_counters_for",
    "profile_call",
    "record_scheme_ops",
]
