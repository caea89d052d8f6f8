"""cProfile wrapper and per-scheme cache-operation counters.

Everything here is JSON-safe dicts in and out, so reports can land next
to ``instrumentation.json`` and feed the benchmark gate without a
bespoke file format.  Nothing in this module runs on the request hot
path: profiling wraps a whole simulation, and op counters are read once
per finished scheme.
"""

from __future__ import annotations

import cProfile
import dataclasses
import pstats
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from ..cache.base import Cache
from ..protocol.messages import exchange_traffic, link_traffic

__all__ = [
    "profile_call",
    "op_counters_for",
    "OpCounterCollector",
    "collecting_op_counters",
    "record_scheme_ops",
    "overlay_stats_for",
]


def profile_call(
    fn: Callable[..., Any], *args: Any, top: int = 25, **kwargs: Any
) -> tuple[Any, dict[str, Any]]:
    """Run ``fn(*args, **kwargs)`` under cProfile.

    Returns ``(result, report)`` where ``report`` lists the ``top``
    functions by internal time::

        {"total_time_sec": ..., "total_calls": ...,
         "top_functions": [{"function", "file", "line",
                            "ncalls", "tottime_sec", "cumtime_sec"}, ...]}
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("tottime")
    functions = []
    for func in stats.fcn_list[:top]:  # (file, line, name), sorted by tottime
        cc, nc, tt, ct, _callers = stats.stats[func]
        file, line, name = func
        functions.append(
            {
                "function": name,
                "file": file,
                "line": line,
                "ncalls": nc,
                "tottime_sec": round(tt, 6),
                "cumtime_sec": round(ct, 6),
            }
        )
    report = {
        "total_time_sec": round(stats.total_tt, 6),
        "total_calls": stats.total_calls,
        "top_functions": functions,
    }
    return result, report


# -- cache op counters -------------------------------------------------------


def _iter_caches(obj: Any, depth: int = 0) -> Iterator[Cache]:
    """Yield every :class:`Cache` reachable from ``obj`` (shallow walk).

    Duck-typed over the scheme layouts in the registry: plain attributes,
    lists of caches (baselines), nested lists, and dataclass cluster
    states (Hier-GD's proxy + clients).  Depth-limited so arbitrary
    object graphs cannot recurse away.
    """
    if depth > 4:
        return
    if isinstance(obj, Cache):
        yield obj
        return
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _iter_caches(item, depth + 1)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _iter_caches(item, depth + 1)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, (Cache, list, tuple, dict)):
                yield from _iter_caches(value, depth + 1)


def op_counters_for(scheme: Any) -> dict[str, Any]:
    """Aggregate cache operation counters across a scheme's caches.

    Works on any scheme object: every :class:`Cache` reachable from its
    instance attributes contributes its ``CacheStats``.  Counters are
    totalled overall and broken down by cache class, so a Hier-GD report
    separates e.g. proxy/client ``GreedyDualCache`` work from nothing
    else, while NC/SC report their ``LfuCache`` fleet.
    """
    totals = {"hits": 0, "misses": 0, "insertions": 0, "evictions": 0}
    by_type: dict[str, dict[str, int]] = {}
    n_caches = 0
    attrs = getattr(scheme, "__dict__", {})
    for value in attrs.values():
        for cache in _iter_caches(value):
            n_caches += 1
            stats = cache.stats
            bucket = by_type.setdefault(
                type(cache).__name__,
                {"n_caches": 0, "hits": 0, "misses": 0, "insertions": 0, "evictions": 0},
            )
            bucket["n_caches"] += 1
            for field_name in ("hits", "misses", "insertions", "evictions"):
                n = getattr(stats, field_name)
                totals[field_name] += n
                bucket[field_name] += n
    return {"n_caches": n_caches, **totals, "by_cache_type": by_type}


def overlay_stats_for(scheme: Any) -> dict[str, Any]:
    """Per-backend routing statistics of one finished scheme run.

    Walks the scheme's overlay instances (Hier-GD keeps one per cluster
    state, Squirrel a flat ``overlays`` list) and sums their
    :class:`~repro.overlay.contract.RouteStats` plus repair counters,
    keyed by backend name::

        {"pastry": {"overlays": 2, "messages": ..., "total_hops": ...,
                    "max_hops": ..., "mean_route_hops": ...,
                    "repairs": {"leaf_repairs": ..., ...}}}

    Empty when the scheme has no overlay (the NC/SC/FC baselines).
    """
    overlays = [
        s.overlay for s in getattr(scheme, "states", []) if hasattr(s, "overlay")
    ]
    overlays.extend(getattr(scheme, "overlays", []))
    out: dict[str, Any] = {}
    for ov in overlays:
        slot = out.setdefault(
            ov.name,
            {
                "overlays": 0,
                "messages": 0,
                "total_hops": 0,
                "max_hops": 0,
                "repairs": {},
            },
        )
        slot["overlays"] += 1
        slot["messages"] += ov.stats.messages
        slot["total_hops"] += ov.stats.total_hops
        slot["max_hops"] = max(slot["max_hops"], ov.stats.max_hops)
        for kind, n in ov.repair_counts().items():
            slot["repairs"][kind] = slot["repairs"].get(kind, 0) + n
    for slot in out.values():
        slot["mean_route_hops"] = (
            slot["total_hops"] / slot["messages"] if slot["messages"] else 0.0
        )
    return out


#: Fields a fold keeps the largest of: fleet sizes, not work done.
_MAX_FIELDS = frozenset({"n_caches", "overlays", "max_hops"})


def _fold(dest: dict[str, Any], src: dict[str, Any]) -> None:
    """Sum ``src`` into ``dest`` field by field, recursively.

    Fields in :data:`_MAX_FIELDS` take the max; an overlay slot's
    ``mean_route_hops`` is a ratio, so it is recomputed from the sums.
    """
    for key, value in src.items():
        if key not in dest:
            dest[key] = value
        elif isinstance(value, dict):
            _fold(dest[key], value)
        elif key in _MAX_FIELDS:
            dest[key] = max(dest[key], value)
        else:
            dest[key] += value
    if "mean_route_hops" in dest:
        messages = dest["messages"]
        dest["mean_route_hops"] = dest["total_hops"] / messages if messages else 0.0


class OpCounterCollector:
    """Accumulates :func:`op_counters_for` reports keyed by scheme name.

    Multiple runs of the same scheme (sweep points) are summed, with a
    ``runs`` count so means can be recovered.  When the finished
    :class:`~repro.core.metrics.SchemeResult` is supplied, the slot also
    carries its per-exchange and per-link cooperation traffic
    (:func:`~repro.protocol.messages.exchange_traffic`), summed the same
    way.
    """

    def __init__(self) -> None:
        self.per_scheme: dict[str, dict[str, Any]] = {}

    def record(self, name: str, scheme: Any, result: Any = None) -> None:
        counters = op_counters_for(scheme)
        if result is not None:
            exchanges = exchange_traffic(result.messages, result.tier_counts)
            counters["protocol"] = {
                "exchanges": exchanges,
                "links": link_traffic(exchanges),
            }
        ostats = overlay_stats_for(scheme)
        if ostats:
            counters["overlay"] = ostats
        counters["runs"] = 1
        _fold(self.per_scheme.setdefault(name, {}), counters)


#: Process-wide active collector (None = collection off).  Checked once
#: per *scheme run*, never per request, so the hot path is untouched.
_ACTIVE_COLLECTOR: OpCounterCollector | None = None


@contextmanager
def collecting_op_counters() -> Iterator[OpCounterCollector]:
    """Collect op counters from every scheme run inside the block."""
    global _ACTIVE_COLLECTOR
    collector = OpCounterCollector()
    previous = _ACTIVE_COLLECTOR
    _ACTIVE_COLLECTOR = collector
    try:
        yield collector
    finally:
        _ACTIVE_COLLECTOR = previous


def record_scheme_ops(name: str, scheme: Any, result: Any = None) -> None:
    """Report a finished scheme to the active collector (if any).

    Called by :func:`repro.core.run.assemble_run` for every run it puts
    together; a no-op unless inside a :func:`collecting_op_counters`
    block.
    """
    if _ACTIVE_COLLECTOR is not None:
        _ACTIVE_COLLECTOR.record(name, scheme, result)

