"""Trace characterisation: ProWGen's oracle.

ProWGen's four knobs (one-timers, Zipf α, object count, LRU-stack
temporal locality) each leave a measurable fingerprint on a trace.  This
model measures those fingerprints, so the generator's tests can verify
each knob does what it claims (``tests/workload/test_stats.py`` recovers
α and orders locality by stack size).

Functions take a :class:`~repro.workload.trace.Trace` and are all
numpy-vectorised except the reuse-distance scan, which is a single
O(n log n) pass over the trace (Fenwick-tree stack distances).
"""

from __future__ import annotations

import numpy as np

from repro.workload import Trace

__all__ = [
    "estimate_zipf_alpha",
    "reuse_distances",
    "mean_reuse_distance",
    "temporal_locality_index",
    "summarize",
]


def estimate_zipf_alpha(trace: Trace, min_count: int = 2) -> float:
    """Least-squares slope of log(count) vs log(rank) for popular objects.

    One-timers are excluded (``min_count``): they form ProWGen's separate
    one-time-referencing mass, not the Zipf body, and would bias the fit.
    Returns the *positive* α of ``count ∝ rank^{-α}``.
    """
    counts = trace.reference_counts()
    popular = np.sort(counts[counts >= min_count])[::-1].astype(np.float64)
    if popular.size < 2:
        raise ValueError("need at least two multi-reference objects to fit alpha")
    ranks = np.arange(1, popular.size + 1, dtype=np.float64)
    x = np.log(ranks)
    y = np.log(popular)
    slope = np.polyfit(x, y, 1)[0]
    return float(-slope)


def reuse_distances(trace: Trace) -> np.ndarray:
    """LRU stack distance of every re-reference (distinct objects between
    consecutive references to the same object), via a Fenwick tree.

    Returns one distance per *re-reference*; first references contribute
    nothing.  A trace with strong temporal locality has small distances.
    """
    n = len(trace)
    tree = np.zeros(n + 1, dtype=np.int64)

    def add(i: int, delta: int) -> None:
        i += 1
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def prefix(i: int) -> int:
        i += 1
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return int(total)

    last_pos: dict[int, int] = {}
    out = []
    for pos, obj in enumerate(trace.object_ids.tolist()):
        prev = last_pos.get(obj)
        if prev is not None:
            # Distinct objects referenced strictly after prev: the live
            # markers in (prev, pos).
            distance = prefix(pos - 1) - prefix(prev)
            out.append(distance)
            add(prev, -1)  # the object's marker moves to pos
        last_pos[obj] = pos
        add(pos, 1)
    return np.asarray(out, dtype=np.int64)


def mean_reuse_distance(trace: Trace) -> float:
    """Mean LRU stack distance over all re-references (inf if none)."""
    d = reuse_distances(trace)
    return float(d.mean()) if d.size else float("inf")


def temporal_locality_index(trace: Trace) -> float:
    """Normalised temporal locality in [0, 1]: 1 − mean-reuse-distance /
    expected-distance-under-random-order.

    0 ≈ no locality beyond popularity (IRM); larger values mean the
    LRU-stack model compressed reuse distances.  The random-order
    expectation is estimated from a popularity-preserving shuffle of the
    same trace, so popularity skew cancels out.
    """
    d = mean_reuse_distance(trace)
    if not np.isfinite(d):
        return 0.0
    rng = np.random.default_rng(0)
    shuffled = Trace(
        object_ids=rng.permutation(trace.object_ids),
        client_ids=trace.client_ids,
        n_objects=trace.n_objects,
        n_clients=trace.n_clients,
    )
    baseline = mean_reuse_distance(shuffled)
    if baseline <= 0:
        return 0.0
    return float(max(0.0, 1.0 - d / baseline))


def summarize(trace: Trace) -> dict[str, float]:
    """The paper-style characterisation table for one trace."""
    return {
        "requests": float(len(trace)),
        "distinct_objects": float(trace.distinct_objects),
        "infinite_cache_size": float(trace.infinite_cache_size),
        "one_timer_fraction": trace.one_timer_fraction,
        "zipf_alpha": estimate_zipf_alpha(trace),
        "mean_reuse_distance": mean_reuse_distance(trace),
        "temporal_locality_index": temporal_locality_index(trace),
    }
