"""Zipf-like popularity distributions and O(1) alias sampling.

Web object popularity follows a Zipf-like law: the i-th most popular
object is requested with probability proportional to ``1 / i**alpha``
(Breslau et al., INFOCOM'99 — reference [3] of the paper).  ProWGen and
the paper's Figure 3 sweep the skew parameter ``alpha`` over
{0.5, 0.7, 1.0}.

Sampling from a 10⁴-support discrete distribution a million times is the
workload generator's hot loop, so this module provides Vose's alias
method: O(n) preprocessing, O(1) per draw, with a vectorised bulk-draw
path on numpy for whole-array generation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["zipf_weights", "zipf_pmf", "AliasSampler"]


def zipf_weights(n: int, alpha: float) -> np.ndarray:
    """Unnormalised Zipf weights ``1/i**alpha`` for ranks i = 1..n."""
    if n <= 0:
        raise ValueError("n must be positive")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return ranks**-alpha


def zipf_pmf(n: int, alpha: float) -> np.ndarray:
    """Normalised Zipf pmf over ranks 1..n."""
    w = zipf_weights(n, alpha)
    return w / w.sum()


class AliasSampler:
    """Vose alias-method sampler over an arbitrary discrete distribution.

    >>> s = AliasSampler(zipf_weights(10_000, 0.7))
    >>> rng = np.random.default_rng(0)
    >>> int(s.sample(rng)) >= 0
    True
    """

    __slots__ = ("n", "_prob", "_alias")

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if (weights < 0).any():
            raise ValueError("weights must be non-negative")
        total = weights.sum()
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        n = weights.size
        self.n = n
        # Normalise before scaling: (weights/total) stays in [0, 1] even
        # for subnormal totals where n/total would overflow.
        scaled_array = weights / total * n
        # Ascending index lists, popped from the tail: the pop order fixes
        # the tables, and the tables fix every generated trace.
        small = np.flatnonzero(scaled_array < 1.0).tolist()
        large = np.flatnonzero(scaled_array >= 1.0).tolist()
        # Plain floats from here on: the same IEEE doubles as the array's,
        # without a numpy scalar per access.
        scaled = scaled_array.tolist()
        prob = [1.0] * n  # what is never paired (numerical leftovers) stays 1
        alias = [0] * n
        while small and large:
            s = small.pop()
            big = large.pop()
            prob[s] = scaled[s]
            alias[s] = big
            scaled[big] = rest = (scaled[big] + scaled[s]) - 1.0
            (small if rest < 1.0 else large).append(big)
        self._prob = np.array(prob, dtype=np.float64)
        self._alias = np.array(alias, dtype=np.int64)

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The Vose ``(prob, alias)`` tables, for a hot loop that inlines
        :meth:`sample`'s two draws over its own flat copies."""
        return self._prob, self._alias

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one index."""
        i = int(rng.integers(self.n))
        return i if rng.random() < self._prob[i] else int(self._alias[i])

    def sample_array(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` indices at once (vectorised)."""
        if size < 0:
            raise ValueError("size must be non-negative")
        idx = rng.integers(self.n, size=size)
        take_alias = rng.random(size) >= self._prob[idx]
        out = idx.copy()
        out[take_alias] = self._alias[idx[take_alias]]
        return out
