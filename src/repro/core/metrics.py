"""Result containers and the paper's evaluation metric.

The paper's single headline metric is **latency gain** (§5.1): the
relative reduction in mean access latency with respect to the NC
baseline, ``1 − L_scheme / L_NC``.  Every figure plots it, so
:func:`latency_gain` is the quantity the whole benchmark harness reports.

:class:`SchemeResult` additionally keeps per-tier hit counts (where each
request was served) and the Hier-GD protocol's message accounting
(piggybacks, diversions, pushes, Bloom false positives, Pastry hops) so
the design-issue discussion of §4 is quantifiable, not just narrated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netmodel import ALL_TIERS

# Canonical home is the protocol layer (the counters are emitted by the
# fault transport); re-exported here because results are where they land.
from ..protocol.messages import FAULT_COUNTERS

__all__ = [
    "FAULT_COUNTERS",
    "SchemeResult",
    "latency_gain",
    "byte_hit_rate",
    "byte_latency_gain",
]


@dataclass
class SchemeResult:
    """Outcome of simulating one scheme over one workload."""

    scheme: str
    n_requests: int
    total_latency: float
    #: Requests served per tier (keys from :data:`repro.netmodel.ALL_TIERS`).
    tier_counts: dict[str, int] = field(default_factory=dict)
    #: Protocol message counters (Hier-GD only; empty for upper bounds).
    messages: dict[str, int] = field(default_factory=dict)
    #: Free-form extras (mean Pastry hops, directory memory, etc.).
    extras: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_requests < 0 or self.total_latency < 0:
            raise ValueError("n_requests and total_latency must be non-negative")
        counted = sum(self.tier_counts.values())
        if self.tier_counts and counted != self.n_requests:
            raise ValueError(
                f"tier counts sum to {counted}, expected {self.n_requests}"
            )
        unknown = set(self.tier_counts) - set(ALL_TIERS)
        if unknown:
            raise ValueError(f"unknown tiers {sorted(unknown)}")

    @property
    def mean_latency(self) -> float:
        """Average client-perceived access latency."""
        return self.total_latency / self.n_requests if self.n_requests else 0.0

    def hit_rate(self, tier: str) -> float:
        """Fraction of requests served from ``tier``."""
        if tier not in ALL_TIERS:
            raise KeyError(f"unknown tier {tier!r}")
        if not self.n_requests:
            return 0.0
        return self.tier_counts.get(tier, 0) / self.n_requests

    @property
    def miss_rate(self) -> float:
        """Fraction of requests that went all the way to the server."""
        return self.hit_rate("server")

    def fault_summary(self) -> dict[str, int]:
        """The :data:`FAULT_COUNTERS` slice of ``messages`` (zeros when
        the scheme ran without fault injection)."""
        return {key: self.messages.get(key, 0) for key in FAULT_COUNTERS}

    def summary(self) -> str:
        """Compact human-readable report line."""
        tiers = " ".join(
            f"{t}={self.hit_rate(t):.1%}" for t in ALL_TIERS if self.tier_counts.get(t)
        )
        return (
            f"{self.scheme}: mean latency {self.mean_latency:.3f} "
            f"over {self.n_requests} requests ({tiers})"
        )


def latency_gain(result: SchemeResult, baseline: SchemeResult) -> float:
    """The paper's latency gain: ``1 − L_scheme / L_baseline`` (§5.1).

    ``baseline`` is the NC scheme in every figure.  Positive values mean
    the scheme beats NC; the gain is expressed as a fraction (multiply by
    100 for the figures' percent axes).
    """
    if baseline.mean_latency <= 0:
        raise ValueError("baseline mean latency must be positive")
    return 1.0 - result.mean_latency / baseline.mean_latency


def _require_byte_accounting(result: SchemeResult) -> float:
    """Return ``bytes_total`` or explain that the run had sizes off."""
    total = result.extras.get("bytes_total")
    if total is None:
        raise ValueError(
            f"result for {result.scheme!r} carries no byte accounting; "
            "byte metrics require a run with object sizes enabled "
            "(ProWGenConfig.object_sizes != 'off' or a trace with sizes)"
        )
    return total


def byte_hit_rate(result: SchemeResult) -> float:
    """Fraction of response *bytes* served without the origin server.

    The equal-size world only needs the request hit rate; with
    heavy-tailed object sizes the two diverge (small hot objects inflate
    the request hit rate while most bytes still ship from the server),
    so size-aware runs report both.  Computed as
    ``1 − bytes_server / bytes_total`` over the measured (post-warmup)
    window.
    """
    total = _require_byte_accounting(result)
    if total <= 0:
        return 0.0
    return 1.0 - result.extras.get("bytes_server", 0.0) / total


def byte_latency_gain(result: SchemeResult, baseline: SchemeResult) -> float:
    """Byte-weighted analogue of :func:`latency_gain`.

    Weights each request's latency by the bytes it moved before
    averaging, so saving a 10 MB fetch counts 10⁵× a 100 B one — the
    transfer-time reading of the paper's metric once sizes vary.
    Requires both runs to carry byte accounting.
    """
    base_total = _require_byte_accounting(baseline)
    total = _require_byte_accounting(result)
    if base_total <= 0 or total <= 0:
        raise ValueError("byte_latency_gain needs a non-empty measured window")
    base_mean = baseline.extras.get("byte_latency", 0.0) / base_total
    if base_mean <= 0:
        raise ValueError("baseline byte-weighted mean latency must be positive")
    mean = result.extras.get("byte_latency", 0.0) / total
    return 1.0 - mean / base_mean
