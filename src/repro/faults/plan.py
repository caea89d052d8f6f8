"""The fault model: a frozen, seeded description of what goes wrong.

A :class:`FaultPlan` composes the pluggable fault processes the
cooperative-caching literature identifies as the weak points of
directory-based designs (stale directories, unresponsive peers, message
loss) with the churn the paper hand-waves as "Pastry is fault-resilient"
(§4.1, §6):

* **message loss** — per-link Bernoulli drop on the three cooperation
  links (:data:`~repro.netmodel.FAULT_LINKS`): the directory redirect
  into the own P2P cache, the cooperating-proxy fetch, and the push
  protocol.  A lost message costs the sender a full timeout (one link
  RTT, inflated by exponential backoff on retries) before it retries or
  falls back — the same accounting discipline as the Bloom-false-positive
  charge.
* **message delay** — Bernoulli latency inflation: with probability
  ``delay_rate`` a successful round takes ``delay_factor`` RTTs instead
  of one (congestion, slow peer), charged as extra latency.
* **unresponsive clients** — a deterministic ``unresponsive_fraction`` of
  client caches never answer push requests (NAT/firewall beyond the push
  protocol's reach, hung machines); a push aimed at one burns the full
  timeout ladder and fails.
* **stale directory entries** — eviction notices from clients to the
  proxy's lookup directory are dropped with probability ``stale_rate``,
  so entries linger past the object's death *beyond* Bloom false
  positives (this bites exact directories too).  The next lookup that
  chases a stale entry pays the wasted round and repairs it.
* **churn** — a Poisson process of membership events (crashes and joins)
  at ``churn_rate`` expected events per request, generalising the
  hand-written :class:`~repro.core.churn.ChurnEvent` lists.

All randomness derives from ``seed`` through named SHA-256 substreams
(:mod:`repro.faults.injector`), so a plan replays identically across
processes and runs — the determinism the equivalence suite asserts.

The *response* to these faults — the timeout → retry → fallback ladder —
rides alongside the probabilities as an optional
:class:`~repro.protocol.policy.PolicySet` (``policies``), so fault
processes and retry policy are independently swappable; ``None`` means
every link runs the default exponential ladder, byte-identical to the
pre-policy builds.

This module must not import from :mod:`repro.experiments` (the
experiment layer imports *us*).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..protocol.policy import DEFAULT_POLICIES, PolicySet

__all__ = ["FaultPlan", "NO_FAULTS"]


@dataclass(frozen=True)
class FaultPlan:
    """Declarative, picklable fault configuration for one simulation."""

    #: Per-link Bernoulli message-loss probabilities.
    p2p_loss: float = 0.0
    proxy_loss: float = 0.0
    push_loss: float = 0.0
    #: P(successful round is slow) and its latency multiplier.
    delay_rate: float = 0.0
    delay_factor: float = 2.0
    #: P(an eviction notice to the lookup directory is dropped).
    stale_rate: float = 0.0
    #: Fraction of client caches that never answer push requests.
    unresponsive_fraction: float = 0.0
    #: Expected Poisson membership events (fail/join) per request.
    churn_rate: float = 0.0
    #: Retry budget after the first timeout, and the backoff multiplier
    #: applied to the timeout on each successive retry.
    max_retries: int = 2
    backoff_base: float = 2.0
    #: Root seed of every fault substream (independent of the trace seed).
    seed: int = 0
    #: Per-link retry policies (``None``: the default exponential ladder
    #: on every link).  A plain dict — e.g. a JSON round-trip through a
    #: trace header or a wire hello — is coerced back to a
    #: :class:`~repro.protocol.policy.PolicySet`, whose constructor
    #: validates per-link names against the known fault links.  An
    #: identity set is stored as ``None``, so the default ladder has one
    #: spelling in point keys, trace headers and wire hellos.
    policies: PolicySet | None = None

    _RATES = (
        "p2p_loss",
        "proxy_loss",
        "push_loss",
        "delay_rate",
        "stale_rate",
        "unresponsive_fraction",
        "churn_rate",
    )

    def __post_init__(self) -> None:
        for name in self._RATES:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.delay_factor < 1.0:
            raise ValueError("delay_factor must be >= 1 (a delay cannot speed up)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 1.0:
            raise ValueError("backoff_base must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.policies is not None and not isinstance(self.policies, PolicySet):
            if not isinstance(self.policies, dict):
                raise TypeError(
                    "policies must be a PolicySet, a mapping, or None; "
                    f"got {self.policies!r}"
                )
            object.__setattr__(self, "policies", PolicySet(**self.policies))
        if self.policies is not None and self.policies.is_default:
            object.__setattr__(self, "policies", None)

    def policy_set(self) -> PolicySet:
        """The effective per-link policies (the identity set when unset)."""
        return self.policies if self.policies is not None else DEFAULT_POLICIES

    def is_zero(self) -> bool:
        """True when no fault process is active — the plan is a no-op.

        Zero plans dispatch to the plain, fault-free code path so results
        stay byte-identical to a run without the faults subsystem.
        """
        return all(getattr(self, name) == 0.0 for name in self._RATES)

    @property
    def label(self) -> str:
        """Compact tag for progress lines, e.g. ``loss=0.1,stale=0.05``."""
        parts: list[str] = []
        if self.p2p_loss == self.proxy_loss == self.push_loss:
            if self.p2p_loss:
                parts.append(f"loss={self.p2p_loss:g}")
        else:
            for name, tag in (("p2p_loss", "p2p"), ("proxy_loss", "proxy"),
                              ("push_loss", "push")):
                if getattr(self, name):
                    parts.append(f"{tag}={getattr(self, name):g}")
        if self.delay_rate:
            parts.append(f"delay={self.delay_rate:g}x{self.delay_factor:g}")
        if self.stale_rate:
            parts.append(f"stale={self.stale_rate:g}")
        if self.unresponsive_fraction:
            parts.append(f"unresp={self.unresponsive_fraction:g}")
        if self.churn_rate:
            parts.append(f"churn={self.churn_rate:g}")
        if self.policies is not None:
            parts.append(f"policy={self.policies.label}")
        return ",".join(parts) if parts else "none"

    def describe(self) -> str:
        """One human-readable line listing every non-default field."""
        changed = [
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if getattr(self, f.name) != f.default
        ]
        return f"FaultPlan({', '.join(changed)})" if changed else "FaultPlan(no faults)"


#: The identity plan: every fault process off, default protocol knobs.
NO_FAULTS = FaultPlan()
