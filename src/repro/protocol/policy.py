"""First-class retry policies: the fault ladder as swappable strategy.

PR 3 hard-coded one response to a lost cooperation message — timeout,
exponential-backoff retry, fallback — inside the fault transport.  This
module extracts that ladder into data: a :class:`RetryPolicy` names a
*strategy* plus its knobs, a :class:`PolicySet` assigns one policy per
cooperation link, and :func:`run_ladder` is the single pure engine every
execution path (sync transport, async ladders, the live daemon, the
what-if replayer) drives.  Fault *probabilities* stay on the
:class:`~repro.faults.plan.FaultPlan`; the *response* to those faults is
now carried alongside it (``plan.policies``) and independently
swappable — which is what lets :mod:`repro.protocol.whatif` re-drive a
recorded exchange stream under a different policy without re-simulating
the caches.

Strategies
==========

``exponential``
    Today's ladder, the default, **byte-identical** to the PR-3 loop:
    round ``i`` times out after ``rtt * backoff_base**i`` (computed by
    iterated multiplication, preserving float associativity), up to
    ``max_retries`` retries after the first timeout, then fallback.
``immediate``
    No retries: one timed-out round and the caller falls back at once.
    The policy :mod:`repro.experiments.robustness` predicts should win
    beyond ~30 % loss.
``capped``
    The exponential ladder with the per-round timeout clamped at
    ``rtt * timeout_cap`` and an optional seeded, deterministic jitter:
    each wait is scaled by ``1 + jitter * (2u - 1)`` for a uniform ``u``
    from a named substream, so two runs of the same plan still agree to
    the byte.
``hedged``
    Fire the fallback concurrently after the *first* timeout while the
    retries continue.  Draws and the success outcome are identical to
    the exponential ladder; on exhaustion only the first timeout is
    charged (the fallback has been in flight since then — charge max,
    not sum), with :attr:`LadderOutcome.drawn_timeouts` preserving the
    timeout/retry counters of the rounds actually drawn.

Determinism contract
====================

:func:`run_ladder` consumes randomness through a *draw source* — an
object with ``loss_uniform(link)``, ``delay_uniform(link)`` and
``jitter_uniform(link)`` methods returning uniforms in ``[0, 1)`` (or
``None`` when the corresponding fault process is off, in which case no
RNG state advances).  The live source is the
:class:`~repro.faults.injector.FaultInjector`; the what-if engine
substitutes recorded uniforms plus a seeded extension substream.  The
uniforms a ladder consumed are returned on the outcome
(:attr:`LadderOutcome.draws`) so the recording layer can persist them —
the trace-schema-2 ``draws`` field that makes policy what-ifs possible.

This module imports only :mod:`repro.netmodel` and the stdlib, so both
the protocol and the faults layer can build on it without cycles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..netmodel import FAULT_LINKS

__all__ = [
    "STRATEGIES",
    "RetryPolicy",
    "PolicySet",
    "DEFAULT_POLICY",
    "DEFAULT_POLICIES",
    "LadderOutcome",
    "run_ladder",
    "plan_fingerprint",
]

#: The named ladder strategies, in documentation order.
STRATEGIES = ("exponential", "immediate", "capped", "hedged")


@dataclass(frozen=True)
class RetryPolicy:
    """One link's response to a lost cooperation message.

    ``max_retries`` / ``backoff_base`` default to ``None`` — *inherit
    the plan's protocol knobs* — so the empty policy is exactly today's
    behaviour and a policy can override one knob without restating the
    other.  ``timeout_cap`` (a multiple of the link RTT) and ``jitter``
    (a relative amplitude in ``[0, 1]``) only apply to the ``capped``
    strategy.
    """

    strategy: str = "exponential"
    #: Retry budget after the first timeout (None: the plan's value).
    max_retries: int | None = None
    #: Timeout multiplier per retry round (None: the plan's value).
    backoff_base: float | None = None
    #: Per-round timeout ceiling, in link-RTT multiples (``capped``).
    timeout_cap: float | None = None
    #: Relative jitter amplitude on each wait (``capped``; 0 = none).
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown retry strategy {self.strategy!r}; "
                f"known strategies: {', '.join(STRATEGIES)}"
            )
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base is not None and self.backoff_base < 1.0:
            raise ValueError("backoff_base must be >= 1")
        if self.timeout_cap is not None and self.timeout_cap < 1.0:
            raise ValueError("timeout_cap must be >= 1 (in link-RTT multiples)")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    @property
    def is_default(self) -> bool:
        """True when this policy is exactly the PR-3 ladder (identity)."""
        return (
            self.strategy == "exponential"
            and self.max_retries is None
            and self.backoff_base is None
            and self.timeout_cap is None
            and self.jitter == 0.0
        )

    def rounds(self, plan: Any) -> int:
        """Total wire rounds this policy attempts under ``plan``."""
        if self.strategy == "immediate":
            return 1
        retries = self.max_retries if self.max_retries is not None else plan.max_retries
        return retries + 1

    def backoff(self, plan: Any) -> float:
        """Effective backoff multiplier under ``plan``."""
        return (
            self.backoff_base if self.backoff_base is not None else plan.backoff_base
        )

    @property
    def label(self) -> str:
        """Compact tag, e.g. ``exp(mr=3,b=1.5)`` or ``immediate``."""
        short = {"exponential": "exp", "immediate": "immediate",
                 "capped": "capped", "hedged": "hedged"}[self.strategy]
        knobs: list[str] = []
        if self.max_retries is not None:
            knobs.append(f"mr={self.max_retries}")
        if self.backoff_base is not None:
            knobs.append(f"b={self.backoff_base:g}")
        if self.timeout_cap is not None:
            knobs.append(f"cap={self.timeout_cap:g}")
        if self.jitter:
            knobs.append(f"j={self.jitter:g}")
        return f"{short}({','.join(knobs)})" if knobs else short


def _as_policy(value: Any) -> RetryPolicy:
    """Coerce a JSON round-trip (plain dict) back into a policy."""
    if isinstance(value, RetryPolicy):
        return value
    if isinstance(value, Mapping):
        return RetryPolicy(**value)
    raise TypeError(f"expected a RetryPolicy or mapping, got {value!r}")


@dataclass(frozen=True)
class PolicySet:
    """Per-link retry policies: one default plus named overrides.

    ``per_link`` keys must name members of
    :data:`repro.netmodel.FAULT_LINKS` — an unknown key raises at
    construction with the known-link list, so a typo'd override can
    never silently fall through to the default ladder.
    """

    default: RetryPolicy = field(default_factory=RetryPolicy)
    per_link: dict[str, RetryPolicy] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "default", _as_policy(self.default))
        coerced = {link: _as_policy(p) for link, p in dict(self.per_link).items()}
        unknown = sorted(set(coerced) - set(FAULT_LINKS))
        if unknown:
            raise ValueError(
                f"unknown fault link(s) {', '.join(map(repr, unknown))} in "
                f"per-link retry policies; known links: "
                f"{', '.join(FAULT_LINKS)}"
            )
        object.__setattr__(self, "per_link", coerced)

    def for_link(self, link: str) -> RetryPolicy:
        """The policy governing ``link`` (override, else the default)."""
        return self.per_link.get(link, self.default)

    @property
    def is_default(self) -> bool:
        """True when every link runs the PR-3 ladder (the identity set)."""
        return self.default.is_default and all(
            p.is_default for p in self.per_link.values()
        )

    @property
    def label(self) -> str:
        """Compact tag, e.g. ``exp`` or ``immediate;p2p=exp(mr=3)``."""
        parts = [self.default.label]
        parts.extend(
            f"{link}={self.per_link[link].label}"
            for link in FAULT_LINKS
            if link in self.per_link
        )
        return ";".join(parts)


#: The identity policy / policy set: exactly the PR-3 ladder.
DEFAULT_POLICY = RetryPolicy()
DEFAULT_POLICIES = PolicySet()


@dataclass(frozen=True)
class LadderOutcome:
    """One exchange, decided: the record every carrier hands back.

    Whether the exchange (eventually) got through, every latency charge
    it costs in charge order, the fault-counter increments it books and
    the uniforms it consumed — what :func:`run_ladder` returns, what a
    trace ``"x"`` event and a daemon response carry, and what
    :meth:`~repro.protocol.transport.Transport.draw` returns on every
    stack.  Deciding touches nothing else; whoever asked
    (:meth:`~repro.protocol.transport.Transport.attempt`, the async
    backend, a daemon) pays.  Because every RNG draw behind an outcome
    happens in that one synchronous step, concurrent ladders consume the
    per-link fault substreams in ladder start order no matter how their
    waits later interleave in flight.
    """

    #: Did the exchange (eventually) get through?
    ok: bool
    #: Timeout charged per failed round, in ladder order.
    waits: tuple[float, ...] = ()
    #: Extra charge on a slow success (0.0 = on time).
    delay: float = 0.0
    #: Uniforms the ladder consumed (the event's ``draws``): ``"l"``
    #: per-round loss uniforms, ``"d"`` the delay uniform, ``"j"``
    #: per-wait jitter uniforms, ``"ff": true`` for a force-failed
    #: ladder (which consumes nothing).  ``None`` when no fault ladder
    #: ran (plain stack or a LAN-side exchange).
    draws: dict[str, Any] | None = None
    #: Rounds actually drawn when that differs from ``len(waits)`` (the
    #: hedged strategy charges only the first timeout on exhaustion but
    #: must still book every drawn round's counters).
    drawn_timeouts: int | None = None
    #: Counter increments when they are given rather than derived from
    #: the rounds: ``{}`` where no ladder ran (nothing to book, even for
    #: a refused exchange), the recorded deltas on an outcome rebuilt
    #: from an event.  ``None``: :meth:`counter_deltas` derives them.
    deltas: dict[str, int] | None = None

    @classmethod
    def from_event(
        cls,
        ok: bool,
        charges: list[float],
        deltas: dict[str, int],
        draws: dict[str, Any] | None,
    ) -> "LadderOutcome":
        """Rebuild the outcome a trace event or daemon response carries.

        The charges keep their recorded order (a slow success's delay
        rides as the last of :attr:`waits`; only the order matters to
        whoever pays) and the deltas are the recorded ones, never
        re-derived.
        """
        return cls(ok=ok, waits=tuple(charges), draws=draws, deltas=deltas)

    def event_fields(
        self,
    ) -> tuple[bool, list[float], dict[str, int], dict[str, Any] | None]:
        """``(ok, charges, deltas, draws)`` — :meth:`from_event`'s inverse,
        the tail of this outcome's trace event / daemon response."""
        return self.ok, list(self.charges), self.counter_deltas(), self.draws

    @property
    def charges(self) -> tuple[float, ...]:
        """Every latency charge the ladder books, in charge order."""
        return self.waits + (self.delay,) if self.delay else self.waits

    def counter_deltas(self) -> dict[str, int]:
        """Fault-counter increments this ladder books (trace/wire deltas)."""
        if self.deltas is not None:
            return self.deltas
        deltas: dict[str, int] = {}
        n = self.drawn_timeouts if self.drawn_timeouts is not None else len(self.waits)
        if n:
            deltas["timeouts"] = n
            retries = n if self.ok else n - 1
            if retries:
                deltas["retries"] = retries
        if not self.ok:
            deltas["fallbacks"] = 1
        return deltas

    def then(self, last: "LadderOutcome") -> "LadderOutcome":
        """This delivered ladder with its last round carried by ``last``.

        A fault layer hands the round that got through to the stack it
        wraps; whatever that stack decides, charges and books follows
        this ladder's own.  The stack below is almost always the base
        (delivered, free), which leaves this outcome as it is.
        """
        if last.ok and not last.charges and not last.counter_deltas():
            return self
        deltas = dict(self.counter_deltas())
        for key, d in last.counter_deltas().items():
            deltas[key] = deltas.get(key, 0) + d
        return LadderOutcome.from_event(
            last.ok, [*self.charges, *last.charges], deltas, self.draws
        )


def run_ladder(
    policy: RetryPolicy,
    plan: Any,
    link: str,
    rtt: float,
    source: Any,
    force_fail: bool = False,
) -> LadderOutcome:
    """Run one retry ladder to a decision — the single pure ladder engine.

    ``plan`` supplies the fault probabilities (per-link loss, delay rate
    and factor, the default retry knobs); ``policy`` supplies the
    response strategy; ``source`` supplies uniforms (see the module
    docstring's draw-source contract).  No latency is charged and no
    counter is booked here — the caller applies the returned
    :class:`LadderOutcome` — and RNG consumption follows the PR-3 rules
    exactly: a loss-free link draws no loss uniform, a delay-free plan
    draws no delay uniform, and a force-failed ladder draws nothing at
    all.  For the default exponential policy the float arithmetic is the
    PR-3 loop verbatim, so outcomes are byte-identical to the old
    hard-coded ladder.
    """
    p = getattr(plan, f"{link}_loss")
    rounds = policy.rounds(plan)
    base = policy.backoff(plan)
    capped = policy.strategy == "capped"
    cap = rtt * policy.timeout_cap if capped and policy.timeout_cap is not None else None
    draws: dict[str, Any] = {}
    if force_fail:
        draws["ff"] = True
    loss_uniforms: list[float] = []
    jitter_uniforms: list[float] = []
    timeout = rtt
    waits: list[float] = []
    for _ in range(rounds):
        ok = False
        if not force_fail:
            u = source.loss_uniform(link)
            if u is None:
                ok = True
            else:
                loss_uniforms.append(u)
                ok = u >= p
        if ok:
            delay = 0.0
            du = source.delay_uniform(link)
            if du is not None:
                draws["d"] = du
                if du < plan.delay_rate:
                    delay = (plan.delay_factor - 1.0) * rtt
            if loss_uniforms:
                draws["l"] = loss_uniforms
            if jitter_uniforms:
                draws["j"] = jitter_uniforms
            return LadderOutcome(
                ok=True, waits=tuple(waits), delay=delay, draws=draws
            )
        wait = timeout
        if cap is not None and wait > cap:
            wait = cap
        if capped and policy.jitter:
            ju = source.jitter_uniform(link)
            jitter_uniforms.append(ju)
            wait *= 1.0 + policy.jitter * (2.0 * ju - 1.0)
        waits.append(wait)
        timeout *= base
    if loss_uniforms:
        draws["l"] = loss_uniforms
    if jitter_uniforms:
        draws["j"] = jitter_uniforms
    if policy.strategy == "hedged" and len(waits) > 1:
        # The fallback has been racing since the first timeout: charge
        # max (the first wait), not the serial sum, but keep the drawn
        # rounds' counter accounting.
        return LadderOutcome(
            ok=False,
            waits=(waits[0],),
            draws=draws,
            drawn_timeouts=len(waits),
        )
    return LadderOutcome(ok=False, waits=tuple(waits), draws=draws)


def plan_fingerprint(plan: Any) -> str:
    """Short content hash of a plan *including its retry policies*.

    Replay and what-if reports print this so a mismatch between the
    policy a trace was recorded under and the policy in effect at replay
    time is diagnosable at a glance instead of surfacing as a generic
    divergence.  ``None`` (no plan) fingerprints as ``"none"``.
    """
    if plan is None:
        return "none"
    payload = dataclasses.asdict(plan)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
