"""First-class retry policies: the fault ladder as swappable strategy.

PR 3 hard-coded one response to a lost cooperation message — timeout,
exponential-backoff retry, fallback — inside the fault transport.  This
module extracts that ladder into data: a :class:`RetryPolicy` names a
*strategy* plus its knobs, a :class:`PolicySet` assigns one policy per
cooperation link, and :class:`LinkLadder` (:func:`run_ladder` for one
call) is the single pure engine every execution path (sync transport,
async ladders, the live daemon) drives.  Fault *probabilities* stay on the
:class:`~repro.faults.plan.FaultPlan`; the *response* to those faults is
now carried alongside it (``plan.policies``) and independently
swappable, so a candidate policy is one more plan to simulate (the
``frontier`` figure runs seven of them per scheme and loss rate).

Strategies
==========

``exponential``
    Today's ladder, the default, **byte-identical** to the PR-3 loop:
    round ``i`` times out after ``rtt * backoff_base**i`` (computed by
    iterated multiplication, preserving float associativity), up to
    ``max_retries`` retries after the first timeout, then fallback.
``immediate``
    No retries: one timed-out round and the caller falls back at once.
    Simulated on the ``frontier`` figure's pure-loss axis, it costs more
    than the default ladder for every scheme at every loss rate up to
    50 %: a retry that gets through saves more than the waits cost.
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
    not sum), while :attr:`LadderOutcome.deltas` still books the
    timeout/retry counters of every round actually drawn.

Determinism contract
====================

:class:`LinkLadder` is the engine: one link's constants, resolved once,
and three zero-argument uniform callables (loss, delay, jitter), each
asked only while the plan has that fault process on — a loss-free link
draws no loss uniform, a delay-free plan no delay uniform, so no RNG
state advances for a process that is off.  :func:`run_ladder` drives it
from a *draw source* — an object with ``loss_uniform(link)``,
``delay_uniform(link)`` and ``jitter_uniform(link)`` methods returning
uniforms in ``[0, 1)``.  The live source is the
:class:`~repro.faults.injector.FaultInjector` (whose fault layer binds
its per-link ``random`` methods once, :meth:`FaultInjector.uniforms`).
The uniforms a ladder consumed are returned on the outcome
(:attr:`LadderOutcome.draws`) and recorded as the trace-schema-2
``draws`` field.  Nothing in the package interprets them: replay and the
live carriers pass them through, so re-recorded traces keep their
bytes.  The field stays while the benchmark ledger's wire probe builds
eight-element events (ROADMAP item 15(b)).

This module imports only :mod:`repro.netmodel` and the stdlib, so both
the protocol and the faults layer can build on it without cycles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping

from ..netmodel import FAULT_LINKS

__all__ = [
    "STRATEGIES",
    "RetryPolicy",
    "PolicySet",
    "DEFAULT_POLICY",
    "DEFAULT_POLICIES",
    "LadderOutcome",
    "LinkLadder",
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

    An outcome always carries its deltas: the ladder decides them with
    its rounds, and the same dict is booked and recorded.  Treat an
    outcome, its charges and its dicts as read-only — the stack's
    plain outcomes are shared.
    """

    __slots__ = ("ok", "charges", "deltas", "draws")

    def __init__(
        self,
        ok: bool,
        charges: tuple[float, ...],
        deltas: dict[str, int],
        draws: dict[str, Any] | None = None,
    ) -> None:
        #: Did the exchange (eventually) get through?
        self.ok = ok
        #: Every latency charge, in charge order: the timeout of each
        #: charged failed round, then a slow success's delay.
        self.charges = charges
        #: Fault-counter increments (``timeouts`` / ``retries`` /
        #: ``fallbacks``): ``{}`` where no ladder ran, even for a refused
        #: exchange.
        self.deltas = deltas
        #: Uniforms the ladder consumed (the event's ``draws``): ``"l"``
        #: per-round loss uniforms, ``"d"`` the delay uniform, ``"j"``
        #: per-wait jitter uniforms, ``"ff": true`` for a force-failed
        #: ladder (which consumes nothing).  ``None`` when no fault ladder
        #: ran (plain stack or a LAN-side exchange).
        self.draws = draws

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LadderOutcome):
            return NotImplemented
        return (
            self.ok == other.ok
            and self.charges == other.charges
            and self.deltas == other.deltas
            and self.draws == other.draws
        )

    def __repr__(self) -> str:
        return (
            f"LadderOutcome(ok={self.ok!r}, charges={self.charges!r}, "
            f"deltas={self.deltas!r}, draws={self.draws!r})"
        )

    @classmethod
    def from_event(
        cls,
        ok: bool,
        charges: list[float],
        deltas: dict[str, int],
        draws: dict[str, Any] | None,
    ) -> "LadderOutcome":
        """Rebuild the outcome a trace event or daemon response carries.

        The charges keep their recorded order (only the order matters to
        whoever pays) and the deltas are the recorded ones.
        """
        return cls(ok, tuple(charges), deltas, draws)

    def event_fields(
        self,
    ) -> tuple[bool, list[float], dict[str, int], dict[str, Any] | None]:
        """``(ok, charges, deltas, draws)`` — :meth:`from_event`'s inverse,
        the tail of this outcome's trace event / daemon response."""
        return self.ok, list(self.charges), self.deltas, self.draws

    def then(self, last: "LadderOutcome") -> "LadderOutcome":
        """This delivered ladder with its last round carried by ``last``.

        A fault layer hands the round that got through to the stack it
        wraps; whatever that stack decides, charges and books follows
        this ladder's own.  The stack below is almost always the base
        (delivered, free), which leaves this outcome as it is.
        """
        if last.ok and not last.charges and not last.deltas:
            return self
        deltas = dict(self.deltas)
        for key, d in last.deltas.items():
            deltas[key] = deltas.get(key, 0) + d
        return LadderOutcome(last.ok, self.charges + last.charges, deltas, self.draws)


class LinkLadder:
    """One link's retry ladder, its constants resolved once — the engine.

    Built from the link's policy, the plan's fault probabilities and the
    link RTT, plus three zero-argument uniform callables: ``loss`` and
    ``delay``, asked only while the plan has that process on (a loss
    probability above 0 on the link, a delay rate above 0), and
    ``jitter``, asked once per charged wait of a jittered ``capped``
    ladder.  :meth:`decide` runs one ladder; the fault layer keeps one
    per link for the whole run, :func:`run_ladder` builds one per call.
    """

    __slots__ = (
        "rtt", "loss_p", "loss", "delay_rate", "delay", "delay_extra",
        "rounds", "backoff", "cap", "jitter", "jitter_amplitude", "hedged",
    )

    def __init__(
        self,
        policy: RetryPolicy,
        plan: Any,
        link: str,
        rtt: float,
        loss: Callable[[], float],
        delay: Callable[[], float],
        jitter: Callable[[], float],
    ) -> None:
        self.rtt = rtt
        self.loss_p = getattr(plan, f"{link}_loss")
        #: None while the process is off: nothing is drawn for it.
        self.loss = loss if self.loss_p > 0.0 else None
        self.delay_rate = plan.delay_rate
        self.delay = delay if self.delay_rate > 0.0 else None
        self.delay_extra = (plan.delay_factor - 1.0) * rtt
        self.rounds = policy.rounds(plan)
        self.backoff = policy.backoff(plan)
        capped = policy.strategy == "capped"
        self.cap = (
            rtt * policy.timeout_cap
            if capped and policy.timeout_cap is not None
            else None
        )
        self.jitter = jitter if capped and policy.jitter else None
        self.jitter_amplitude = policy.jitter
        self.hedged = policy.strategy == "hedged"

    def decide(self, force_fail: bool = False) -> LadderOutcome:
        """Run one retry ladder to a decision, deltas decided with it.

        No latency is charged and no counter is booked here — the caller
        applies the returned :class:`LadderOutcome` — and RNG
        consumption follows the original ladder's rules exactly: a
        loss-free link draws no loss uniform, a delay-free plan draws no
        delay uniform, and a force-failed ladder draws nothing at all.
        For the default exponential policy the float arithmetic is the
        original loop verbatim, so outcomes are byte-identical to the old
        hard-coded ladder.
        """
        draws: dict[str, Any] = {}
        if force_fail:
            draws["ff"] = True
        loss, cap, jitter = self.loss, self.cap, self.jitter
        lost: list[float] = []
        jittered: list[float] = []
        waits: list[float] = []
        timeout = self.rtt
        for _ in range(self.rounds):
            if not force_fail:
                if loss is None:
                    ok = True
                else:
                    u = loss()
                    lost.append(u)
                    ok = u >= self.loss_p
                if ok:
                    n = len(waits)
                    if self.delay is not None:
                        du = draws["d"] = self.delay()
                        if du < self.delay_rate and self.delay_extra:
                            waits.append(self.delay_extra)
                    if lost:
                        draws["l"] = lost
                    if jittered:
                        draws["j"] = jittered
                    return LadderOutcome(
                        True,
                        tuple(waits),
                        {"timeouts": n, "retries": n} if n else {},
                        draws,
                    )
            wait = timeout
            if cap is not None and wait > cap:
                wait = cap
            if jitter is not None:
                ju = jitter()
                jittered.append(ju)
                wait *= 1.0 + self.jitter_amplitude * (2.0 * ju - 1.0)
            waits.append(wait)
            timeout *= self.backoff
        if lost:
            draws["l"] = lost
        if jittered:
            draws["j"] = jittered
        # Exhausted: every drawn round timed out, every one but the first
        # was a retry, and the caller falls back.  Hedged charges max (the
        # first wait: the fallback has been racing since it), not the
        # serial sum, but books every drawn round.
        n = len(waits)
        return LadderOutcome(
            False,
            (waits[0],) if self.hedged and n > 1 else tuple(waits),
            {"timeouts": n, "retries": n - 1, "fallbacks": 1}
            if n > 1
            else {"timeouts": n, "fallbacks": 1},
            draws,
        )


def run_ladder(
    policy: RetryPolicy,
    plan: Any,
    link: str,
    rtt: float,
    source: Any,
    force_fail: bool = False,
) -> LadderOutcome:
    """Run one retry ladder to a decision, drawing from ``source``.

    ``plan`` supplies the fault probabilities (per-link loss, delay rate
    and factor, the default retry knobs); ``policy`` supplies the
    response strategy; ``source`` supplies uniforms (see the module
    docstring's draw-source contract).  The single ladder engine is
    :meth:`LinkLadder.decide`; this is it for one call, as the benchmark
    ledger's ``ladder`` probe times it.
    """
    return LinkLadder(
        policy,
        plan,
        link,
        rtt,
        partial(source.loss_uniform, link),
        partial(source.delay_uniform, link),
        partial(source.jitter_uniform, link),
    ).decide(force_fail)


def plan_fingerprint(plan: Any) -> str:
    """Short content hash of a plan *including its retry policies*.

    Replay reports print this so a mismatch between the
    policy a trace was recorded under and the policy in effect at replay
    time is diagnosable at a glance instead of surfacing as a generic
    divergence.  ``None`` (no plan) fingerprints as ``"none"``.
    """
    if plan is None:
        return "none"
    payload = dataclasses.asdict(plan)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
