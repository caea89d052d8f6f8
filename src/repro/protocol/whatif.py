"""What-if replay: re-judge a recorded trace under a different retry policy.

:mod:`repro.protocol.replay` answers "does this build reproduce the
recording byte for byte?".  This module answers the policy question the
robustness sweeps raised: *had the ladder been configured differently,
what would this exact run have cost?* — without re-simulating the
caches.  A trace records, for every fault ladder, the raw
uniforms it consumed (the ``draws`` field); :func:`whatif_trace` feeds
those uniforms back through :func:`~repro.protocol.policy.run_ladder`
under a *candidate* :class:`~repro.protocol.policy.PolicySet` and
accumulates the differences against the recorded events:

* **latency** — the candidate ladder's charges replace the recorded
  ones, event by event (``Σ new − Σ old``);
* **fault counters** — the candidate outcome's
  :attr:`~repro.protocol.policy.LadderOutcome.deltas` replace the
  recorded deltas;
* **outcome flips** — when the candidate policy changes whether the
  exchange got through (e.g. ``immediate`` gives up before the round
  that succeeded, or a larger retry budget rescues a recorded
  exhaustion), one request is moved between the link's natural serving
  tier (``p2p`` → ``local_p2p``, ``proxy`` → ``coop_proxy``, ``push`` →
  ``coop_p2p``) and the ``server`` tier, and the mean latency adjusts by
  the tier-latency difference.

When a candidate ladder runs *more* rounds than the recording holds
uniforms for (a raised retry budget probing past a recorded exhaustion),
the extra uniforms come from a seeded **extension substream** —
``fault_seed(plan.seed, scope, "whatif", link, event_index)`` — so
what-if results are themselves deterministic and replayable.

Exactness contract
==================

Under the **identity policy** (the plan's own ``policies``, the default
when ``policies=None``) every re-judged ladder reproduces its recorded
event exactly — same uniforms, same float arithmetic — so no event
changes and the report returns the recorded
:class:`~repro.core.metrics.SchemeResult` **byte-identically** (the
tier-1 test ``tests/protocol/test_whatif.py::TestIdentity`` asserts this
for every faultable scheme; any drift means the draws field and
the engine have diverged and is reported as changed events, never
papered over).

Under a *modified* policy the result is a **fixed-stream
approximation**: the recorded exchange stream is held fixed, so
second-order effects — a rescued fetch changing later cache contents, a
failed push changing later hit rates, warmup-window shifts — are not
modelled.  Tier moves that would drive a tier count negative are left
unattributed (counted in the report) rather than fabricated.  That is
the standard what-if trade: per-ladder costs are exact, cross-request
feedback is not.

Traces recorded with an active warmup window are refused for
non-identity policies: recorded charges inside the window never reached
``total_latency``, so per-event deltas would mis-account them.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path
from typing import Any

from ..netmodel import (
    LINK_P2P,
    LINK_PROXY,
    LINK_PUSH,
    TIER_COOP_P2P,
    TIER_COOP_PROXY,
    TIER_LOCAL_P2P,
    TIER_SERVER,
)
from .messages import FAULT_COUNTERS
from .policy import PolicySet, RetryPolicy, plan_fingerprint, run_ladder
from .replay import RecordedTrace, TraceIncompleteError, load_trace

__all__ = [
    "WhatIfError",
    "EventChange",
    "WhatIfReport",
    "whatif_trace",
]

#: The serving tier an exchange over each cooperation link naturally
#: lands in when it succeeds — the tier an outcome flip moves a request
#: to or from (the other end is always ``server``, the universal
#: fallback).
LINK_TIER = {
    LINK_P2P: TIER_LOCAL_P2P,
    LINK_PROXY: TIER_COOP_PROXY,
    LINK_PUSH: TIER_COOP_P2P,
}


class WhatIfError(Exception):
    """The trace cannot support the requested what-if replay."""


def _as_policy_set(policies: Any, plan: Any) -> PolicySet:
    """Coerce the ``policies`` argument; ``None`` means the plan's own."""
    if policies is None:
        return plan.policy_set() if plan is not None else PolicySet()
    if isinstance(policies, PolicySet):
        return policies
    if isinstance(policies, RetryPolicy):
        return PolicySet(default=policies)
    if isinstance(policies, dict):
        return PolicySet(**policies)
    raise TypeError(
        f"policies must be a PolicySet, RetryPolicy, mapping, or None; "
        f"got {policies!r}"
    )


class _RecordedDraws:
    """Draw source for one re-judged ladder: recorded uniforms first.

    Serves the event's recorded loss/delay/jitter uniforms in their
    original order; once a stream runs dry (the candidate policy probes
    rounds the recording never ran) it switches to the event's seeded
    extension substream.  The plan-gating mirrors the live
    :class:`~repro.faults.injector.FaultInjector`: a fault process that
    is off returns ``None`` and consumes nothing.
    """

    def __init__(self, plan: Any, draws: dict[str, Any], ext_seed: int) -> None:
        self._plan = plan
        self._loss = list(draws.get("l", ()))
        self._li = 0
        self._delay = draws.get("d")
        self._jitter = list(draws.get("j", ()))
        self._ji = 0
        self._ext_seed = ext_seed
        self._ext: random.Random | None = None
        #: Uniforms served from the extension substream.
        self.extension_draws = 0

    def _extension(self) -> float:
        if self._ext is None:
            self._ext = random.Random(self._ext_seed)
        self.extension_draws += 1
        return self._ext.random()

    def loss_uniform(self, link: str) -> float | None:
        """Recorded loss uniforms in order, then the extension stream."""
        if getattr(self._plan, f"{link}_loss") <= 0.0:
            return None
        if self._li < len(self._loss):
            u = self._loss[self._li]
            self._li += 1
            return u
        return self._extension()

    def delay_uniform(self, link: str) -> float | None:
        """The recorded delay uniform, else an extension draw."""
        if self._plan.delay_rate <= 0.0:
            return None
        if self._delay is not None:
            u, self._delay = self._delay, None
            return u
        return self._extension()

    def jitter_uniform(self, link: str) -> float:
        """Recorded jitter uniforms in order, then the extension stream."""
        if self._ji < len(self._jitter):
            u = self._jitter[self._ji]
            self._ji += 1
            return u
        return self._extension()


@dataclasses.dataclass(frozen=True)
class EventChange:
    """One recorded ladder the candidate policy re-judged differently."""

    #: Position in the recorded event stream.
    index: int
    #: Request index the exchange belonged to.
    request: int
    #: Exchange kind and cooperation link.
    kind: str
    link: str
    #: Recorded vs candidate outcome (equal when only charges changed).
    ok_before: bool
    ok_after: bool
    #: This event's charge difference (candidate − recorded), excluding
    #: any tier-move adjustment.
    latency_delta: float


@dataclasses.dataclass(frozen=True)
class WhatIfReport:
    """Outcome of one :func:`whatif_trace` run."""

    path: str
    scheme: str
    seed: int
    plan_label: str
    #: Fingerprint of the recorded plan (probabilities + its policies).
    plan_fingerprint: str
    #: The candidate policy set's compact label.
    policy_label: str
    #: True when the candidate equals the plan's own policies.
    identity: bool
    n_events: int
    #: Recorded fault ladders re-judged (events carrying draws).
    n_ladders: int
    #: Ladders whose outcome, charges, or counters changed.
    n_changed: int
    #: Ladders whose success/failure outcome flipped.
    n_flips: int
    #: Outcome flips whose tier move could not be attributed (the source
    #: tier's count was already exhausted — approximation overflow).
    unattributed_flips: int
    #: Uniforms drawn from the seeded extension substreams.
    extension_draws: int
    #: Candidate result == recorded result, field for field.
    identical: bool
    #: The what-if :class:`~repro.core.metrics.SchemeResult`.
    result: Any
    #: The recorded result, as stored in the trace footer.
    recorded: dict[str, Any]
    #: First changed events, for inspection (bounded).
    changes: tuple[EventChange, ...]


def _load_complete(path: str | Path) -> RecordedTrace:
    trace = load_trace(path)
    if not trace.complete or trace.recorded_result is None:
        raise TraceIncompleteError(
            f"{trace.path}: trace is incomplete — a what-if needs the "
            "recorded result to diff against"
        )
    return trace


def whatif_trace(
    path: str | Path,
    policies: Any = None,
    max_changes: int = 20,
) -> WhatIfReport:
    """Re-judge every recorded fault ladder under a candidate policy set.

    ``policies`` is a :class:`~repro.protocol.policy.PolicySet` (or a
    single :class:`~repro.protocol.policy.RetryPolicy`, or a mapping
    coercible to a set); ``None`` means the plan's own policies — the
    identity what-if, whose result is byte-identical to the recording.
    ``max_changes`` bounds the per-event change list kept on the report.

    Raises :class:`WhatIfError` for requests the trace cannot support
    (warmup-window recordings under a non-identity policy) and the
    :class:`~repro.protocol.replay.TraceError` family for unusable files.
    """
    from ..core.metrics import SchemeResult

    trace = _load_complete(path)
    plan = None
    if trace.header.get("plan") is not None:
        from ..faults.plan import FaultPlan

        plan = FaultPlan(**trace.header["plan"])
    candidate = _as_policy_set(policies, plan)
    baseline = plan.policy_set() if plan is not None else PolicySet()
    identity = candidate == baseline
    recorded_result = trace.recorded_result
    assert recorded_result is not None  # _load_complete guarantees it

    if not identity and (
        float(trace.header["config"].get("warmup_fraction", 0.0) or 0.0) > 0.0
    ):
        raise WhatIfError(
            f"{trace.path}: recorded with an active warmup window — "
            "warmup charges never reach total_latency, so per-event "
            "deltas cannot be attributed; re-record with "
            "warmup_fraction=0 for policy what-ifs"
        )

    from ..netmodel import NetworkConfig

    network = NetworkConfig(**trace.header["config"]["network"])
    rtts = network.link_rtts()
    scope = trace.scheme
    seed_base = plan.seed if plan is not None else 0

    from ..faults.injector import fault_seed

    n_ladders = n_changed = n_flips = unattributed = ext_draws = 0
    latency_delta = 0.0
    counter_delta: dict[str, int] = {}
    tiers = dict(recorded_result.get("tier_counts") or {})
    changes: list[EventChange] = []

    for index, event in enumerate(trace.events):
        if event[0] != "x" or event[7] is None:
            continue  # no fault ladder behind this event
        _, req, kind, link, ok_rec, charges_rec, deltas_rec, draws = event
        n_ladders += 1
        if plan is None:
            continue  # draws without a plan cannot occur; defensive
        source = _RecordedDraws(
            plan, draws, fault_seed(seed_base, scope, "whatif", link, index)
        )
        outcome = run_ladder(
            candidate.for_link(link),
            plan,
            link,
            rtts[link],
            source,
            force_fail=bool(draws.get("ff")),
        )
        ext_draws += source.extension_draws
        new_charges = list(outcome.charges)
        new_deltas = outcome.deltas
        if (
            outcome.ok == ok_rec
            and new_charges == charges_rec
            and new_deltas == deltas_rec
        ):
            continue
        n_changed += 1
        event_delta = sum(new_charges) - sum(charges_rec)
        latency_delta += event_delta
        for key in FAULT_COUNTERS:
            d = new_deltas.get(key, 0) - deltas_rec.get(key, 0)
            if d:
                counter_delta[key] = counter_delta.get(key, 0) + d
        if outcome.ok != ok_rec:
            n_flips += 1
            tier = LINK_TIER[link]
            src, dst = (tier, TIER_SERVER) if ok_rec else (TIER_SERVER, tier)
            if tiers.get(src, 0) > 0:
                tiers[src] = tiers.get(src, 0) - 1
                tiers[dst] = tiers.get(dst, 0) + 1
                latency_delta += network.latency(dst) - network.latency(src)
            else:
                unattributed += 1
        if len(changes) < max_changes:
            changes.append(
                EventChange(
                    index=index,
                    request=int(req),
                    kind=str(kind),
                    link=str(link),
                    ok_before=bool(ok_rec),
                    ok_after=outcome.ok,
                    latency_delta=event_delta,
                )
            )

    if n_changed == 0:
        # Nothing moved: return the recording itself, guaranteeing the
        # identity what-if is byte-identical (no float re-accumulation).
        result = SchemeResult(**recorded_result)
    else:
        result = SchemeResult(
            scheme=recorded_result["scheme"],
            n_requests=recorded_result["n_requests"],
            total_latency=recorded_result["total_latency"] + latency_delta,
            tier_counts={t: n for t, n in tiers.items() if n},
            messages=_adjusted(recorded_result.get("messages") or {}, counter_delta),
            extras=dict(recorded_result.get("extras") or {}),
        )

    return WhatIfReport(
        path=str(trace.path),
        scheme=trace.scheme,
        seed=trace.seed,
        plan_label=plan.label if plan is not None else "none",
        plan_fingerprint=plan_fingerprint(plan),
        policy_label=candidate.label,
        identity=identity,
        n_events=len(trace.events),
        n_ladders=n_ladders,
        n_changed=n_changed,
        n_flips=n_flips,
        unattributed_flips=unattributed,
        extension_draws=ext_draws,
        identical=dataclasses.asdict(result) == recorded_result,
        result=result,
        recorded=recorded_result,
        changes=tuple(changes),
    )


def _adjusted(messages: dict[str, int], delta: dict[str, int]) -> dict[str, int]:
    """Recorded message counters with the what-if's ladder deltas folded in."""
    out = dict(messages)
    for key, d in delta.items():
        out[key] = out.get(key, 0) + d
    return out

