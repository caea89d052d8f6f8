"""Robustness sweeps — degradation under failure vs fault rate.

This module holds the points of the two fault-rate axes; the figures
drawn from them are ``robust`` and ``frontier`` in
:mod:`repro.experiments.figures`.

The paper reports latency gains assuming every cooperation mechanism
works; this experiment measures how those gains *degrade* when it
doesn't.  One composite fault rate ``r`` drives the whole
:class:`~repro.faults.plan.FaultPlan`:

=======================  ===============  =============================
fault process            parameter at r   rationale
=======================  ===============  =============================
message loss (3 links)   ``r``            the headline knob
message delay            rate ``r``, x2   slow links accompany lossy ones
stale directory          ``r / 2``        notices ride the same links
unresponsive clients     ``r / 2``        firewalled/hung fraction
Poisson churn            ``r / 200``      events per request, so a full
                                          sweep sees tens of events, not
                                          thousands
=======================  ===============  =============================

At ``r = 0`` the plan is zero and the executor routes every point to
the plain (fault-free) code path — the leftmost column of the figure is
byte-identical to the paper runs.  NC carries no cooperation link, so
it runs fault-free at every rate (one simulation, shared across the
axis) and anchors the claim: Hier-GD with timeout/retry/fallback
degrades *toward* NC as faults grow, never below it, because every
exhausted retry ladder ends at the same origin server NC uses.

The policy frontier asks a narrower question: what is each response to
a lost message worth?  Its plans are **pure loss** (all three
cooperation links at rate ``r``, no delay, staleness or churn), answered
by one candidate :class:`~repro.protocol.policy.RetryPolicy` on every
link, and every ``(scheme, rate, policy)`` cell is simulated exactly.
At ``r = 0`` no ladder runs, so the candidates share one fault-free key
per scheme and simulate once.
"""

from __future__ import annotations

from ..faults import FAULTY_SCHEMES, FaultPlan
from ..protocol.policy import PolicySet, RetryPolicy
from .executor import SweepPoint

__all__ = [
    "DEFAULT_FAULT_RATES",
    "FRONTIER_POLICIES",
    "FRONTIER_RATES",
    "ROBUSTNESS_FRACTION",
    "ROBUSTNESS_SCHEMES",
    "frontier_points",
    "robustness_plan",
    "robustness_points",
]

#: The x-axis: composite fault rate (loss probability per message).
#: Capped at 0.2: the composite plan adds delay, staleness and churn as
#: ``r`` grows, so past that the figure stops isolating degradation.
#: How the retry ladder itself fares under heavier loss is the
#: ``frontier`` figure's question (:data:`FRONTIER_RATES`).
DEFAULT_FAULT_RATES = (0.0, 0.02, 0.05, 0.1, 0.2)

#: Cooperating schemes with a faultable cooperation path (plus the NC
#: baseline).  Squirrel rides along since the fault transport covers its
#: home-node fetch: with no proxy tier to fall back through, it is the
#: one scheme that can degrade *below* NC — measurable, not rhetorical.
ROBUSTNESS_SCHEMES = ("fc", "fc-ec", "hier-gd", "squirrel")

#: Proxy-cache fraction the sweep is pinned at: small enough that the
#: cooperation paths carry real traffic (at large caches everything is a
#: local proxy hit and faults have nothing to bite).
ROBUSTNESS_FRACTION = 0.3


def robustness_plan(rate: float, seed: int = 0) -> FaultPlan:
    """The composite :class:`FaultPlan` at fault rate ``rate`` (table above)."""
    if rate == 0.0:
        return FaultPlan(seed=seed)
    return FaultPlan(
        p2p_loss=rate,
        proxy_loss=rate,
        push_loss=rate,
        delay_rate=rate,
        delay_factor=2.0,
        stale_rate=rate / 2.0,
        unresponsive_fraction=rate / 2.0,
        churn_rate=rate / 200.0,
        seed=seed,
    )


def robustness_points(
    config,
    rates=DEFAULT_FAULT_RATES,
    schemes=ROBUSTNESS_SCHEMES,
    seed: int = 0,
) -> list[SweepPoint]:
    """One point per (rate, scheme), rate-major, NC first at every rate.

    Schemes without a fault-aware variant (NC here) get ``faults=None``:
    their result cannot depend on the plan, so all rates share one store
    key and — the engine simulating each key of a batch once — the
    baseline simulates exactly once per sweep.
    """
    names = list(dict.fromkeys(("nc", *schemes)))
    return [
        SweepPoint(
            scheme=name,
            fraction=ROBUSTNESS_FRACTION,
            config=config,
            seed=seed,
            faults=robustness_plan(rate, seed) if name in FAULTY_SCHEMES else None,
        )
        for rate in rates
        for name in names
    ]


#: The frontier's x-axis: per-link message-loss probability, run past
#: the robustness sweep's 0.2 cap to find where (if anywhere) falling
#: back at once beats retrying.
FRONTIER_RATES = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)

#: Candidate policies, series label -> policy: the default exponential
#: ladder, the retry budget (``max_retries`` 1 / 3), the backoff
#: multiplier (1.5), the ``immediate`` strategy, a capped ladder and the
#: hedged fallback.
FRONTIER_POLICIES: dict[str, RetryPolicy] = {
    "default": RetryPolicy(),
    "immediate": RetryPolicy(strategy="immediate"),
    "exp-mr1": RetryPolicy(max_retries=1),
    "exp-mr3": RetryPolicy(max_retries=3),
    "exp-b1.5": RetryPolicy(backoff_base=1.5),
    "capped-2x": RetryPolicy(strategy="capped", timeout_cap=2.0),
    "hedged": RetryPolicy(strategy="hedged"),
}


def frontier_points(
    config, rates=FRONTIER_RATES, seed: int = 0
) -> dict[str, dict[str, tuple[SweepPoint, ...]]]:
    """Scheme -> policy label -> its points along ``rates``.

    Each point's plan is pure loss at its rate with the candidate as
    every link's policy (module docstring), pinned at
    ``ROBUSTNESS_FRACTION``.
    """
    return {
        name: {
            label: tuple(
                SweepPoint(
                    scheme=name,
                    fraction=ROBUSTNESS_FRACTION,
                    config=config,
                    seed=seed,
                    faults=FaultPlan(
                        p2p_loss=rate,
                        proxy_loss=rate,
                        push_loss=rate,
                        seed=seed,
                        policies=PolicySet(default=policy),
                    ),
                )
                for rate in rates
            )
            for label, policy in FRONTIER_POLICIES.items()
        }
        for name in ROBUSTNESS_SCHEMES
    }
