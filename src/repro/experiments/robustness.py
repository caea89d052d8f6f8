"""Robustness sweep — degradation under failure vs fault rate.

This module holds the composite fault plan and the points of its axis;
the figure drawn from them is ``robust`` in
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
"""

from __future__ import annotations

from ..faults import FAULTY_SCHEMES, FaultPlan
from .executor import SweepPoint

__all__ = [
    "DEFAULT_FAULT_RATES",
    "ROBUSTNESS_FRACTION",
    "ROBUSTNESS_SCHEMES",
    "robustness_plan",
    "robustness_points",
]

#: The x-axis: composite fault rate (loss probability per message).
#: Capped at 0.2 — beyond ~0.3 the *expected* cost of a retry ladder
#: exceeds the latency saved by cooperation and falling back immediately
#: would win, which is a protocol-tuning question, not a robustness one.
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
