"""Policy-frontier figure — where does immediate fallback beat retrying?

The robustness sweep capped its fault axis at 20 % loss with a note that
beyond ~30 % the *expected* cost of a retry ladder exceeds the latency
cooperation saves, so falling back immediately should win.  This
experiment measures that break-even directly, and does it the cheap way
the what-if engine enables: each ``(scheme, rate)`` cell is **simulated
once** under the default exponential ladder (recorded as a schema-2
trace, draws included), then every candidate
:class:`~repro.protocol.policy.RetryPolicy` is evaluated by
:func:`~repro.protocol.whatif.whatif_trace` against that one recording —
a ``max_retries`` × ``backoff_base`` × strategy sweep for the price of
one simulation per cell.

Plans here are **pure loss** (all three cooperation links at rate ``r``,
no delay/staleness/churn): the frontier is a statement about the retry
ladder, and composite fault processes would smear it.

Panels
======

* one panel per scheme — mean latency vs loss rate, one series per
  candidate policy (the default ladder included); the panel notes name
  the measured break-even rate (first rate where ``immediate`` beats the
  default ladder);
* ``"gap"`` — the default-minus-immediate latency gap per scheme (the
  break-even is the zero crossing: positive means immediate wins);
* ``"drift"`` — identity-policy what-if drift per scheme (changed events
  per trace; all zeros by the exactness contract, plotted so the CI
  report would show a violation as a non-zero curve).

What-if numbers for *modified* policies are fixed-stream approximations
(see :mod:`repro.protocol.whatif`): per-ladder costs are exact,
cross-request cache feedback is not.  The claims the report checks are
therefore construction-safe ones — policies coincide at rate 0, hedged
never exceeds the default ladder, identity drift is zero — while the
break-even location is reported as measured data in the panel notes.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from ..analysis.results import SweepResult
from ..faults.plan import FaultPlan
from ..protocol.policy import PolicySet, RetryPolicy
from ..protocol.trace import recording_traces
from ..protocol.whatif import WhatIfReport, whatif_trace
from ..core.config import SimulationConfig
from .robustness import ROBUSTNESS_FRACTION, ROBUSTNESS_SCHEMES

__all__ = [
    "FRONTIER_RATES",
    "FRONTIER_POLICIES",
    "frontier_plan",
    "policy_frontier_sweep",
]

#: The x-axis: per-link message-loss probability.  Deliberately runs
#: past the robustness sweep's 0.2 cap — the break-even lives out here.
FRONTIER_RATES = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)

#: Candidate policies, label -> policy.  ``default`` is the recorded
#: ladder itself (the identity what-if); the rest sweep the retry budget
#: (``max_retries`` 1/2/3), the backoff multiplier (1.5/2.0), the
#: ``immediate`` strategy, a capped ladder, and the hedged fallback.
FRONTIER_POLICIES: dict[str, RetryPolicy] = {
    "default": RetryPolicy(),
    "immediate": RetryPolicy(strategy="immediate"),
    "exp-mr1": RetryPolicy(max_retries=1),
    "exp-mr3": RetryPolicy(max_retries=3),
    "exp-b1.5": RetryPolicy(backoff_base=1.5),
    "capped-2x": RetryPolicy(strategy="capped", timeout_cap=2.0),
    "hedged": RetryPolicy(strategy="hedged"),
}


def frontier_plan(rate: float, seed: int = 0) -> FaultPlan:
    """A pure-loss plan: rate ``r`` on every cooperation link, nothing else."""
    if rate == 0.0:
        return FaultPlan(seed=seed)
    return FaultPlan(p2p_loss=rate, proxy_loss=rate, push_loss=rate, seed=seed)


def _record_cell(
    name: str, config, plan: FaultPlan, seed: int, directory: Path
) -> Path:
    """Simulate one (scheme, rate) cell under the default ladder, recorded."""
    from ..faults.run import run_scheme_with_faults

    with recording_traces(directory) as recorder:
        run_scheme_with_faults(name, config, plan=plan, seed=seed)
    return recorder.written[-1]


def _break_even(rates, by_policy: dict[str, list[float]]) -> str:
    """Locate the first rate where immediate fallback beats the default."""
    for i, rate in enumerate(rates):
        if by_policy["immediate"][i] < by_policy["default"][i] - 1e-12:
            return f"immediate overtakes the default ladder at loss={rate:g}"
    return f"immediate never overtakes the default ladder (loss <= {rates[-1]:g})"


def policy_frontier_sweep(
    config: SimulationConfig,
    rates=FRONTIER_RATES,
    schemes=ROBUSTNESS_SCHEMES,
    policies: dict[str, RetryPolicy] | None = None,
    seed: int = 0,
) -> dict[str, SweepResult]:
    """Record each (scheme, rate) once, what-if every candidate policy.

    Recording is inherently in-process (the trace recorder is armed
    process-wide and the what-ifs read the files back immediately), so
    this sweep runs serially and takes no experiment engine; the
    per-cell cost is one simulation plus one cheap trace re-judging per
    policy.  ``config`` is pinned at the robustness sweep's cache
    fraction.  Returns one panel per scheme plus the ``"gap"`` and
    ``"drift"`` panels (module docstring).
    """
    config = config.with_changes(proxy_cache_fraction=ROBUSTNESS_FRACTION)
    candidates = FRONTIER_POLICIES if policies is None else policies
    x_values = [100.0 * r for r in rates]
    panels: dict[str, SweepResult] = {}
    gap_by_scheme: dict[str, list[float]] = {}
    drift_by_scheme: dict[str, list[float]] = {}

    with tempfile.TemporaryDirectory(prefix="policy_frontier_") as tmp:
        for name in schemes:
            by_policy: dict[str, list[float]] = {lab: [] for lab in candidates}
            drift: list[float] = []
            for rate in rates:
                plan = frontier_plan(rate, seed)
                path = _record_cell(name, config, plan, seed, Path(tmp))
                for lab, policy in candidates.items():
                    report: WhatIfReport = whatif_trace(
                        path, PolicySet(default=policy)
                    )
                    by_policy[lab].append(report.result.mean_latency)
                    if lab == "default":
                        drift.append(float(report.n_changed))
            panel = SweepResult(
                title=f"Policy frontier: {name} mean latency vs loss rate "
                f"(S={ROBUSTNESS_FRACTION:g})",
                x_label="loss rate (%)",
                x_values=list(x_values),
                y_label="mean latency (x Tl)",
            )
            for lab in candidates:
                panel.add(lab, by_policy[lab])
            panel.notes = (
                f"{_break_even(rates, by_policy)}; pure-loss plan, one "
                "recorded run per rate, policies evaluated by what-if replay"
            )
            panels[name] = panel
            gap_by_scheme[name] = [
                by_policy["default"][i] - by_policy["immediate"][i]
                for i in range(len(rates))
            ]
            drift_by_scheme[name] = drift

    gap = SweepResult(
        title="Policy frontier: default minus immediate mean latency",
        x_label="loss rate (%)",
        x_values=list(x_values),
        y_label="latency gap (x Tl)",
    )
    for name in schemes:
        gap.add(name, gap_by_scheme[name])
    gap.notes = (
        "positive = immediate fallback wins; the zero crossing is the "
        "retry/fallback break-even"
    )
    panels["gap"] = gap

    drift = SweepResult(
        title="Policy frontier: identity what-if drift (changed events)",
        x_label="loss rate (%)",
        x_values=list(x_values),
        y_label="changed events",
    )
    for name in schemes:
        drift.add(name, drift_by_scheme[name])
    drift.notes = (
        "identity-policy what-if must reproduce each recording "
        "byte-identically: any non-zero value is an engine bug"
    )
    panels["drift"] = drift
    return panels
