"""Entry point: run any registered scheme under a fault plan.

Fault semantics do not live in scheme subclasses: a faulty run is the
*same* scheme instance carrying a
:class:`~repro.protocol.transport.FaultTransport`.  Which scheme object
a ``(name, plan)`` pair gets and how the run around it is put together
are both decided in :mod:`repro.core.run`
(:func:`~repro.core.run.build_scheme`,
:func:`~repro.core.run.assemble_run`); this module is the plan-taking
front door.  A zero plan (:meth:`FaultPlan.is_zero`) and any plan on a
scheme without a faultable cooperation path run the plain code path —
fault-free results stay byte-identical, the acceptance bar for the
subsystem.

The plan also carries the *response* to its faults: per-link
:class:`~repro.protocol.policy.RetryPolicy` strategies
(``plan.policies``), honoured by the assembled
:class:`~repro.protocol.transport.FaultTransport` on every path this
entry point dispatches to (plain, recorded).  A plan
without policies runs the default exponential ladder, byte-identical
to the pre-policy builds.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

from ..core.config import SimulationConfig
from ..core.metrics import SchemeResult
from ..core.run import FAULTABLE_SCHEMES, assemble_run, build_scheme, with_backend
from ..core.simulator import CachingScheme
from ..protocol.trace import active_trace_recorder
from ..workload import Trace
from .plan import FaultPlan

__all__ = ["FAULTY_SCHEMES", "run_scheme_with_faults"]

#: Scheme name -> ``builder(config, traces, plan, transport=None)`` for
#: the schemes a non-zero plan changes (everything else runs plain).
#: The optional ``transport`` replaces the standard fault stack — the
#: seam the record/replay harness and the live driver use.
FAULTY_SCHEMES: dict[str, Callable[..., CachingScheme]] = {
    name: partial(build_scheme, name) for name in FAULTABLE_SCHEMES
}


def run_scheme_with_faults(
    name: str,
    config: SimulationConfig,
    traces: list[Trace] | None = None,
    plan: FaultPlan | None = None,
    seed: int = 0,
    backend: str = "sync",
) -> SchemeResult:
    """Simulate ``name`` under ``plan`` (``None``/zero plan: plain run).

    Recording and ``seed`` behave as in
    :func:`~repro.core.run.run_scheme`; both hand the run to
    :func:`~repro.core.run.assemble_run`.  ``backend`` is ``"sync"`` or
    ``"async"``, which run the same stack.
    """
    # ROADMAP 16(b): the next benchmark PR deletes it with protocol.async_overhead_pct.
    with_backend(None, backend)
    return assemble_run(
        name,
        config,
        traces,
        seed=seed,
        plan=plan,
        recorder=active_trace_recorder(),
    )
