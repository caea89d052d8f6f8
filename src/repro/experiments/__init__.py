"""Experiment harness: the figure table + sweep infrastructure.

- :mod:`repro.experiments.figures` — the figure table: per figure id
  (``fig2a`` … ``fig5d``, ``robust``, ``bakeoff``, ``frontier``,
  ``sizes``) its declared points, panels and paper claims;
  :func:`run_figure` builds and evaluates one.
- :mod:`repro.experiments.runner` — scales, base configs, curves and
  panels, and the one evaluator that runs and judges them.
- :mod:`repro.experiments.executor` — the parallel experiment engine:
  sweep points fanned out over a process pool, serial fallback, each
  point run once, deterministic per-point seeding.
- :mod:`repro.experiments.store` — content-addressed JSONL result store;
  finished points are skipped on re-runs, interrupted suites resume.
- :mod:`repro.experiments.instrument` — per-point wall times,
  requests/sec, worker utilization, progress callbacks.
- :mod:`repro.experiments.robustness` — the points of the two fault-rate
  axes: the composite plan of degradation under failure, and the pure-loss
  plan under each candidate retry policy (the policy frontier).
- :mod:`repro.experiments.cli` — the ``repro-experiments`` command;
  :mod:`repro.experiments.report` — the markdown claim audit.
"""

from .executor import (
    ExperimentEngine,
    PointOutcome,
    SweepPoint,
)
from .figures import FIGURES, Claim, Figure, run_figure
from .instrument import ProgressEvent, RunInstrumentation
from .robustness import robustness_plan
from .runner import (
    DEFAULT_FRACTIONS,
    PAPER_SCHEMES,
    SCALES,
    Scale,
    base_config,
    base_workload,
    cache_size_sweep,
    current_scale,
    sweep_points,
)
from .store import ResultStore, point_key

__all__ = [
    "ExperimentEngine",
    "PointOutcome",
    "ProgressEvent",
    "ResultStore",
    "RunInstrumentation",
    "SweepPoint",
    "point_key",
    "sweep_points",
    "FIGURES",
    "Claim",
    "Figure",
    "run_figure",
    "robustness_plan",
    "DEFAULT_FRACTIONS",
    "PAPER_SCHEMES",
    "SCALES",
    "Scale",
    "base_config",
    "base_workload",
    "cache_size_sweep",
    "current_scale",
]
