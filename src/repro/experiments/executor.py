"""Parallel sweep-point executor: process fan-out with resume.

Every figure of the paper is a grid of *independent* trace-driven
simulations (scheme x proxy-cache fraction x workload variation), so the
suite parallelizes embarrassingly.  This module turns a sweep into
explicit :class:`SweepPoint` work items and fans them out over
:class:`concurrent.futures.ProcessPoolExecutor`:

* **Determinism** — a point carries everything its result depends on
  (base config, scheme, fraction, explicit trace seed), so it computes
  the same bytes whether it runs serially, in any worker, or is replayed
  from the result store.  No point reads ambient state (environment
  variables, module globals, default RNG streams).
* **Cheap pickling** — workers receive only the small frozen config
  dataclasses; the multi-megabyte traces are regenerated inside each
  worker from the explicit seed and memoized per process
  (:data:`_TRACE_CACHE`), so a worker pays trace generation once per
  workload, not once per point.
* **Serial fallback** — ``workers=1`` runs everything in-process through
  the same code path (no pool, no pickling), which is also what tests
  and the default API use.
* **Run once, fail fast** — a point is a pure function of its inputs, so
  one that raises would raise again: each point runs exactly once, and
  the first failure (a raising point, or a worker process that dies)
  aborts the run with :class:`PointExecutionError` naming the point.
* **Resume** — with a :class:`~repro.experiments.store.ResultStore`
  attached, completed points are answered from the store and only the
  remainder is simulated (see the store module for key semantics).
  Each result is stored as soon as its point finishes, so a failed or
  killed run resumes from everything it completed.
"""

from __future__ import annotations

import concurrent.futures
import os
import resource
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Any, Iterator, Sequence

from ..core.config import SimulationConfig
from ..core.metrics import SchemeResult
from ..faults import FaultPlan, run_scheme_with_faults
from ..workload import Trace, generate_cluster_traces
from .instrument import RunInstrumentation, print_progress
from .store import ResultStore, deserialize_result, point_key, serialize_result

__all__ = [
    "SweepPoint",
    "PointOutcome",
    "PointExecutionError",
    "ExperimentEngine",
    "run_point",
]


class PointExecutionError(RuntimeError):
    """A sweep point failed; the message names it, the cause is chained."""


def _failed(point: SweepPoint, exc: Exception) -> PointExecutionError:
    return PointExecutionError(f"sweep point {point.label} failed: {exc!r}")


@dataclass(frozen=True)
class SweepPoint:
    """One self-contained unit of sweep work.

    ``config`` is the *base* configuration; the swept proxy-cache
    fraction is applied on resolution so the point's identity (and store
    key) names the axis value explicitly.  ``seed`` is the explicit
    trace seed — the only randomness in a simulation is workload
    generation plus (optionally) the fault plan's own seed, so
    (config, scheme, fraction, seed, faults) fully determines the
    result.

    ``faults`` is optional and ``None`` (or a zero plan) leaves both the
    execution path and the store key exactly as they were before the
    fault subsystem existed, so stored fault-free sweeps keep resuming.
    """

    scheme: str
    fraction: float
    config: SimulationConfig
    seed: int
    faults: FaultPlan | None = None

    @property
    def resolved_config(self) -> SimulationConfig:
        """The base config with this point's fraction applied."""
        return self.config.with_changes(proxy_cache_fraction=self.fraction)

    @property
    def _active_faults(self) -> FaultPlan | None:
        """The fault plan when it actually does something, else ``None``."""
        if self.faults is not None and not self.faults.is_zero():
            return self.faults
        return None

    @property
    def key(self) -> str:
        """Content hash identifying this point in the result store."""
        plan = self._active_faults
        return point_key(
            self.config,
            self.scheme,
            self.fraction,
            self.seed,
            faults=asdict(plan) if plan is not None else None,
        )

    @property
    def label(self) -> str:
        """Short human-readable tag for progress lines and telemetry."""
        base = f"{self.scheme}@S={self.fraction:g}"
        plan = self._active_faults
        return base if plan is None else f"{base}[{plan.label}]"


@dataclass(frozen=True)
class PointOutcome:
    """A completed point: its result plus how it was obtained."""

    point: SweepPoint
    result: SchemeResult
    cached: bool
    wall_time: float


#: Per-process memo of generated cluster traces.  Points of one sweep
#: share a workload, so each worker generates it once; the bound keeps a
#: long-lived worker from accumulating every variation of a figure.
_TRACE_CACHE: dict[tuple, list[Trace]] = {}
_TRACE_CACHE_MAX = 4


def _cluster_traces(config: SimulationConfig, seed: int) -> list[Trace]:
    cache_key = (config.workload, config.n_proxies, seed)
    traces = _TRACE_CACHE.get(cache_key)
    if traces is None:
        if len(_TRACE_CACHE) >= _TRACE_CACHE_MAX:
            _TRACE_CACHE.clear()
        traces = generate_cluster_traces(config.workload, config.n_proxies, seed=seed)
        _TRACE_CACHE[cache_key] = traces
    return traces


def run_point(point: SweepPoint) -> dict[str, Any]:
    """Execute one sweep point (worker side).  Returns a picklable payload.

    The payload carries the serialized :class:`SchemeResult` plus the
    point's measured wall time, simulated request count and peak RSS for
    the instrumentation layer.  Measurements live outside the result so
    stored results stay byte-identical across machines.
    """
    started = time.perf_counter()
    cfg = point.resolved_config
    traces = _cluster_traces(cfg, point.seed)
    # seed rides along so a recording made of this point carries the
    # true trace seed (replay regenerates the workload from it).
    result = run_scheme_with_faults(
        point.scheme, cfg, traces, plan=point.faults, seed=point.seed
    )
    # Lifetime high-water mark of this worker process — an upper bound
    # on the point's own footprint, and exactly the quantity the scale
    # gate tracks (does memory grow with trace length?).
    max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "result": serialize_result(result),
        "wall_time": time.perf_counter() - started,
        "n_requests": result.n_requests,
        "max_rss_kb": max_rss_kb,
    }


@dataclass
class ExperimentEngine:
    """Runs sweep points serially or across a process pool.

    ``workers=1`` (the default) is a strict serial fallback; ``workers=0``
    resolves to the machine's CPU count.  Attach a
    :class:`~repro.experiments.store.ResultStore` to skip completed
    points and persist new ones, and a
    :class:`~repro.experiments.instrument.RunInstrumentation` to collect
    timings and emit progress.
    """

    workers: int = 1
    store: ResultStore | None = None
    instrument: RunInstrumentation | None = None

    def __post_init__(self) -> None:
        if self.workers <= 0:
            self.workers = os.cpu_count() or 1

    @classmethod
    def from_options(
        cls,
        workers: int = 1,
        store_path: str | None = None,
        progress: bool = False,
    ) -> "ExperimentEngine":
        """Build an engine from CLI-style options (see ``cli.py``)."""
        return cls(
            workers=workers,
            store=ResultStore(store_path) if store_path else None,
            instrument=RunInstrumentation(
                progress=print_progress if progress else None
            ),
        )

    # -- sweep-point execution ----------------------------------------------

    def run(self, points: Sequence[SweepPoint]) -> list[PointOutcome]:
        """Execute ``points`` (answering from the store where possible).

        Outcomes are returned in input order.  Freshly simulated points
        are appended to the store as they finish, so an interrupted or
        failed call leaves a resumable prefix behind.  Points that share
        a :attr:`SweepPoint.key` are one simulation: the first of them
        runs, the repeats are answered from it and counted as cached.
        The first point that raises aborts the call with
        :class:`PointExecutionError`.
        """
        outcomes: list[PointOutcome | None] = [None] * len(points)
        if self.instrument is not None:
            self.instrument.begin(len(points))

        def reuse(i: int, result: SchemeResult) -> None:
            """Answer slot ``i`` with a result nobody simulated for it."""
            outcomes[i] = PointOutcome(points[i], result, cached=True, wall_time=0.0)
            if self.instrument is not None:
                self.instrument.point_done(
                    points[i].label, 0.0, result.n_requests, cached=True
                )

        #: key -> the batch indices that carry it; the first one simulates.
        waiting: dict[str, list[int]] = {}
        for i, point in enumerate(points):
            key = point.key
            stored = self.store.get(key) if self.store is not None else None
            if stored is not None:
                reuse(i, stored)
            else:
                waiting.setdefault(key, []).append(i)

        todo = {key: points[indices[0]] for key, indices in waiting.items()}
        for key, payload in self._simulate(todo):
            i, *repeats = waiting[key]
            point = points[i]
            result = deserialize_result(payload["result"])
            outcomes[i] = PointOutcome(
                point, result, cached=False, wall_time=payload["wall_time"]
            )
            if self.store is not None:
                self.store.put(
                    key,
                    result,
                    label=point.label,
                    meta={
                        "wall_time": payload["wall_time"],
                        "max_rss_kb": payload.get("max_rss_kb", 0),
                    },
                )
            if self.instrument is not None:
                self.instrument.point_done(
                    point.label,
                    payload["wall_time"],
                    payload["n_requests"],
                    max_rss_kb=payload.get("max_rss_kb", 0),
                )
            for j in repeats:
                reuse(j, result)
        return [o for o in outcomes if o is not None]

    def _simulate(
        self, todo: dict[str, SweepPoint]
    ) -> Iterator[tuple[str, dict[str, Any]]]:
        """Run each point of ``todo`` once; yield ``(key, payload)`` as it finishes.

        Serially in this process, or across one process pool whose first
        failure — a raising point or a dead worker — ends the run.
        """
        if self.workers == 1 or not todo:
            for key, point in todo.items():
                try:
                    payload = run_point(point)
                except Exception as exc:
                    raise _failed(point, exc) from exc
                yield key, payload
            return
        unfinished = dict(todo)
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.workers, len(todo))
        )
        try:
            futures = {pool.submit(run_point, point): key for key, point in todo.items()}
            for future in concurrent.futures.as_completed(futures):
                key = futures[future]
                try:
                    payload = future.result()
                except BrokenProcessPool as exc:
                    labels = ", ".join(point.label for point in unfinished.values())
                    raise PointExecutionError(
                        f"a worker process died; unfinished points: {labels}"
                    ) from exc
                except Exception as exc:
                    raise _failed(todo[key], exc) from exc
                del unfinished[key]
                yield key, payload
        finally:
            pool.shutdown(cancel_futures=True)
