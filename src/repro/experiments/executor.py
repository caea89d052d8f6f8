"""Parallel sweep-point executor: process fan-out with resume and retry.

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
* **Crash resilience** — a point that raises is retried up to
  ``retries`` times (optionally with exponential backoff between
  attempts, ``retry_backoff``); a worker that dies outright (broken
  pool) causes the pool to be rebuilt and the unfinished points
  resubmitted, bounded by ``retries`` consecutive no-progress rounds.
* **Quarantine** — with ``quarantine=True`` a poison point (one that
  crashes through its whole retry budget) is recorded as *failed* in
  the store and the run continues, instead of one bad point aborting a
  multi-hour suite.
* **Heartbeat** — with ``heartbeat=<seconds>`` a pool in which *no*
  point completes within the window is declared hung: the worker
  processes are killed, the running points are charged a failed
  attempt, and the pool is rebuilt.  Size the window well above the
  slowest honest point.
* **Resume** — with a :class:`~repro.experiments.store.ResultStore`
  attached, completed points are answered from the store and only the
  remainder is simulated (see the store module for key semantics).
"""

from __future__ import annotations

import concurrent.futures
import os
import resource
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Any, Callable, Sequence

from ..core.config import SimulationConfig
from ..core.metrics import SchemeResult
from ..faults import FaultPlan, run_scheme_with_faults
from ..workload import Trace, generate_cluster_traces
from .instrument import RunInstrumentation, print_progress
from .store import ResultStore, deserialize_result, point_key, serialize_result

__all__ = [
    "SweepPoint",
    "PointOutcome",
    "QuarantinedPoint",
    "PointExecutionError",
    "ExperimentEngine",
    "run_point",
]


class PointExecutionError(RuntimeError):
    """A sweep point kept failing after its bounded retries."""


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
    #: Worker processes for this point (1 = the single-process engine,
    #: byte-identical to the pre-sharding executor; >1 routes through
    #: :func:`repro.shard.run_scheme_sharded` and keys separately).
    shards: int = 1

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
            shards=self.shards,
        )

    @property
    def label(self) -> str:
        """Short human-readable tag for progress lines and telemetry."""
        base = f"{self.scheme}@S={self.fraction:g}"
        if self.shards > 1:
            base = f"{base}x{self.shards}"
        plan = self._active_faults
        return base if plan is None else f"{base}[{plan.label}]"


@dataclass(frozen=True)
class PointOutcome:
    """A completed point: its result plus how it was obtained.

    ``failed`` is ``None`` for a successful point; for a quarantined one
    it carries the error string and ``result`` is ``None``.
    """

    point: SweepPoint
    result: SchemeResult | None
    cached: bool
    wall_time: float
    failed: str | None = None


@dataclass(frozen=True)
class QuarantinedPoint:
    """A poison point: it crashed through its whole retry budget and was
    recorded as failed (``quarantine=True``) instead of aborting the run."""

    index: int
    error: str
    attempts: int


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
    if point.shards > 1:
        from ..shard import check_shardable, run_scheme_sharded

        check_shardable(point.scheme, cfg, plan=point.faults)
        shard_stats: dict[str, Any] = {}
        result = run_scheme_sharded(
            point.scheme,
            cfg,
            seed=point.seed,
            shards=point.shards,
            stats_out=shard_stats,
        )
        max_rss_kb = int(shard_stats.get("worker_max_rss_kb", 0))
    else:
        traces = _cluster_traces(cfg, point.seed)
        # seed rides along so a recording made of this point carries the
        # true trace seed (replay regenerates the workload from it).
        result = run_scheme_with_faults(
            point.scheme, cfg, traces, plan=point.faults, seed=point.seed
        )
        # Lifetime high-water mark of this worker process — an upper
        # bound on the point's own footprint, and exactly the quantity
        # the scale gate tracks (does memory grow with trace length?).
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
    #: Default worker-process count per *point* for shard-capable schemes
    #: (``repro.shard``).  1 keeps every point on the single-process
    #: engine; sweep builders consult this when constructing points.
    shards: int = 1
    #: Bounded retries per failing point (and per no-progress pool rebuild).
    retries: int = 2
    #: Record a point that exhausts its retries as failed and continue,
    #: instead of aborting the whole run with :class:`PointExecutionError`.
    quarantine: bool = False
    #: Seconds without *any* point completing before the pool is declared
    #: hung, its workers killed, and the running points charged a failed
    #: attempt.  ``None`` disables the watchdog (the pre-existing default).
    heartbeat: float | None = None
    #: Base sleep (seconds) between retries of one point; doubles per
    #: attempt.  0 retries immediately (the pre-existing default).
    retry_backoff: float = 0.0

    def __post_init__(self) -> None:
        if self.workers <= 0:
            self.workers = os.cpu_count() or 1
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.heartbeat is not None and self.heartbeat <= 0:
            raise ValueError("heartbeat must be positive (or None)")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")

    @classmethod
    def from_options(
        cls,
        workers: int = 1,
        store_path: str | None = None,
        progress: bool = False,
        shards: int = 1,
    ) -> "ExperimentEngine":
        """Build an engine from CLI-style options (see ``cli.py``)."""
        return cls(
            workers=workers,
            store=ResultStore(store_path) if store_path else None,
            instrument=RunInstrumentation(
                progress=print_progress if progress else None
            ),
            shards=shards,
        )

    # -- generic bounded-retry fan-out --------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_result: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        """``[fn(item) for item in items]`` with retries, maybe in parallel.

        Results come back in item order regardless of completion order;
        ``on_result(index, value)`` fires in the parent as each item
        finishes (used to persist results and tick progress).  An item
        that keeps raising after ``retries`` retries aborts the run with
        :class:`PointExecutionError` — or, with ``quarantine=True``, its
        slot holds a :class:`QuarantinedPoint` and the run continues.  A
        crashed worker only aborts after ``retries`` consecutive pool
        rebuilds with zero progress.
        """
        if self.workers == 1:
            return self._map_serial(fn, items, on_result)
        return self._map_parallel(fn, items, on_result)

    def _retried(self, index: int, item: Any, attempt: int = 1) -> None:
        if self.instrument is not None:
            label = item.label if isinstance(item, SweepPoint) else f"item {index}"
            self.instrument.point_retried(label)
        if self.retry_backoff > 0:
            time.sleep(self.retry_backoff * (2 ** (attempt - 1)))

    def _fail_point(
        self,
        index: int,
        item: Any,
        attempts: dict[int, int],
        error: str,
        pending: set[int],
        results: list[Any],
        on_result: Callable[[int, Any], None] | None,
    ) -> int:
        """Charge one failed attempt against ``index``.

        Returns 1 when the point was quarantined (counts as round
        progress), 0 when it will be retried; raises
        :class:`PointExecutionError` at exhaustion without quarantine.
        """
        attempts[index] += 1
        if attempts[index] <= self.retries:
            self._retried(index, item, attempts[index])
            return 0
        if self.quarantine:
            results[index] = QuarantinedPoint(
                index=index, error=error, attempts=attempts[index]
            )
            pending.discard(index)
            if on_result is not None:
                on_result(index, results[index])
            return 1
        raise PointExecutionError(
            f"item {index} failed after {attempts[index]} attempts: {error}"
        )

    def _map_serial(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_result: Callable[[int, Any], None] | None,
    ) -> list[Any]:
        results: list[Any] = [None] * len(items)
        for i, item in enumerate(items):
            for attempt in range(self.retries + 1):
                try:
                    results[i] = fn(item)
                    break
                except Exception as exc:
                    if attempt == self.retries:
                        if self.quarantine:
                            results[i] = QuarantinedPoint(
                                index=i, error=repr(exc), attempts=attempt + 1
                            )
                            break
                        raise PointExecutionError(
                            f"item {i} failed after {attempt + 1} attempts: {exc}"
                        ) from exc
                    self._retried(i, item, attempt + 1)
            if on_result is not None:
                on_result(i, results[i])
        return results

    @staticmethod
    def _kill_pool(pool: concurrent.futures.ProcessPoolExecutor) -> None:
        """Terminate a hung pool's workers without waiting on them."""
        procs = getattr(pool, "_processes", None) or {}
        for proc in list(procs.values()):
            proc.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def _map_parallel(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_result: Callable[[int, Any], None] | None,
    ) -> list[Any]:
        results: list[Any] = [None] * len(items)
        pending = set(range(len(items)))
        attempts = dict.fromkeys(pending, 0)
        stalled_rounds = 0
        while pending:
            completed_this_round = 0
            pool_broken = False
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=min(self.workers, len(pending))
            )
            try:
                futures = {pool.submit(fn, items[i]): i for i in sorted(pending)}
                waiting = set(futures)
                while waiting:
                    done, waiting = concurrent.futures.wait(
                        waiting,
                        timeout=self.heartbeat,
                        return_when=concurrent.futures.FIRST_COMPLETED,
                    )
                    if not done:
                        # Heartbeat expired with nothing finished: the
                        # points currently executing are hung.  Kill the
                        # workers, charge the runners, rebuild the pool.
                        hung = [f for f in waiting if f.running()]
                        self._kill_pool(pool)
                        pool_broken = True
                        for future in hung:
                            i = futures[future]
                            completed_this_round += self._fail_point(
                                i,
                                items[i],
                                attempts,
                                f"no heartbeat within {self.heartbeat:g}s",
                                pending,
                                results,
                                on_result,
                            )
                        break
                    for future in done:
                        i = futures[future]
                        try:
                            value = future.result()
                        except BrokenProcessPool:
                            pool_broken = True
                            continue
                        except Exception as exc:
                            completed_this_round += self._fail_point(
                                i,
                                items[i],
                                attempts,
                                repr(exc),
                                pending,
                                results,
                                on_result,
                            )
                            continue
                        results[i] = value
                        pending.discard(i)
                        completed_this_round += 1
                        if on_result is not None:
                            on_result(i, results[i])
                    if pool_broken:
                        break
            except BrokenProcessPool:
                pool_broken = True
            finally:
                pool.shutdown(wait=not pool_broken, cancel_futures=True)
            if pool_broken and completed_this_round == 0:
                stalled_rounds += 1
                if stalled_rounds > self.retries:
                    raise PointExecutionError(
                        f"worker pool kept crashing; {len(pending)} points "
                        f"unfinished after {stalled_rounds} rebuilds"
                    )
            else:
                stalled_rounds = 0
        return results

    # -- sweep-point execution ----------------------------------------------

    def run(self, points: Sequence[SweepPoint]) -> list[PointOutcome]:
        """Execute ``points`` (answering from the store where possible).

        Outcomes are returned in input order.  Freshly simulated points
        are appended to the store as they finish, so an interrupted call
        leaves a resumable prefix behind.  Points that share a
        :attr:`SweepPoint.key` are one simulation: the first of them
        runs, the repeats are answered from it and counted as cached.
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

        keys = [point.key for point in points]
        #: key -> the batch indices that carry it; the first one simulates.
        waiting: dict[str, list[int]] = {}
        for i, key in enumerate(keys):
            stored = self.store.get(key) if self.store is not None else None
            if stored is not None:
                reuse(i, stored)
            else:
                waiting.setdefault(key, []).append(i)
        pending_idx = [indices[0] for indices in waiting.values()]

        def finish(local: int, payload: Any) -> None:
            i = pending_idx[local]
            point = points[i]
            if isinstance(payload, QuarantinedPoint):
                for j in waiting[keys[i]]:
                    outcomes[j] = PointOutcome(
                        points[j], None, cached=False, wall_time=0.0,
                        failed=payload.error,
                    )
                    if self.instrument is not None:
                        self.instrument.point_quarantined(points[j].label)
                if self.store is not None:
                    self.store.put_failed(
                        keys[i],
                        label=point.label,
                        error=payload.error,
                        attempts=payload.attempts,
                    )
                return
            result = deserialize_result(payload["result"])
            outcomes[i] = PointOutcome(
                point, result, cached=False, wall_time=payload["wall_time"]
            )
            if self.store is not None:
                self.store.put(
                    keys[i],
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
            for j in waiting[keys[i]][1:]:
                reuse(j, result)

        self.map(run_point, [points[i] for i in pending_idx], on_result=finish)
        return [o for o in outcomes if o is not None]
