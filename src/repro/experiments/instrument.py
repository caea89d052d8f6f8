"""Run instrumentation: per-point timings, throughput, progress callbacks.

The executor reports every completed sweep point here; the
instrumentation layer turns that stream into

* per-point records (wall time, simulated requests, requests/sec),
* suite-level aggregates (elapsed wall clock, executed vs store-skipped
  point counts, worker utilization), and
* live progress events for the CLI's ``--progress`` flag.

Timing uses a monotonic clock, measured *inside* the worker for the
per-point cost and in the parent for the suite envelope, so worker
utilization — total busy time over ``elapsed x workers`` — reads
directly off the two.  A summary can be written as JSON alongside the
result store (the CLI does this under ``--out``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "PointRecord",
    "ProgressEvent",
    "RunInstrumentation",
    "print_progress",
]


@dataclass(frozen=True)
class PointRecord:
    """Measured cost of one executed (or store-skipped) sweep point."""

    label: str
    wall_time: float
    n_requests: int
    cached: bool
    #: Seconds since the suite started when this point finished.
    finished_at: float
    #: Peak RSS (KiB, ``ru_maxrss``) of the process that simulated this
    #: point — the worker's high-water mark at completion time, an upper
    #: bound on the point's own footprint.  0 for cached points.
    max_rss_kb: int = 0

    @property
    def requests_per_sec(self) -> float:
        """Simulated request throughput of this point (0 if cached)."""
        if self.cached or self.wall_time <= 0:
            return 0.0
        return self.n_requests / self.wall_time


@dataclass(frozen=True)
class ProgressEvent:
    """One tick of suite progress, fed to the progress callback."""

    done: int
    total: int
    label: str
    wall_time: float
    cached: bool
    max_rss_kb: int = 0


def print_progress(event: ProgressEvent) -> None:
    """Default ``--progress`` renderer: one line per completed point."""
    if event.cached:
        suffix = "cached"
    else:
        suffix = f"{event.wall_time:.2f}s"
        if event.max_rss_kb > 0:
            suffix += f", {event.max_rss_kb / 1024:.0f} MiB peak"
    print(f"  [{event.done}/{event.total}] {event.label} ({suffix})", flush=True)


@dataclass
class RunInstrumentation:
    """Accumulates execution telemetry across one or more sweeps.

    A figure may issue several sweeps through the same engine (Figure 3
    runs one per alpha); :meth:`begin` therefore *adds* to the expected
    total instead of resetting, and the suite clock starts at the first
    ``begin`` so elapsed time spans the whole run.
    """

    progress: Callable[[ProgressEvent], None] | None = None
    records: list[PointRecord] = field(default_factory=list)
    total: int = 0
    _started: float | None = None
    _finished: float | None = None

    def begin(self, n_points: int) -> None:
        """Announce ``n_points`` more points; starts the clock if needed."""
        self.total += n_points
        if self._started is None:
            self._started = time.perf_counter()
        self._finished = None

    def point_done(
        self,
        label: str,
        wall_time: float,
        n_requests: int,
        cached: bool = False,
        max_rss_kb: int = 0,
    ) -> None:
        """Record one finished point and emit a progress event."""
        if self._started is None:
            self._started = time.perf_counter()
        record = PointRecord(
            label=label,
            wall_time=wall_time,
            n_requests=n_requests,
            cached=cached,
            finished_at=time.perf_counter() - self._started,
            max_rss_kb=max_rss_kb,
        )
        self.records.append(record)
        self._finished = time.perf_counter()
        if self.progress is not None:
            self.progress(
                ProgressEvent(
                    done=len(self.records),
                    total=self.total,
                    label=label,
                    wall_time=wall_time,
                    cached=cached,
                    max_rss_kb=max_rss_kb,
                )
            )

    # -- aggregates ---------------------------------------------------------

    @property
    def executed(self) -> int:
        """Points actually simulated in this run."""
        return sum(1 for r in self.records if not r.cached)

    @property
    def skipped(self) -> int:
        """Points answered from the result store without simulating."""
        return sum(1 for r in self.records if r.cached)

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds from first ``begin`` to last completion."""
        if self._started is None:
            return 0.0
        end = self._finished if self._finished is not None else time.perf_counter()
        return end - self._started

    @property
    def busy_time(self) -> float:
        """Sum of per-point wall times (total simulation work done)."""
        return sum(r.wall_time for r in self.records if not r.cached)

    @property
    def total_requests(self) -> int:
        """Simulated requests across all executed points."""
        return sum(r.n_requests for r in self.records if not r.cached)

    def requests_per_sec(self) -> float:
        """Aggregate simulated-request throughput of the suite."""
        elapsed = self.elapsed
        return self.total_requests / elapsed if elapsed > 0 else 0.0

    @property
    def peak_rss_kb(self) -> int:
        """Largest per-point worker peak RSS seen across the suite (KiB)."""
        return max((r.max_rss_kb for r in self.records), default=0)

    def worker_utilization(self, workers: int) -> float:
        """Fraction of ``workers x elapsed`` spent simulating, in [0, 1].

        1.0 means every worker was busy the whole time; serial runs sit
        near 1.0 by construction, parallel runs fall off with stragglers
        and per-worker trace generation.
        """
        elapsed = self.elapsed
        if workers <= 0 or elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / (elapsed * workers))

    def summary(self, workers: int = 1) -> dict[str, Any]:
        """JSON-safe aggregate view (written alongside results)."""
        return {
            "total_points": self.total,
            "executed": self.executed,
            "skipped": self.skipped,
            "elapsed_sec": round(self.elapsed, 6),
            "busy_sec": round(self.busy_time, 6),
            "total_requests": self.total_requests,
            "requests_per_sec": round(self.requests_per_sec(), 3),
            "workers": workers,
            "worker_utilization": round(self.worker_utilization(workers), 4),
            "peak_rss_kb": self.peak_rss_kb,
            "points": [
                {
                    "label": r.label,
                    "wall_time": round(r.wall_time, 6),
                    "n_requests": r.n_requests,
                    "cached": r.cached,
                    "finished_at": round(r.finished_at, 6),
                    "max_rss_kb": r.max_rss_kb,
                }
                for r in self.records
            ],
        }

    def write(self, path: str | Path, workers: int = 1) -> None:
        """Write :meth:`summary` as JSON next to the results."""
        Path(path).write_text(
            json.dumps(self.summary(workers), indent=2) + "\n", encoding="utf-8"
        )
