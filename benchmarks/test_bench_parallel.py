"""Serial vs parallel wall-clock for the smoke-scale figure-2(a) suite.

Measures the same figure sweep through the experiment engine once with
``workers=1`` (the serial fallback) and once with ``workers=4``, asserts
the two produce byte-identical curves, and records the wall-clock
speedup into the benchmark trajectory (``extra_info['speedup']``).

The >= 2x speedup assertion only applies where it is physically
possible — on hosts with at least 4 CPU cores; on smaller machines the
ratio is still printed and recorded.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments.executor import ExperimentEngine
from repro.experiments.figures import run_figure
from repro.experiments.runner import SCALES

from conftest import run_once

PARALLEL_WORKERS = 4


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _run(workers: int):
    started = time.perf_counter()
    sweep = run_figure(
        "fig2a", scale=SCALES["smoke"], engine=ExperimentEngine(workers=workers)
    )["fig2a"]
    return sweep, time.perf_counter() - started


@pytest.mark.benchmark(group="parallel")
def test_bench_parallel_speedup(benchmark, emit):
    serial_sweep, serial_time = _run(workers=1)

    def parallel():
        return _run(workers=PARALLEL_WORKERS)

    parallel_sweep, parallel_time = run_once(benchmark, parallel)

    # Determinism across execution modes is non-negotiable: the parallel
    # engine must produce the exact bytes of the serial fallback.
    assert parallel_sweep.to_csv() == serial_sweep.to_csv()

    speedup = serial_time / parallel_time if parallel_time > 0 else 0.0
    cores = _cpu_count()
    benchmark.extra_info["serial_sec"] = round(serial_time, 3)
    benchmark.extra_info["parallel_sec"] = round(parallel_time, 3)
    benchmark.extra_info["workers"] = PARALLEL_WORKERS
    benchmark.extra_info["cpu_cores"] = cores
    benchmark.extra_info["speedup"] = round(speedup, 3)
    print(
        f"\n[parallel] fig2a smoke: serial {serial_time:.2f}s, "
        f"{PARALLEL_WORKERS} workers {parallel_time:.2f}s "
        f"-> {speedup:.2f}x speedup on {cores} core(s)"
    )

    if cores >= PARALLEL_WORKERS:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup with {PARALLEL_WORKERS} workers on "
            f"{cores} cores, got {speedup:.2f}x"
        )
    emit(parallel_sweep)
