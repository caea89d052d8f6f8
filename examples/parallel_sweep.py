#!/usr/bin/env python
"""Parallel figure sweeps with a resumable result store.

Demonstrates the experiment engine end to end:

1. run a figure-2(a)-style sweep fanned out over worker processes, with
   live progress and instrumentation;
2. "kill" a suite mid-run (simulated by only sweeping a prefix of the
   cache-size axis) and resume it — completed points are answered from
   the JSON-lines result store, only the remainder is simulated;
3. show that serial, parallel, and resumed runs all produce the exact
   same curves (the engine's core guarantee: every sweep point carries
   an explicit seed, so its result never depends on where it ran).

Usage::

    python examples/parallel_sweep.py [workers]

with ``workers`` defaulting to all CPU cores.
"""

import os
import sys
import tempfile
from pathlib import Path

from repro.experiments import (
    ExperimentEngine,
    ResultStore,
    RunInstrumentation,
    base_config,
    cache_size_sweep,
)
from repro.experiments.instrument import print_progress
from repro.workload import ProWGenConfig

SCHEMES = ("sc", "fc-ec", "hier-gd")
FRACTIONS = (0.1, 0.25, 0.5, 0.75, 1.0)


def make_engine(workers: int, store_path: Path) -> ExperimentEngine:
    """One engine per run: fresh instrumentation, shared store."""
    return ExperimentEngine(
        workers=workers,
        store=ResultStore(store_path),
        instrument=RunInstrumentation(progress=print_progress),
    )


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else (os.cpu_count() or 1)
    config = base_config(
        workload=ProWGenConfig(n_requests=20_000, n_objects=1_000, n_clients=50)
    )
    store_path = Path(tempfile.mkdtemp(prefix="repro-sweep-")) / "store.jsonl"
    print(f"config: {config.describe()}")
    print(f"store:  {store_path}\n")

    # -- 1. an "interrupted" suite: only the first two fractions finish ----
    print(f"interrupted run ({workers} workers, first 2 of "
          f"{len(FRACTIONS)} fractions):")
    partial = make_engine(workers, store_path)
    cache_size_sweep(
        config, schemes=SCHEMES, fractions=FRACTIONS[:2], seed=7, engine=partial
    )
    inst = partial.instrument
    print(f"-> {inst.executed} points simulated in {inst.elapsed:.1f}s "
          f"({inst.requests_per_sec():,.0f} req/s, "
          f"{inst.worker_utilization(workers):.0%} worker utilization)\n")

    # -- 2. resume: the stored prefix is skipped, the rest is computed -----
    print("resumed run (same store, full fraction axis):")
    resumed = make_engine(workers, store_path)
    sweep = cache_size_sweep(
        config, schemes=SCHEMES, fractions=FRACTIONS, seed=7, engine=resumed
    )
    inst = resumed.instrument
    print(f"-> {inst.skipped} points from store, {inst.executed} newly "
          f"simulated\n")

    # -- 3. the resumed curves match a from-scratch serial run exactly -----
    serial = cache_size_sweep(
        config, schemes=SCHEMES, fractions=FRACTIONS, seed=7,
        engine=ExperimentEngine(workers=1),
    )
    assert sweep.to_csv() == serial.to_csv(), "engine determinism violated"
    print("resumed parallel run == fresh serial run (byte-identical CSV)\n")
    print(sweep.to_table())


if __name__ == "__main__":
    main()
