"""Directory cost gate: a Bloom lookup directory must stay cheap.

The §4.2 Bloom directory is the *small* representation; it only pays off
if probing it costs about what the exact hashtable costs.  This gate runs
Hier-GD under the composite fault plan twice on shared traces — once with
``directory="bloom"``, once with ``directory="exact"`` — and requires the
ratio of their wall times to stay under a ceiling.  A ratio of two runs on
one host is host-independent, so the gate is usable on CI runners; runs
are interleaved and the median of N is taken on each side.

History: 2.0-2.5x with the numpy-scalar filter (a blake2b and ~8 numpy
scalar reads per probe), 1.19-1.27x with the packed bytearray filter and
its index memo when this gate was written, drifting to a median of 1.58x
(1.43-2.16x, ten invocations) as the rest of the faulty run got faster.
With one list element per slot and the memo read inline: median 1.34x
(1.14-1.71x, ten invocations alternating with those, 2-core host).
Pastry membership as table arithmetic shrank the cost both runs share:
median 1.45x (1.30-1.52x, ten invocations; 1.355x, 0.89-1.76x, for ten
invocations of the code before it, alternating with them).  The
two runs are not the same simulation (false positives cost the Bloom run
extra wasted rounds), so the floor of the ratio is a bit above 1.

Usage::

    REPRO_SCALE=smoke PYTHONPATH=src python benchmarks/directory_gate.py
    python benchmarks/directory_gate.py --repeats 5 --ceiling 1.6
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from repro.core.run import generate_workloads
from repro.experiments.robustness import ROBUSTNESS_FRACTION, robustness_plan
from repro.experiments.runner import base_config
from repro.faults.run import run_scheme_with_faults

KINDS = ("bloom", "exact")


def measure(repeats: int, rate: float) -> dict[str, float]:
    """Median wall seconds of the faulty Hier-GD run per directory kind."""
    config = base_config(proxy_cache_fraction=ROBUSTNESS_FRACTION)
    traces = generate_workloads(config, seed=0)
    plan = robustness_plan(rate)
    variants = {kind: config.with_changes(directory=kind) for kind in KINDS}
    walls: dict[str, list[float]] = {kind: [] for kind in KINDS}
    for _ in range(repeats):
        for kind, variant in variants.items():
            start = time.perf_counter()
            run_scheme_with_faults("hier-gd", variant, traces, plan)
            walls[kind].append(time.perf_counter() - start)
    return {kind: statistics.median(times) for kind, times in walls.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="interleaved runs per directory kind (default 3)")
    parser.add_argument("--rate", type=float, default=0.1,
                        help="composite fault rate (default 0.1)")
    parser.add_argument("--ceiling", type=float, default=1.6, metavar="X",
                        help="largest allowed bloom/exact wall-time ratio")
    args = parser.parse_args(argv)

    walls = measure(args.repeats, args.rate)
    ratio = walls["bloom"] / walls["exact"]
    print(f"directory gate: hier-gd at fault rate {args.rate:g}, "
          f"median of {args.repeats}: bloom {walls['bloom']:.3f}s, "
          f"exact {walls['exact']:.3f}s, ratio {ratio:.2f}x")
    if ratio > args.ceiling:
        print(f"REGRESSION: bloom/exact {ratio:.2f}x > ceiling {args.ceiling:.2f}x")
        return 1
    print(f"gate passed: bloom/exact {ratio:.2f}x <= ceiling {args.ceiling:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
