"""Where a faulty, recorded Hier-GD run spends its time: one step at a time.

On the ``hiergd_faults`` ledger workload's inputs (its config and traces
at ``--seed``), times one ``hier-gd`` run per step, from the plain run to
the ledger's own:

    exact     exact directory, no faults
    bloom     Bloom directory, no faults
    loss      + the composite plan's three link losses only
    churn     + its Poisson membership churn only
    all       + the whole composite 10 % plan
    recorded  + the exchange trace recorded

Each step runs once to warm up, then ``--repeats`` times; the least CPU
time (``time.process_time``, ms) is printed as one JSON line.  Compare
two commits by running it alternately in each checkout::

    python3 benchmarks/faults_ablation.py --seed 0
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "benchmarks" / "ledger"), str(ROOT / "src")]

from workloads import HierGdFaults  # noqa: E402

from repro.core.run import run_scheme  # noqa: E402
from repro.experiments.robustness import robustness_plan  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.faults.run import run_scheme_with_faults  # noqa: E402
from repro.protocol.trace import recording_traces  # noqa: E402

FAULT_RATE = 0.1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    seed = args.seed
    with tempfile.TemporaryDirectory() as tmp:
        state = HierGdFaults().setup(seed, Path(tmp), 1)
        bloom, traces = state.config, state.traces
        exact = dataclasses.replace(bloom, directory="exact")
        rate = FAULT_RATE
        plans = {
            "loss": FaultPlan(p2p_loss=rate, proxy_loss=rate, push_loss=rate, seed=seed),
            "churn": FaultPlan(churn_rate=rate / 200.0, seed=seed),
            "all": robustness_plan(rate, seed),
        }

        def faulty(plan):
            return lambda: run_scheme_with_faults("hier-gd", bloom, traces, plan, seed=seed)

        def recorded():
            with recording_traces(Path(tmp) / "exchanges"):
                return faulty(plans["all"])()

        steps = {
            "exact": lambda: run_scheme("hier-gd", exact, traces, seed=seed),
            "bloom": lambda: run_scheme("hier-gd", bloom, traces, seed=seed),
            **{name: faulty(plan) for name, plan in plans.items()},
            "recorded": recorded,
        }
        cpu_ms = {}
        for name, step in steps.items():
            step()
            best = float("inf")
            for _ in range(args.repeats):
                gc.collect()
                start = time.process_time()
                step()
                best = min(best, time.process_time() - start)
            cpu_ms[name] = round(best * 1e3, 1)
    print(json.dumps(cpu_ms))


if __name__ == "__main__":
    main()
