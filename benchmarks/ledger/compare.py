"""Compare two sets of ledger results: ``compare.py A/ B/``.

Each directory holds what ``run.py --out`` wrote: one
``<workload>.s<seed>.json`` per untraced run, and optionally one
``<workload>.layers.json`` per traced run.  Per workload and end-to-end
metric this prints both medians, how much worse B is than A as a share
of A's median, the wider of the two sets' own spreads, and a verdict
against the metric's bound in BENCHMARK.json:

``ok``          B is not worse than A by more than the bound;
``worse``       it is, and both sets repeat within the bound;
``unresolved``  a set's own spread is wider than the bound, so the
                difference cannot be told from noise (unless every run
                of B reads better than every run of A).

A set's spread is the distance between the quartiles of its runs
(``statistics.quantiles(n=4)``; max - min under four runs; the run's own
timed repeats when it is a single run), as a share of their median.
Simulated statistics of the traced runs must agree exactly.  Exits 1 on
any ``worse`` or inexact simulated statistic.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Per-layer metrics that are simulated statistics: they repeat exactly.
EXACT = ("core.sim_mean_latency", "core.messages_per_request", "core.tier_share.")
#: Column of a ``[wall s, cpu s, slices]`` sample behind each timing metric.
COLUMN_OF = {"req_per_s": 0, "wall_s": 0, "cpu_s_per_mreq": 1, "setup_s": 0}


def load(directory: Path) -> tuple[dict, dict]:
    """``({workload: [run record]}, {workload: layers record})``."""
    runs: dict[str, list[dict]] = defaultdict(list)
    layers: dict[str, dict] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text())
        if path.name.endswith(".layers.json"):
            layers[record["workload"]] = record
        else:
            runs[record["workload"]].append(record)
    return runs, layers


def spread(values: list[float]) -> float:
    """Quartile distance (max - min under four values) over the median."""
    if len(values) < 2:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    else:
        width = max(values) - min(values)
    return width / statistics.median(values)


def repeats(record: dict, metric: str) -> list[float]:
    """A single run's timed repeats of ``metric`` (bodies, or set-ups)."""
    column = COLUMN_OF.get(metric)
    if column is None:
        return []

    def relative(sample: list) -> float:  # to the slices run inside it
        return sample[column] / statistics.fmean(sample[2])

    if metric == "setup_s":
        return [relative(sample) for sample in record["samples"]["setups"]]
    steps = record["samples"]["steps"].values()
    return [sum(map(relative, body)) for body in zip(*steps)]


def set_spread(records: list[dict], metric: str) -> float:
    if len(records) > 1:
        return spread([r["metrics"][metric]["value"] for r in records])
    return spread(repeats(records[0], metric))


def compare(a_dir: Path, b_dir: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (a_runs, a_layers), (b_runs, b_layers) = load(a_dir), load(b_dir)
    bad = 0
    print(f"{'workload':15} {'metric':15} {'A median':>12} {'B median':>12} "
          f"{'B worse by':>10} {'spread':>7} {'bound':>6}  verdict (runs A/B)")
    for workload in sorted(set(a_runs) & set(b_runs)):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in a_runs[workload]]
            b = [r["metrics"][name]["value"] for r in b_runs[workload]]
            a_med, b_med = statistics.median(a), statistics.median(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (b_med - a_med) / a_med  # base: A's median
            noise = max(set_spread(a_runs[workload], name), set_spread(b_runs[workload], name))
            all_better = (
                max(b) < min(a) if metric["better"] == "lower" else min(b) > max(a)
            )
            if noise > bound and not all_better:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
                bad += 1
            else:
                verdict = "ok"
            print(f"{workload:15} {name:15} {a_med:12.4f} {b_med:12.4f} "
                  f"{worse_by:+10.2%} {noise:7.2%} {bound:6.0%}  {verdict} ({len(a)}/{len(b)})")
    for workload in sorted(set(a_layers) & set(b_layers)):
        if a_layers[workload]["seed"] != b_layers[workload]["seed"]:
            print(f"{workload:15} simulated statistics: not compared (different seeds)")
            continue
        a_m, b_m = a_layers[workload]["metrics"], b_layers[workload]["metrics"]
        differing = [
            name for name in a_m
            if name.startswith(EXACT) and a_m[name]["value"] != b_m[name]["value"]
        ]
        print(f"{workload:15} simulated statistics: "
              f"{'exact' if not differing else 'DIFFER ' + ', '.join(differing)}")
        bad += len(differing)
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(Path(sys.argv[1]), Path(sys.argv[2])))
