"""Policy what-if gate: identity what-if byte-identity, modified policies bite.

The what-if subsystem's acceptance bar, run as a CI smoke job:

* for every faultable scheme (fc, fc-ec, hier-gd, squirrel) at fault
  rate 0 and at the gate rate, a simulate-with-record then
  **identity-policy what-if** must reproduce the recorded
  ``SchemeResult`` byte-identically with zero changed events — the
  draws field and :func:`repro.protocol.policy.run_ladder` must agree
  to the uniform;
* a *modified* policy (``immediate``) on a faulty trace must actually
  change events — a what-if that never disagrees with the recording is
  measuring nothing.

Usage::

    REPRO_SCALE=smoke PYTHONPATH=src python benchmarks/policy_gate.py
    python benchmarks/policy_gate.py --rate 0.1 --out /tmp/policy_traces
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.experiments.robustness import ROBUSTNESS_FRACTION, robustness_plan
from repro.experiments.runner import base_config
from repro.faults.run import run_scheme_with_faults
from repro.protocol.policy import PolicySet, RetryPolicy
from repro.protocol.trace import recording_traces
from repro.protocol.whatif import format_whatif, whatif_trace

GATE_SCHEMES = ("fc", "fc-ec", "hier-gd", "squirrel")

IMMEDIATE = PolicySet(default=RetryPolicy(strategy="immediate"))


def run_gate(rate: float, out_dir: Path) -> list[str]:
    """Record + what-if every gate point; return failures (empty = pass)."""
    failures: list[str] = []
    config = base_config().with_changes(proxy_cache_fraction=ROBUSTNESS_FRACTION)
    faulty_trace: Path | None = None
    for scheme in GATE_SCHEMES:
        for r in (0.0, rate):
            label = f"{scheme}@rate={r:g}"
            plan = robustness_plan(r)
            with recording_traces(out_dir) as recorder:
                run_scheme_with_faults(scheme, config, plan=plan, seed=0)
            trace_path = recorder.written[-1]
            report = whatif_trace(trace_path)
            if not report.identity:
                failures.append(f"{label}: default policies not seen as identity")
                continue
            if report.n_changed or not report.identical:
                failures.append(
                    f"{label}: identity what-if drifted from the recording "
                    f"({report.n_changed} changed events)"
                )
                print(format_whatif(report))
                continue
            print(
                f"  ok {label}: {report.n_ladders} ladders re-judged, "
                "identity result byte-identical"
            )
            if r > 0:
                faulty_trace = trace_path

    if faulty_trace is None:
        failures.append("no faulty trace recorded (rate 0?)")
        return failures

    # A modified policy must actually disagree with the recording.
    modified = whatif_trace(faulty_trace, IMMEDIATE)
    print(f"\nmodified-policy check ({faulty_trace.name}):")
    print(format_whatif(modified))
    if modified.n_changed == 0 or modified.identical:
        failures.append(
            "immediate-fallback what-if changed nothing on a faulty trace"
        )
    else:
        print(f"  ok immediate policy re-judged {modified.n_changed} events")

    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=0.1,
                        help="faulty gate point's composite fault rate")
    parser.add_argument("--out", type=Path, default=None, metavar="DIR",
                        help="trace directory (default: a temp dir)")
    args = parser.parse_args(argv)
    out_dir = args.out or Path(tempfile.mkdtemp(prefix="policy_gate_"))
    out_dir.mkdir(parents=True, exist_ok=True)

    failures = run_gate(args.rate, out_dir)
    if failures:
        print("\nPOLICY GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\npolicy gate passed: identity what-ifs byte-identical, modified "
          "policies bite")
    return 0


if __name__ == "__main__":
    sys.exit(main())
