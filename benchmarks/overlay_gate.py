"""Overlay gate: Chord determinism and CLI; keeper of the Pastry goldens.

The Pastry path is pinned byte for byte: every scheme, directory variant
and fault rate must produce ``SchemeResult``s identical to
``GOLDEN_overlay.json`` (smoke scale, seed 0, captured before the
overlay contract refactor).  That check has no host timing, so it is a
tier-1 test — ``tests/integration/test_golden_overlay.py``, one case per
golden, over this module's :func:`cases` / :func:`run_case` — and this
script only *writes* the file.  The Chord backend has no golden history,
so it is held to determinism here — two independent runs of the same
case must serialize identically — plus an end-to-end ``--overlay chord``
CLI run of the robustness figure (which exercises the full fault ladder
and Poisson churn on Chord).

Usage::

    python benchmarks/overlay_gate.py            # the Chord gate (CI job)
    python benchmarks/overlay_gate.py --skip-cli # Chord determinism only
    python benchmarks/overlay_gate.py --write    # refresh the Pastry goldens

The equivalence suite runs at smoke scale and fraction 0.3 (small enough
that the P2P tier carries real traffic).  Refresh the goldens only for
an *intentional* behaviour change on the Pastry path — never to silence
a diff the tier-1 test caught.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "GOLDEN_overlay.json"

SCHEMES = ["nc", "sc", "fc", "nc-ec", "sc-ec", "fc-ec", "hier-gd", "squirrel"]
FRACTION = 0.3
SEED = 0

#: Chord determinism cases: the overlay-carrying schemes, fault-free and
#: under the composite fault plan (churn included).
CHORD_CASES = [
    ("hier-gd", "exact", 0.0),
    ("squirrel", "exact", 0.0),
    ("hier-gd", "exact", 0.1),
]


def cases():
    """The full Pastry equivalence suite (schemes x directories x rates)."""
    from repro.faults.run import FAULTY_SCHEMES

    for s in SCHEMES:
        yield (s, "exact", 0.0)
    yield ("hier-gd", "bloom", 0.0)
    for s in sorted(FAULTY_SCHEMES):
        yield (s, "exact", 0.1)
    yield ("hier-gd", "bloom", 0.1)


def run_case(scheme, directory, rate, overlay="pastry", traces_cache=None):
    """One serialized SchemeResult, workload shared across same-shape cases."""
    from repro.core.run import generate_workloads, run_scheme
    from repro.experiments.robustness import robustness_plan
    from repro.experiments.runner import SCALES, base_config
    from repro.experiments.store import serialize_result
    from repro.faults.run import run_scheme_with_faults

    cfg = base_config(
        SCALES["smoke"],
        proxy_cache_fraction=FRACTION,
        directory=directory,
        overlay=overlay,
    )
    tkey = (cfg.workload, cfg.n_proxies)
    if traces_cache is None:
        traces_cache = {}
    if tkey not in traces_cache:
        traces_cache[tkey] = generate_workloads(cfg, seed=SEED)
    traces = traces_cache[tkey]
    if rate > 0:
        res = run_scheme_with_faults(
            scheme, cfg, traces, plan=robustness_plan(rate, seed=SEED), seed=SEED
        )
    else:
        res = run_scheme(scheme, cfg, traces, seed=SEED)
    return serialize_result(res)


def label_for(scheme, directory, rate):
    return f"{scheme}|dir={directory}|rate={rate:g}"


def write_pastry_goldens() -> None:
    """Capture every Pastry case into ``GOLDEN_overlay.json``."""
    goldens = {}
    traces_cache: dict = {}
    for case in cases():
        goldens[label_for(*case)] = run_case(*case, traces_cache=traces_cache)
        print(f"  captured {label_for(*case)}")
    GOLDEN_PATH.write_text(
        json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH} ({len(goldens)} cases)")


def check_chord_determinism() -> int:
    failures = 0
    for scheme, directory, rate in CHORD_CASES:
        label = label_for(scheme, directory, rate) + "|overlay=chord"
        first = run_case(scheme, directory, rate, overlay="chord")
        second = run_case(scheme, directory, rate, overlay="chord")
        if first != second:
            print(f"FAIL {label}: two identical chord runs diverged")
            failures += 1
        else:
            hops = first.get("extras", {}).get("mean_chord_hops")
            suffix = f" (mean_chord_hops={hops:.2f})" if hops else ""
            print(f"  ok {label} deterministic{suffix}")
    return failures


def check_chord_cli() -> int:
    """End-to-end ``--overlay chord`` CLI run of the robustness figure."""
    from repro.experiments.cli import main as cli_main

    print("  running: repro-experiments robust --scale smoke --overlay chord")
    rc = cli_main(["robust", "--scale", "smoke", "--overlay", "chord"])
    if rc != 0:
        print(f"FAIL chord CLI run exited {rc}")
        return 1
    print("  ok chord CLI run")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="refresh the Pastry goldens instead of gating")
    parser.add_argument("--skip-cli", action="store_true",
                        help="skip the end-to-end chord CLI run")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    if args.write:
        print("[overlay gate] capturing the Pastry goldens")
        write_pastry_goldens()
        return 0
    print("[overlay gate] Chord determinism across two runs")
    failures = check_chord_determinism()
    if not args.skip_cli:
        print("[overlay gate] Chord end-to-end CLI")
        failures += check_chord_cli()
    if failures:
        print(f"[overlay gate] FAILED ({failures} case(s))")
        return 1
    print("[overlay gate] PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
