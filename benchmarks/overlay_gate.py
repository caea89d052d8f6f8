"""Overlay refactor gate: Pastry byte-identity, Chord determinism, CLI.

The overlay contract refactor (``repro.overlay.contract``) must be a
*pure* refactor on the Pastry path: every scheme, directory variant and
fault rate must produce ``SchemeResult``s byte-identical to the goldens
captured from the pre-refactor tree (``GOLDEN_overlay.json``, smoke
scale, seed 0).  The Chord backend has no golden history, so it is held
to determinism instead — two independent runs of the same case must
serialize identically — plus an end-to-end ``--overlay chord`` CLI run
of the robustness figure (which exercises the full fault ladder and
Poisson churn on Chord).

Usage::

    python benchmarks/overlay_gate.py            # the full gate (CI job)
    python benchmarks/overlay_gate.py --write    # refresh the goldens
    python benchmarks/overlay_gate.py --skip-cli # equivalence checks only

The golden equivalence suite pins ``REPRO_SCALE=smoke`` and fraction
0.3 (small enough that the P2P tier carries real traffic).  Refresh the
goldens only for an *intentional* behaviour change on the Pastry path —
never to silence a diff this gate caught.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

os.environ["REPRO_SCALE"] = "smoke"

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
    from repro.experiments.runner import base_config
    from repro.experiments.store import serialize_result
    from repro.faults.run import run_scheme_with_faults

    cfg = base_config(
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


def check_pastry_goldens(write: bool) -> int:
    goldens = {} if write else json.loads(GOLDEN_PATH.read_text())
    failures = 0
    traces_cache: dict = {}
    for scheme, directory, rate in cases():
        label = label_for(scheme, directory, rate)
        got = run_case(scheme, directory, rate, traces_cache=traces_cache)
        if write:
            goldens[label] = got
            print(f"  captured {label}")
            continue
        want = goldens.get(label)
        if want is None:
            print(f"FAIL {label}: no golden entry")
            failures += 1
        elif got != want:
            print(f"FAIL {label}: result differs from pre-refactor golden")
            for key in ("n_requests", "total_latency"):
                if got.get(key) != want.get(key):
                    print(f"       {key}: golden={want.get(key)} got={got.get(key)}")
            for section in ("tier_counts", "messages", "extras"):
                g, w = got.get(section, {}), want.get(section, {})
                for k in sorted(set(g) | set(w)):
                    if g.get(k) != w.get(k):
                        print(f"       {section}.{k}: golden={w.get(k)} got={g.get(k)}")
            failures += 1
        else:
            print(f"  ok {label}")
    if write:
        GOLDEN_PATH.write_text(
            json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {GOLDEN_PATH} ({len(goldens)} cases)")
    return failures


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
    prev = os.environ.get("REPRO_OVERLAY")
    try:
        rc = cli_main(["robust", "--scale", "smoke", "--overlay", "chord"])
    finally:
        if prev is None:
            os.environ.pop("REPRO_OVERLAY", None)
        else:
            os.environ["REPRO_OVERLAY"] = prev
    if rc != 0:
        print(f"FAIL chord CLI run exited {rc}")
        return 1
    print("  ok chord CLI run")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="refresh the Pastry goldens instead of checking")
    parser.add_argument("--skip-cli", action="store_true",
                        help="skip the end-to-end chord CLI run")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    failures = 0
    print("[overlay gate] Pastry byte-identity vs pre-refactor goldens")
    failures += check_pastry_goldens(write=args.write)
    if not args.write:
        print("[overlay gate] Chord determinism across two runs")
        failures += check_chord_determinism()
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
