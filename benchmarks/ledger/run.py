"""The performance ledger's one command.

    python3 benchmarks/ledger/run.py --workload <name> --seed <n> \\
        [--seconds <s>] [--trace 0|1] [--out <dir>]
    python3 benchmarks/ledger/run.py --all [--seed <n>] [--trace 0|1] --out <dir>

Generates the workload from the seed, runs it, checks the outputs and
prints every metric as ``name value unit``, one per line, then one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``) as the last
line.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Exits non-zero when a result digest is wrong.  See
README.md beside this file.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]


def parse(argv: list[str] | None, names: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=names)
    which.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="how long the timed repeats of the body measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--out", type=Path, help="directory for result, layers and spans files")
    parser.add_argument("--div", type=int, default=1,
                        help="divide every workload's requests (the self-test runs at 20)")
    parser.add_argument("--golden", type=Path, default=LEDGER / "GOLDEN_ledger.json")
    parser.add_argument("--write-golden", action="store_true",
                        help="record this run's digests as the goldens of its workload/seed")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(LEDGER)]
    import harness

    args = parse(argv, list(harness.WORKLOADS))
    if args.all:
        # One process per workload: peak RSS is per process.
        own = [a for a in (argv or sys.argv[1:]) if a != "--all"]
        codes = [
            subprocess.run(
                [sys.executable, str(LEDGER / "run.py"), "--workload", name, *own]
            ).returncode
            for name in harness.WORKLOADS
        ]
        return max(codes)
    return harness.run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
