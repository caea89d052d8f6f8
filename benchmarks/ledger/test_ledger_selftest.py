"""Self-test of the ledger harness, on workloads shrunk twenty-fold.

Not part of tier-1 (``testpaths`` is ``tests``); run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger_selftest.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The four workloads the driver gates, and the two it does not (they run
#: more than one process or thread; see README.md).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["hiergd_shards2", "daemon_live"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_ledger(workload: str, out: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(LEDGER / "run.py"), "--workload", workload,
            "--seed", "3", "--div", "20", "--seconds", "0.5",
            "--out", str(out), "--golden", str(out / "golden.json"), *extra,
        ],
        capture_output=True, text=True, timeout=170,
    )


def check_report(done: subprocess.CompletedProcess, kind: str) -> dict:
    """Every declared metric once, with its unit; returns the JSON line."""
    assert done.returncode == 0, done.stderr
    lines = [ln for ln in done.stdout.splitlines() if not ln.startswith("#")]
    printed: dict[str, str] = {}
    for line in lines[:-1]:
        name, value, unit = line.split(" ")
        assert NAME.fullmatch(name)
        assert name not in printed, f"{name} printed twice"
        float(value)
        printed[name] = unit
    assert printed.pop("failed_op_share") and float(lines[-2].split(" ")[1]) == 0.0
    assert printed == {m["name"]: m["unit"] for m in SPEC[kind]}
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 < result["attempted"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == printed
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload: str, tmp_path: Path) -> None:
    result = check_report(run_ledger(workload, tmp_path), "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_span_tree(workload: str, tmp_path: Path) -> None:
    check_report(run_ledger(workload, tmp_path, "--trace", "1"), "per_layer")
    spans = json.loads((tmp_path / f"{workload}.spans.json").read_text())
    assert spans
    for index, span in enumerate(spans):
        assert set(span) >= {"name", "start_ns", "end_ns", "parent", "workload", "repeat"}
        assert span["start_ns"] <= span["end_ns"]
        parent = span["parent"]
        if parent is not None:
            # A parent opened first and closed last: indexes only ever
            # point backwards, so the parents form a tree.
            assert 0 <= parent < index
            assert spans[parent]["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= spans[parent]["end_ns"]


def test_corrupted_golden_flips_the_exit_code(tmp_path: Path) -> None:
    assert run_ledger("hiergd_scale", tmp_path, "--write-golden").returncode == 0
    golden = tmp_path / "golden.json"
    assert run_ledger("hiergd_scale", tmp_path).returncode == 0
    digests = json.loads(golden.read_text())
    (key,) = digests
    digests[key]["hier-gd"] = "0" * 64
    golden.write_text(json.dumps(digests))
    done = run_ledger("hiergd_scale", tmp_path)
    assert done.returncode == 1
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    """In a directory holding only the benchmark: non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        LEDGER, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "fig2_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0 and done.stdout == ""
