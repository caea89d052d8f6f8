"""Pastry byte-identity against ``benchmarks/GOLDEN_overlay.json``.

Every scheme x lookup directory x fault rate (0 and the composite 10 %
plan) at smoke scale, seed 0, fraction 0.3 must serialize exactly as the
golden captured before the overlay contract and the size-aware insert
paths existed: both are invisible on the default Pastry, sizes-off path.
The cases and the runner are ``benchmarks/overlay_gate.py``'s (which
keeps ``--write``); the check has no host timing, so it lives here, once,
instead of in two CI gate scripts.
"""

import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

_spec = importlib.util.spec_from_file_location(
    "overlay_gate", BENCHMARKS / "overlay_gate.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

GOLDENS = json.loads(gate.GOLDEN_PATH.read_text(encoding="utf-8"))
CASES = list(gate.cases())


@pytest.fixture(scope="module")
def traces_cache():
    return {}


def test_goldens_cover_exactly_the_suite():
    assert set(GOLDENS) == {gate.label_for(*case) for case in CASES}


@pytest.mark.parametrize("case", CASES, ids=[gate.label_for(*c) for c in CASES])
def test_pastry_case_matches_golden(case, traces_cache):
    assert gate.run_case(*case, traces_cache=traces_cache) == GOLDENS[
        gate.label_for(*case)
    ]
