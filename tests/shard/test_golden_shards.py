"""Pin multi-shard results: sha256 of every run against a golden file.

``GOLDEN_shards.json`` was written by the ``Sharded*`` scheme subclasses
that preceded the shard peer view (:mod:`repro.shard.view`), so the view
is held to their bytes, not merely to run-to-run determinism of its own
code (the two ``hier-gd-sized*`` rows are younger: sized Hier-GD had no
sharded form before the indexed engine took sizes).  Refresh it — only
after an *intentional* change of the bounded-staleness semantics — with
``PYTHONPATH=src python -m tests.shard.test_golden_shards``.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import SimulationConfig
from repro.experiments.store import serialize_result
from repro.shard import run_scheme_sharded
from repro.workload import ProWGenConfig

GOLDEN = Path(__file__).with_name("GOLDEN_shards.json")

# The tests/shard/test_engine.py config: 4 clusters x 1 500 requests.
WORKLOAD = ProWGenConfig(n_requests=1500, n_objects=100, n_clients=8)
SIZED = dataclasses.replace(WORKLOAD, object_sizes="heavy-tailed")

#: case -> (scheme, shards, round_requests, config overrides)
CASES = {
    f"{name}-s{shards}-r{rounds}": (name, shards, rounds, {})
    for name in ("nc", "sc", "hier-gd")
    for shards in (2, 3)
    for rounds in (200, 500)
}
CASES.update(
    {
        "hier-gd-chord": ("hier-gd", 2, 200, {"overlay": "chord"}),
        "hier-gd-lru": ("hier-gd", 2, 200, {"hiergd_policy": "lru"}),
        "hier-gd-replicas2": ("hier-gd", 2, 200, {"p2p_replicas": 2}),
        "hier-gd-no-promote": ("hier-gd", 2, 200, {"promote_on_p2p_hit": False}),
        "nc-sized": ("nc", 2, 200, {"workload": SIZED}),
        "sc-sized": ("sc", 2, 200, {"workload": SIZED}),
        "hier-gd-sized": ("hier-gd", 2, 200, {"workload": SIZED}),
        "hier-gd-sized-gd": (
            "hier-gd", 2, 200, {"workload": SIZED, "gd_cost_model": "gd"}
        ),
    }
)


def golden_config(**overrides) -> SimulationConfig:
    overrides.setdefault("workload", WORKLOAD)
    return SimulationConfig(n_proxies=4, warmup_fraction=0.1, **overrides)


def result_sha(result) -> str:
    canonical = json.dumps(
        serialize_result(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _digest(case: str) -> str:
    name, shards, rounds, overrides = CASES[case]
    return result_sha(
        run_scheme_sharded(
            name, golden_config(**overrides), seed=0, shards=shards,
            round_requests=rounds,
        )
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_sharded_run_matches_golden(case):
    assert _digest(case) == json.loads(GOLDEN.read_text())[case]


def test_golden_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case: _digest(case) for case in sorted(CASES)}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}")
