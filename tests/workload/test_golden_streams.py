"""Pin the generator's bytes: sha256 of every stream against a golden file.

``GOLDEN_streams.json`` was produced by the Fenwick-tree generator that
preceded the positional-list rewrite of phase 2; any change to the RNG
draw order, the stack semantics or the alias tables shows up here first,
not in a downstream result golden.  Refresh it — only after an
*intentional* change of the generated workload — with
``PYTHONPATH=src python -m tests.workload.test_golden_streams``.
"""

import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.workload import (
    ProWGenConfig,
    generate_cluster_traces,
    generate_trace,
    generate_trace_streaming,
    generate_ucb_like_trace,
)

GOLDEN = Path(__file__).with_name("GOLDEN_streams.json")

# 60 k requests consume more than one 2**16 uniform batch, so the refill
# boundary is inside the pinned stream; 1 200 objects put the stack
# between 0 and 360 entries.
BASE = ProWGenConfig(n_requests=60_000, n_objects=1_200, n_clients=40)


def _cfg(**overrides) -> ProWGenConfig:
    return replace(BASE, **overrides)


def _memory(config, seed=11):
    return lambda tmp: [generate_trace(config, seed=seed)]


def _streaming(config, seed, chunk_requests):
    return lambda tmp: [
        generate_trace_streaming(
            config, seed, tmp / "t.ctrace", chunk_requests=chunk_requests
        )
    ]


CASES = {
    "stack_0": _memory(_cfg(stack_fraction=0.0)),
    "stack_005": _memory(_cfg(stack_fraction=0.05)),
    "stack_02": _memory(_cfg(stack_fraction=0.2)),
    "stack_06": _memory(_cfg(stack_fraction=0.6)),
    "alpha_05": _memory(_cfg(alpha=0.5)),
    "alpha_10": _memory(_cfg(alpha=1.0)),
    "skew_05": _memory(_cfg(stack_skew=0.5)),
    "no_one_timers": _memory(_cfg(one_timer_fraction=0.0), seed=5),
    "sized": _memory(_cfg(object_sizes="heavy-tailed")),
    "shared_counts_seed": lambda tmp: generate_cluster_traces(
        _cfg(n_requests=20_000, n_objects=500), 3, seed=7
    ),
    "ucb": lambda tmp: [generate_ucb_like_trace(n_requests=20_000, n_clients=50, seed=3)],
    # Chunk sizes that do not divide n_requests: a partial last window.
    "streaming_257": _streaming(_cfg(n_requests=20_011, n_objects=500), 42, 257),
    "streaming_4099": _streaming(
        _cfg(n_requests=20_011, n_objects=500, object_sizes="heavy-tailed"), 42, 4099
    ),
}


def _sha(array, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


def _digest(case: str) -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        out = []
        for trace in CASES[case](Path(tmp)):
            entry = {
                "n_requests": len(trace),
                "object_ids": _sha(trace.object_ids, "<i8"),
                "client_ids": _sha(trace.client_ids, "<i4"),
            }
            if trace.sizes is not None:
                entry["sizes"] = _sha(trace.sizes, "<i8")
            out.append(entry)
        return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_matches_golden(case):
    golden = json.loads(GOLDEN.read_text())
    assert _digest(case) == golden[case]


def test_golden_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case: _digest(case) for case in sorted(CASES)}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}")
