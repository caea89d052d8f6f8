"""Phase 2 of the generator against the scalar-draw loop it replaced.

``naive_emit_stream_chunks`` is the previous ``_emit_stream_chunks``:
one ``rng.integers`` / ``rng.random`` numpy call per candidate, the stack
through ``LruStack``'s public methods.  The real loop reads the same
PCG64 outputs through ``RawDraws`` and must agree chunk for chunk, leave
the generator in the same state at every ``yield`` (the callers draw the
client ids from it afterwards) and keep its occupancy count equal to the
stack it maintains by friend access.
"""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.lru_stack import LruStack
from repro.workload.prowgen import (
    _UNIFORM_BATCH,
    ProWGenConfig,
    _assign_counts,
    _emit_stream_chunks,
)
from repro.workload.zipf import AliasSampler, zipf_weights


def naive_emit_stream_chunks(config, counts, rng, chunk_requests):
    n_requests = int(counts.sum())
    n_objects, capacity = config.n_objects, config.stack_capacity
    remaining = counts.astype(np.int64).tolist()
    in_stack = [False] * n_objects
    stack = LruStack(capacity)
    uniforms, used = rng.random(_UNIFORM_BATCH).tolist(), 0
    pos_cum = np.cumsum(zipf_weights(max(1, capacity), config.stack_skew)).tolist()

    def uniform():
        nonlocal uniforms, used
        if used == _UNIFORM_BATCH:
            uniforms, used = rng.random(_UNIFORM_BATCH).tolist(), 0
        used += 1
        return uniforms[used - 1]

    def outside_tables():
        weights = np.where(in_stack, 0, remaining).astype(np.float64)
        return AliasSampler(weights).tables()

    prob, alias = outside_tables()
    rejects, mass_total, mass_stack = 0, n_requests, 0
    for start in range(0, n_requests, chunk_requests):
        out = []
        for _ in range(min(chunk_requests, n_requests - start)):
            position = 0  # 0 = drawn from outside the stack
            if len(stack) and uniform() * mass_total < mass_stack:
                position = bisect_right(pos_cum, uniform() * pos_cum[len(stack) - 1]) + 1
                position = min(position, len(stack))
                obj = stack.pop_at(position)
            while not position:
                obj = int(rng.integers(n_objects))
                if not rng.random() < prob[obj]:
                    obj = int(alias[obj])
                if remaining[obj] and not in_stack[obj]:
                    rejects = 0
                    break
                rejects += 1
                if rejects >= 256:
                    prob, alias = outside_tables()
                    rejects = 0
            out.append(obj)
            remaining[obj] -= 1
            mass_total -= 1
            if position:
                mass_stack -= 1
                if remaining[obj]:
                    stack.push(obj)
                else:
                    in_stack[obj] = False
            elif remaining[obj] and capacity:
                in_stack[obj] = True
                mass_stack += remaining[obj]
                evicted = stack.push(obj)
                if evicted is not None:
                    in_stack[evicted] = False
                    mass_stack -= remaining[evicted]
        yield np.array(out, dtype=np.int64)


def assert_same_generation(config, seed, counts_seed, chunk_requests):
    def start(emit):
        rng = np.random.default_rng(seed)
        counts_rng = rng if counts_seed is None else np.random.default_rng(counts_seed)
        return rng, emit(config, _assign_counts(config, counts_rng), rng, chunk_requests)

    rng, real = start(_emit_stream_chunks)
    model_rng, model = start(naive_emit_stream_chunks)
    emitted = 0
    for chunk, expected in zip(real, model, strict=True):
        assert chunk.dtype == np.int64 and chunk.tolist() == expected.tolist()
        assert rng.bit_generator.state == model_rng.bit_generator.state
        loop = real.gi_frame.f_locals  # suspended at its yield
        assert len(loop["stack"]) == loop["occupancy"] <= config.stack_capacity
        emitted += len(chunk)
    assert emitted == config.n_requests
    assert np.array_equal(
        rng.integers(config.n_clients, size=emitted, dtype=np.int32),
        model_rng.integers(config.n_clients, size=emitted, dtype=np.int32),
    )


@st.composite
def generations(draw):
    n_objects = draw(st.integers(1, 400))
    one_timers = draw(st.sampled_from([0.0, 0.5]))
    floor = 2 * n_objects  # every popular object is referenced at least twice
    n_requests = draw(st.integers(floor, floor + 6_000))
    config = ProWGenConfig(
        n_requests=n_requests,
        n_objects=n_objects,
        one_timer_fraction=one_timers,
        alpha=draw(st.sampled_from([0.0, 1.0])),
        stack_fraction=draw(st.sampled_from([0.0, 0.05, 1.0])),
        n_clients=draw(st.integers(1, 50)),
    )
    chunk_requests = draw(st.integers(1, n_requests + 1).filter(lambda c: n_requests % c))
    counts_seed = draw(st.none() | st.integers(0, 2**16))
    return config, draw(st.integers(0, 2**32)), counts_seed, chunk_requests


@settings(max_examples=40, deadline=None)
@given(generations())
def test_loop_matches_the_scalar_draw_model(generation):
    assert_same_generation(*generation)


@pytest.mark.parametrize("stack_fraction", [0.0, 0.2])
def test_model_agreement_at_length(stack_fraction):
    # With a stack, 150 k requests need more than two 65 536-uniform
    # batches; without one, every request is an outside draw and the run
    # reads ~50 look-ahead windows.  Chunk boundaries fall mid-window.
    config = ProWGenConfig(
        n_requests=150_000, n_objects=2_000, stack_fraction=stack_fraction, n_clients=30
    )
    assert_same_generation(config, seed=17, counts_seed=4, chunk_requests=9_973)
