"""RawDraws against the numpy calls it stands in for, draw for draw.

The generator's goldens depend on ``Generator.integers`` / ``random``
consuming the PCG64 stream exactly as ``workload/rawdraws.py`` writes it
out; a numpy that changes either fails *here*, by name, before any
stream or ledger golden does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.rawdraws import _WINDOW, RawDraws

# 2**31 + 5 rejects about half its 32-bit values, so the Lemire loop runs;
# 2**32 - 1 is the largest Lemire bound, 2**32 the plain 32-bit draw.
BOUNDS = [1, 2, 3, 1_500, 2_000, 2**31 + 5, 2**32 - 1, 2**32]

scalar_draw = st.one_of(
    st.just(("random",)), st.tuples(st.just("integers"), st.sampled_from(BOUNDS))
)
#: A step is a short pattern of scalar draws repeated up to most of a
#: window (so a handful of steps crosses several), a batch, or a sync.
steps = st.lists(
    st.one_of(
        st.tuples(st.lists(scalar_draw, min_size=1, max_size=4), st.integers(1, 3_000)),
        st.tuples(st.just("uniforms"), st.integers(0, 2 * _WINDOW)),
        st.just(("sync",)),
    ),
    min_size=1,
    max_size=10,
)


def twins(seed):
    """Two equal generators whose 32-bit buffer is already occupied."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in pair:
        rng.integers(3)
    assert pair[0].bit_generator.state["has_uint32"] == 1
    return pair


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), steps=steps)
def test_numpy_generator_integers_and_random_consume_the_stream_as_rawdraws_does(seed, steps):
    ours, numpy_rng = twins(seed)
    draws = RawDraws(ours)
    for step in steps:
        if step[0] == "sync":
            draws.sync()
            assert ours.bit_generator.state == numpy_rng.bit_generator.state
        elif step[0] == "uniforms":
            assert draws.uniforms(step[1]) == numpy_rng.random(step[1]).tolist()
            assert ours.bit_generator.state == numpy_rng.bit_generator.state
        else:
            pattern, repeats = step
            for _ in range(repeats):
                for draw in pattern:
                    if draw[0] == "random":
                        assert draws.random() == numpy_rng.random()
                    else:
                        value = draws.integers(draw[1])
                        assert type(value) is int
                        assert value == numpy_rng.integers(draw[1]), draw
    draws.sync()
    assert ours.bit_generator.state == numpy_rng.bit_generator.state
    # What the generator's callers do next: a vector draw off the same stream.
    assert np.array_equal(
        ours.integers(100, size=5, dtype=np.int32),
        numpy_rng.integers(100, size=5, dtype=np.int32),
    )


def test_many_windows_of_the_generators_own_pair():
    # The out-of-stack candidate draw, 10 windows' worth, synced mid-window.
    ours, numpy_rng = twins(2003)
    draws = RawDraws(ours)
    for i in range(10 * _WINDOW):
        assert draws.integers(2_000) == numpy_rng.integers(2_000)
        assert draws.random() == numpy_rng.random()
        if i % 1_777 == 0:
            draws.sync()
            assert ours.bit_generator.state == numpy_rng.bit_generator.state


def test_sync_without_a_draw_leaves_the_generator_alone():
    ours, numpy_rng = twins(5)
    draws = RawDraws(ours)
    draws.sync()
    assert draws.integers(1) == 0  # numpy consumes nothing for a one-value range
    draws.sync()
    assert ours.bit_generator.state == numpy_rng.bit_generator.state


def test_others_may_draw_from_the_generator_after_a_sync():
    ours, numpy_rng = twins(8)
    draws = RawDraws(ours)
    for _ in range(3):
        assert draws.integers(3) == numpy_rng.integers(3)  # leaves a half buffered
        draws.sync()
        assert ours.integers(7) == numpy_rng.integers(7)  # takes it behind our back
        assert ours.random() == numpy_rng.random()
        assert draws.integers(2_000) == numpy_rng.integers(2_000)
        assert draws.random() == numpy_rng.random()


@pytest.mark.parametrize(
    "bit_generator",
    [np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM],
)
def test_refuses_other_bit_generators_by_name(bit_generator):
    with pytest.raises(TypeError, match=bit_generator.__name__):
        RawDraws(np.random.Generator(bit_generator(1)))


@pytest.mark.parametrize("n", [2**32 + 1, 2**40, 0, -3])
def test_refuses_bounds_outside_the_32_bit_path(n):
    # Above 2**32 numpy switches to its 64-bit Lemire draw; below 1 it raises too.
    draws = RawDraws(np.random.default_rng(0))
    with pytest.raises(ValueError, match=str(n)):
        draws.integers(n)
