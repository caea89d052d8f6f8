"""RawDraws' candidate windows against the numpy calls they stand in for.

The generator's goldens depend on ``Generator.integers`` / ``random``
consuming the PCG64 stream exactly as ``workload/rawdraws.py`` decodes
it; a numpy that changes either fails *here*, by name, before any
stream or ledger golden does.  :class:`Loop` reads candidates the way
the emit loop does; the twin draws each one as ``int(integers(n))``
then ``random()`` over the same alias tables.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.rawdraws import _WINDOW, RawDraws
from repro.workload.zipf import AliasSampler

# 2**31 + 5 rejects about half its 32-bit values, so windows end early
# and the Lemire loop runs; 2**32 - 1 is the largest Lemire bound, 2**32
# the plain 32-bit draw; 1 draws nothing for ``integers``.
BOUNDS = [1, 2, 3, 1_500, 2_000, 2**31 + 5, 2**32 - 1, 2**32]
#: Candidates a window holds when no draw rejects.
PER_WINDOW = _WINDOW // 3 * 2


def tables(n, version):
    """Alias tables over ``n`` objects; ``version`` tells a rebuild's apart.

    Above 2 000 objects no real table fits in memory: every id keeps
    itself below a constant probability and turns into a negative id
    above it, so both the id and the uniform still decide the value."""
    if n > 2_000:
        return np.broadcast_to(0.5 / version, (n,)), np.broadcast_to(-version, (n,))
    weights = np.random.default_rng([n, version]).random(n)
    return AliasSampler(weights + 0.01).tables()


class Loop:
    """The emit loop's side: ``cands[k]``, a refill when it runs out."""

    def __init__(self, rng, n):
        self.draws, self.n, self.version = RawDraws(rng), n, 1
        self.cands, self.k = self.draws.cands, 0
        self.prob, self.alias = tables(n, 1)

    def read(self):
        try:
            obj = self.cands[self.k]
        except IndexError:
            self.draws.refill(self.n, self.prob, self.alias)
            obj, self.k = self.cands[0], 0
        self.k += 1
        return obj

    def rebuild(self):
        self.version += 1
        self.prob, self.alias = tables(self.n, self.version)
        self.draws.resolve(self.k, self.prob, self.alias)
        self.k = 0


class Twin:
    """The scalar calls, on an equal generator."""

    def __init__(self, rng, n):
        self.rng, self.n = rng, n
        self.prob, self.alias = tables(n, 1)

    def read(self):
        obj = int(self.rng.integers(self.n))
        return obj if self.rng.random() < self.prob[obj] else int(self.alias[obj])


def twins(seed, n, half=True):
    """A loop and its twin on equal generators, the 32-bit buffer
    occupied first when ``half``."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in pair:
        if half:
            rng.integers(3)
        assert rng.bit_generator.state["has_uint32"] == half
    return Loop(pair[0], n), Twin(pair[1], n)


def same_state(loop, twin):
    return loop.draws._bitgen.state == twin.rng.bit_generator.state


#: A step reads candidates (up to one and a half windows, so a few
#: cross several), rebuilds the tables after a read, draws a uniform
#: batch, or syncs.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(1, PER_WINDOW * 3 // 2)),
        st.tuples(st.just("uniforms"), st.integers(0, 2 * _WINDOW)),
        st.just(("rebuild",)),
        st.just(("sync",)),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.sampled_from(BOUNDS),
    half=st.booleans(),
    steps=steps,
)
def test_numpy_generator_integers_and_random_consume_the_stream_as_rawdraws_does(
    seed, n, half, steps
):
    loop, twin = twins(seed, n, half)
    for step in steps:
        if step[0] == "sync":
            loop.draws.sync(loop.k)
            assert same_state(loop, twin)  # stale ``uinteger`` included
        elif step[0] == "uniforms":
            assert loop.draws.uniforms(loop.k, step[1]) == twin.rng.random(step[1]).tolist()
            assert same_state(loop, twin)
        elif step[0] == "rebuild":  # the loop rebuilds right after a rejected read
            assert loop.read() == twin.read()
            loop.rebuild()
            twin.prob, twin.alias = loop.prob, loop.alias
        else:
            for _ in range(step[1]):
                obj = loop.read()
                assert type(obj) is int and obj == twin.read()
    loop.draws.sync(loop.k)
    assert same_state(loop, twin)
    # What the generator's callers do next: a vector draw off the same stream.
    assert np.array_equal(
        loop.draws._rng.integers(100, size=5, dtype=np.int32),
        twin.rng.integers(100, size=5, dtype=np.int32),
    )


@pytest.mark.parametrize("half", [False, True])
def test_many_windows_of_the_generators_own_bound(half):
    # The ledger's n_objects, 10 windows' worth, synced mid-window.
    loop, twin = twins(2003, 2_000, half)
    for i in range(10 * PER_WINDOW):
        assert loop.read() == twin.read()
        if i % 1_777 == 0:
            loop.draws.sync(loop.k)
            assert same_state(loop, twin)


def first_rejection(rng, n):
    """Index of the first candidate whose ``integers(n)`` rejects, read
    off a copy of ``rng`` with nothing held in its 32-bit buffer."""
    copy = np.random.Generator(np.random.PCG64())
    copy.bit_generator.state = rng.bit_generator.state
    assert not copy.bit_generator.state["has_uint32"]
    halves = copy.bit_generator.random_raw(_WINDOW).reshape(-1, 3)[:, 0]
    values = np.stack([halves & 0xFFFFFFFF, halves >> 32], axis=1).ravel()
    rejected = np.flatnonzero((values * n & 0xFFFFFFFF) < (1 << 32) % n)
    return int(rejected[0]) if len(rejected) else None


def seed_rejecting_at(n, wanted):
    return next(
        s for s in range(100_000) if wanted(first_rejection(np.random.default_rng(s), n))
    )


@pytest.mark.parametrize(
    "n, where",
    [
        (2**31 + 5, "first"),  # the very first draw rejects
        (2**31 + 5, "even"),  # the next window's first draw rejects
        (2**31 + 5, "odd"),  # the next window opens on the rejected half, held
        # 2 000 rejects one value in 3.3 million; ProWGen's loop meets it.
        (2_000, "even"),
        (2_000, "odd"),
    ],
)
def test_window_stops_before_its_first_rejection(n, where):
    parity = {"first": 0, "even": 0, "odd": 1}[where]
    seed = seed_rejecting_at(
        n, lambda at: at is not None and (at == 0) == (where == "first") and at % 2 == parity
    )
    loop, twin = twins(seed, n, half=False)
    at = first_rejection(twin.rng, n)
    for i in range(at):
        assert loop.read() == twin.read()
        assert len(loop.cands) == at, i  # the window stops short of the rejection
    assert loop.read() == twin.read()  # the scalar calls draw the rejected one
    assert len(loop.cands) == 1  # in a window of its own
    loop.draws.sync(loop.k)
    assert same_state(loop, twin)
    for _ in range(3 * PER_WINDOW):
        assert loop.read() == twin.read()
    loop.draws.sync(loop.k)
    assert same_state(loop, twin)


def test_sync_without_a_draw_leaves_the_generator_alone():
    loop, twin = twins(5, 1)
    loop.draws.sync(0)
    assert loop.read() == 0 == twin.read()  # numpy consumes nothing for integers(1)
    loop.draws.sync(loop.k)
    assert same_state(loop, twin)
    loop.draws.sync(loop.k)  # the window is gone: nothing moves
    assert same_state(loop, twin)


def test_others_may_draw_from_the_generator_after_a_sync():
    loop, twin = twins(8, 3)
    for _ in range(3):
        assert loop.read() == twin.read()  # leaves a half buffered
        loop.draws.sync(loop.k)
        assert loop.cands == []  # the rest of the window is dropped
        ours = loop.draws._rng
        assert ours.integers(7) == twin.rng.integers(7)  # takes it behind our back
        assert ours.random() == twin.rng.random()
        assert loop.read() == twin.read()


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
        draws.refill(n, np.ones(1), np.zeros(1, np.int64))
