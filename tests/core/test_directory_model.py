"""Differential oracle for the lookup directories (ROADMAP item 10).

The engine's step 2 probes a directory on every run, so its contract is
held here against the naive model it stands for: the *set of true
holders* — objects stored in the P2P client cache — plus the eviction
notices a fault layer lost.  A hypothesis state machine drives each
directory through the engine's calls only: a store receipt for an object
not stored, an eviction notice for a stored one, a proxy-local repair of
an entry a failed lookup found stale.

* **exact** never over- or under-claims; under a lossy wrapper it claims
  exactly the holders plus the objects whose notice was dropped;
* **Bloom** never misses a live entry, and ``len`` is the number of live
  entries (false positives are allowed, and counted nowhere);
* **lossy**, over either: an over-claim exists only through a counted
  ``dropped_notices``, ``add`` is never lost, ``repair`` always removes.

The Bloom filters are tiny so that false positives, shared counters and
saturated slots all occur within a few steps.
"""

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.directory import LossyDirectory, make_directory

OBJECTS = range(16)


class Draws:
    """An rng whose next ``random()`` the machine sets: whether a notice
    is dropped is drawn by hypothesis, so the machine knows it."""

    next = 1.0

    def random(self) -> float:
        return self.next


class DirectoryMachine(RuleBasedStateMachine):
    @initialize(
        kind=st.sampled_from(["exact", "bloom"]),
        lossy=st.booleans(),
        capacity=st.integers(1, 6),
        fp_rate=st.sampled_from([0.01, 0.2, 0.5]),
    )
    def build(self, kind, lossy, capacity, fp_rate):
        self.kind, self.lossy = kind, lossy
        self.directory = make_directory(kind, capacity=capacity, fp_rate=fp_rate)
        if lossy:
            self.draws = Draws()
            self.directory = LossyDirectory(self.directory, 0.5, self.draws)
        #: The set of true holders: objects stored in the P2P cache.
        self.live = set()
        #: Entries left behind by dropped notices, not yet repaired (an
        #: exact entry is one per object; Bloom counts each add).
        self.stale = Counter()
        self.drops = 0

    @precondition(lambda self: len(self.live) < len(OBJECTS))
    @rule(data=st.data())
    def store_receipt(self, data):
        obj = data.draw(st.sampled_from([o for o in OBJECTS if o not in self.live]))
        dropped = self.dropped()
        self.directory.add(obj)
        assert obj in self.directory, "a store receipt was lost"
        assert self.dropped() == dropped
        self.live.add(obj)
        if self.kind == "exact":
            self.stale.pop(obj, None)  # the stale entry is the real one again

    @precondition(lambda self: self.live)
    @rule(data=st.data(), drop=st.booleans())
    def eviction_notice(self, data, drop):
        obj = data.draw(st.sampled_from(sorted(self.live)))
        drop = drop and self.lossy
        if self.lossy:
            self.draws.next = 0.0 if drop else 1.0
        self.directory.remove(obj)
        self.live.discard(obj)
        if drop:
            self.drops += 1
            self.stale[obj] += 1
        elif self.kind == "exact":
            assert obj not in self.directory

    @precondition(lambda self: +self.stale)
    @rule(data=st.data())
    def repair(self, data):
        obj = data.draw(st.sampled_from(sorted(+self.stale)))
        self.draws.next = 0.0  # a notice would be dropped now; a repair is local
        before = len(self.directory)
        self.directory.repair(obj)
        assert len(self.directory) == before - 1, "a repair did not remove"
        if self.kind == "exact":
            assert obj not in self.directory
            del self.stale[obj]
        else:
            self.stale[obj] -= 1

    @rule(obj=st.sampled_from(OBJECTS))
    def lookup(self, obj):
        claimed = obj in self.directory
        if obj in self.live or self.stale[obj]:
            assert claimed, "the directory missed an entry"
        elif self.kind == "exact":
            assert not claimed, "an exact directory over-claimed"

    def dropped(self) -> int:
        return self.directory.dropped_notices if self.lossy else 0

    @invariant()
    def holders(self):
        assert self.dropped() == self.drops
        assert sum(self.stale.values()) <= self.drops
        if self.kind == "exact":
            claimed = {o for o in OBJECTS if o in self.directory}
            assert claimed == self.live | set(+self.stale)
        else:
            assert all(o in self.directory for o in self.live | set(+self.stale))
        assert len(self.directory) == len(self.live) + sum(self.stale.values())


DirectoryMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=50, deadline=None
)
TestDirectoryMachine = DirectoryMachine.TestCase
