"""Stale-memo regression tests: Dht.owner across churn, both backends.

The Dht memoizes key->owner per overlay epoch.  A backend that forgets
to bump ``epoch`` on a membership change (or a Dht that forgets to
check it) would keep serving owners computed against a dead ring —
objects placed on failed caches, lookups misrouted.  These tests drive
join/fail/Poisson-churn sequences against both backends and assert the
memo is rebuilt exactly when placement can change.
"""

import random

import pytest

from repro.overlay import OVERLAY_BACKENDS, Dht
from tests.overlay.helpers import joined

BACKENDS = ("pastry", "chord")


def keys_for(ov, n=200):
    return [ov.space.object_id(f"http://obj/{i}") for i in range(n)]


@pytest.mark.parametrize("backend", BACKENDS)
class TestEpochMemo:
    def test_fail_invalidates_only_on_next_lookup(self, backend):
        ov = joined(OVERLAY_BACKENDS[backend], 30)
        dht = Dht(ov)
        keys = keys_for(ov)
        owners = {k: dht.owner(k) for k in keys}
        assert len(dht._memo) == len(set(keys))
        victim = max(set(owners.values()), key=list(owners.values()).count)
        ov.fail(victim)
        # Lazy invalidation: memo still holds the stale entries until the
        # next lookup notices the epoch moved.
        assert dht._memo_epoch != ov.epoch
        for k in keys:
            owner = dht.owner(k)
            assert owner != victim
            assert owner == ov.owner_of(k)
        assert dht._memo_epoch == ov.epoch

    def test_stale_memo_would_be_wrong(self, backend):
        """The regression this file exists for: at least one key's owner
        genuinely moves on failure, so serving the stale memo would
        misplace objects (not just waste a recompute)."""
        ov = joined(OVERLAY_BACKENDS[backend], 30)
        dht = Dht(ov)
        keys = keys_for(ov)
        before = {k: dht.owner(k) for k in keys}
        victim = next(iter(set(before.values())))
        ov.fail(victim)
        after = {k: dht.owner(k) for k in keys}
        moved = [k for k in keys if before[k] != after[k]]
        assert moved, "failing an owner must remap its keys"
        for k in moved:
            assert after[k] == ov.owner_of(k)

    def test_join_steals_keys(self, backend):
        ov = joined(OVERLAY_BACKENDS[backend], 10)
        dht = Dht(ov)
        keys = keys_for(ov)
        before = {k: dht.owner(k) for k in keys}
        newcomers = [ov.add_named(f"steal-{i}").node_id for i in range(8)]
        after = {k: dht.owner(k) for k in keys}
        stolen = [k for k in keys if after[k] in newcomers]
        assert stolen, "8 joins into a 10-node ring must capture some keys"
        for k in keys:
            assert after[k] == ov.owner_of(k)
        assert before  # silence unused warning; before is the contrast set

    def test_poisson_churn_sequence(self, backend):
        """Interleaved Poisson-arrival joins/failures with lookups between
        every event: the memo must agree with ground truth throughout."""
        rng = random.Random(7)
        ov = joined(OVERLAY_BACKENDS[backend], 25)
        dht = Dht(ov)
        keys = keys_for(ov, 80)
        joins = 0
        events = 0
        t = 0.0
        while events < 30:
            t += rng.expovariate(1.0)  # Poisson arrivals (rate 1)
            events += 1
            live = ov.node_ids()
            if rng.random() < 0.5 and len(live) > 8:
                ov.fail(rng.choice(live))
            else:
                joins += 1
                ov.add_named(f"churn-{joins}")
            sample = rng.sample(keys, 20)
            for k in sample:
                assert dht.owner(k) == ov.owner_of(k)
            assert dht._memo_epoch == ov.epoch
        assert events == 30

    def test_memo_reused_within_epoch(self, backend):
        ov = joined(OVERLAY_BACKENDS[backend], 30)
        dht = Dht(ov)
        k = ov.space.object_id("hot")
        dht.owner(k)
        size = len(dht._memo)
        for _ in range(10):
            dht.owner(k)
        assert len(dht._memo) == size
        assert dht._memo_epoch == ov.epoch
