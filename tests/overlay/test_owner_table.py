"""The patched owner table: whole-table placement kept exact across churn.

Hier-GD resolves every object's owner once per run
(``bulk_owner_of``) and, on each join or failure, re-derives only the
objects :meth:`KeyRing.moved_by` names — the keys strictly between the
changed node's live ring neighbours.  The model here is the backend's own
scalar ``owner_of``: after every event of a join / fail / Poisson-churn
sequence, every entry of the patched table must equal it, on Pastry and
on Chord.  The drawn keys sit where an off-by-one arc end would show:
on node ids and one beside them, at ring midpoints (Pastry's lower-id
tie-break) and at both ends of the id space (arcs wrapping through 0),
on rings shrunk to one or two nodes.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.churn import ChurnEvent
from repro.core.config import SimulationConfig
from repro.core.hiergd import HierGdScheme, _FirstTouchOwners
from repro.core.run import generate_workloads
from repro.overlay import OVERLAY_BACKENDS, KeyRing, Overlay
from repro.workload import ProWGenConfig
from tests.overlay.helpers import joined

BACKENDS = ("pastry", "chord")

#: Every name a drawn sequence can join, the first ``START`` up front.
NAMES = [f"cache-{i}" for i in range(10)]
START = 4


def edge_keys(ov, names=NAMES):
    """Keys where an arc end is decided: every candidate node id and one
    either side of it, the midpoints of every pair of them both ways round
    the ring (ties when the gap is even), and the ends of the id space."""
    size = ov.space.size
    ids = sorted(ov.space.node_id(name) for name in names)
    keys = {0, 1, size - 1}
    for nid in ids:
        keys.update({(nid - 1) % size, nid, (nid + 1) % size})
    for a in ids:
        for b in ids:
            if a < b:
                keys.add((a + b) // 2)
                keys.add(((a + b + size) // 2) % size)  # the arc through 0
    return sorted(keys)


class PatchedTable:
    """A node-id owner table kept the way the engine keeps its own."""

    def __init__(self, ov, keys):
        self.ov = ov
        self.keys = keys
        self.ring = KeyRing(np.array(keys, dtype=object))
        self.owners = ov.bulk_owner_of(np.array(keys, dtype=object))

    def changed(self, node_id):
        for obj, key in self.ring.moved_by(self.ov, node_id):
            self.owners[obj] = self.ov.owner_of(key)

    def check(self):
        assert self.owners == [self.ov.owner_of(k) for k in self.keys]


def drive(ov, table, steps):
    """Apply ``(join?, pick)`` steps, checking the table after each; a
    failure never empties the ring, a join takes the next unused name."""
    unused = [n for n in NAMES if ov.space.node_id(n) not in ov]
    for join, pick in steps:
        live = ov.node_ids()
        if join and unused:
            node_id = ov.add_named(unused.pop(pick % len(unused))).node_id
        elif len(live) > 1:
            node_id = live[pick % len(live)]
            ov.fail(node_id)
            unused.append(next(n for n in NAMES if ov.space.node_id(n) == node_id))
        else:
            continue
        table.changed(node_id)
        table.check()


@pytest.mark.parametrize("backend", BACKENDS)
class TestPatchedTable:
    @settings(max_examples=100, deadline=None)
    @given(
        start=st.integers(1, START),
        steps=st.lists(st.tuples(st.booleans(), st.integers(0, 99)), max_size=25),
        data=st.data(),
    )
    def test_every_entry_matches_owner_of_after_every_event(
        self, backend, start, steps, data
    ):
        ov = joined(OVERLAY_BACKENDS[backend], NAMES[:start])
        # A few edge keys at a time, so an arc's first or last key can be
        # one whose owner moves.
        keys = data.draw(st.lists(st.sampled_from(edge_keys(ov)), unique=True, max_size=30))
        keys += data.draw(st.lists(st.integers(0, ov.space.size - 1), max_size=10))
        table = PatchedTable(ov, keys)
        table.check()
        drive(ov, table, steps)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_poisson_churn(self, backend, seed):
        """Poisson arrivals, each a join or a failure with even odds."""
        rng = random.Random(seed)
        ov = joined(OVERLAY_BACKENDS[backend], NAMES[:START])
        table = PatchedTable(
            ov, edge_keys(ov) + [ov.space.object_id(f"http://obj/{i}") for i in range(200)]
        )
        t, steps = 0.0, []
        while t < 20.0:
            t += rng.expovariate(1.0)
            steps.append((rng.random() < 0.5, rng.randrange(100)))
        drive(ov, table, steps)

    def test_down_to_one_node_and_back(self, backend):
        ov = joined(OVERLAY_BACKENDS[backend], NAMES[:3])
        table = PatchedTable(ov, edge_keys(ov))
        # Fail to a single node (every key is then its), join back up.
        drive(ov, table, [(False, 0), (False, 0), (True, 0), (True, 0), (True, 0)])
        assert len(ov) == 4

    def test_a_failure_moves_only_the_failed_owners_keys(self, backend):
        ov = joined(OVERLAY_BACKENDS[backend], 30)
        keys = [ov.space.object_id(f"http://obj/{i}") for i in range(400)]
        table = PatchedTable(ov, keys)
        before = list(table.owners)
        victim = max(set(before), key=before.count)
        ov.fail(victim)
        moved = {obj for obj, _ in table.ring.moved_by(ov, victim)}
        table.changed(victim)
        table.check()
        changed = {obj for obj in range(len(keys)) if table.owners[obj] != before[obj]}
        # Exactly the victim's keys move, and the arc holds them all.
        assert changed == {obj for obj in range(len(keys)) if before[obj] == victim}
        assert changed and changed <= moved

    def test_joins_steal_keys(self, backend):
        ov = joined(OVERLAY_BACKENDS[backend], 10)
        keys = [ov.space.object_id(f"http://obj/{i}") for i in range(400)]
        table = PatchedTable(ov, keys)
        before = list(table.owners)
        stolen = set()
        for i in range(8):
            node_id = ov.add_named(f"steal-{i}").node_id
            table.changed(node_id)
            table.check()
            stolen |= {obj for obj, owner in enumerate(table.owners) if owner == node_id}
        assert stolen, "8 joins into a 10-node ring must capture some keys"
        assert all(table.owners[obj] != before[obj] for obj in stolen)


def test_routing_agrees_with_the_table():
    ov = joined(Overlay, 30)
    keys = [ov.space.object_id(f"agree-{i}") for i in range(50)]
    table = PatchedTable(ov, keys)
    assert [ov.route(k).root for k in keys] == table.owners


class TestFirstTouchMemo:
    """The memo over the table: a miss reads it, every ``rate``-th routes."""

    def memo(self, rate, n=10):
        ov = joined(Overlay, 20)
        keys = np.array([ov.space.object_id(f"k{i}") for i in range(n)], dtype=object)
        table = list(range(n))  # stands for the owners' client indexes
        return ov, _FirstTouchOwners(table, keys, ov, rate)

    def test_misses_read_the_table_and_sample_routes(self):
        ov, memo = self.memo(rate=2)
        assert [memo[obj] for obj in range(10)] == list(range(10))
        assert memo.misses == 10
        assert ov.stats.messages == 5  # 10 misses at rate 2
        assert [memo[obj] for obj in range(10)] == list(range(10))
        assert memo.misses == 10 and ov.stats.messages == 5  # hits route nothing

    def test_sampling_off_at_rate_zero(self):
        ov, memo = self.memo(rate=0)
        for obj in range(10):
            memo[obj]
        assert memo.misses == 10 and ov.stats.messages == 0

    def test_a_cleared_memo_misses_again(self):
        ov, memo = self.memo(rate=4)
        for _ in range(2):
            for obj in range(10):
                memo[obj]
            memo.clear()
        assert memo.misses == 20 and ov.stats.messages == 5


def churn_config(overlay):
    workload = ProWGenConfig(n_requests=2_000, n_objects=200, n_clients=12)
    return SimulationConfig(
        workload=workload, n_proxies=2, proxy_cache_fraction=0.2,
        client_cache_fraction=0.02, overlay=overlay,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_engine_table_is_exact_after_every_membership_change(backend):
    """The cluster state's own table, through ``fail`` / ``join``."""
    config = churn_config(backend)
    traces = generate_workloads(config, seed=3)
    # A schedule (its one event never falls due) makes a run with churn.
    events = [ChurnEvent(at_request=10**9, kind="join", cluster=0)]
    scheme = HierGdScheme(config, traces, events=events)
    state = scheme.states[0]
    keys = state.object_keys

    def check():
        ov = state.overlay
        assert state.owner_table == [state.idx_of_node[ov.owner_of(k)] for k in keys]
        assert not state.owner_memo  # every object misses again

    assert len(keys) > 0
    rng = random.Random(5)
    joins = 0
    for _ in range(30):
        live = [k for k in range(len(state.clients)) if k not in state.dead]
        if rng.random() < 0.5 and len(live) > 2:
            state.fail(rng.choice(live), scheme._locate)
        else:
            joins += 1
            state.join(f"cluster0/extra{joins}", scheme._make_cache(1))
        check()
