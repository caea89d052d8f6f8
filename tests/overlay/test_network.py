"""Integration-level tests for overlay membership, routing and repair."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.id_space import IdSpace
from repro.overlay.network import Overlay
from tests.overlay.helpers import joined


def build(n, leaf_size=16, bits=128, b=4):
    return joined(Overlay, n, space=IdSpace(bits=bits, b=b), leaf_size=leaf_size)


class TestMembership:
    def test_build_by_count(self):
        ov = build(20)
        assert len(ov) == 20
        assert len(ov.node_ids()) == 20
        assert ov.node_ids() == sorted(ov.node_ids())

    def test_build_by_names(self):
        ov = joined(Overlay, ["a", "b", "c"])
        assert len(ov) == 3

    def test_duplicate_join_rejected(self):
        ov = build(3)
        nid = ov.node_ids()[0]
        with pytest.raises(ValueError):
            ov.join(nid)

    def test_join_out_of_space_rejected(self):
        ov = Overlay(space=IdSpace(bits=16, b=4))
        with pytest.raises(ValueError):
            ov.join(1 << 16)

    def test_fail_unknown_raises(self):
        ov = build(3)
        with pytest.raises(KeyError):
            ov.fail(12345)

    def test_epoch_bumps_on_membership_change(self):
        ov = build(3)
        e = ov.epoch
        ov.add_named("extra")
        assert ov.epoch == e + 1
        ov.fail(ov.node_ids()[0])
        assert ov.epoch == e + 2


class TestRoutingCorrectness:
    def test_single_node_delivers_to_itself(self):
        ov = build(1)
        only = ov.node_ids()[0]
        r = ov.route(key=123)
        assert r.root == only and r.hops == 0

    def test_empty_overlay_raises(self):
        ov = Overlay()
        with pytest.raises(RuntimeError):
            ov.route(1)
        with pytest.raises(RuntimeError):
            ov.numerically_closest(1)

    def test_route_from_dead_start_raises(self):
        ov = build(4)
        with pytest.raises(KeyError):
            ov.route(1, start=999999)

    @pytest.mark.parametrize("n", [2, 5, 16, 64, 150])
    def test_delivery_matches_numerically_closest(self, n):
        ov = build(n)
        space = ov.space
        starts = ov.node_ids()
        for i in range(200):
            key = space.object_id(f"http://host/obj{i}")
            want = ov.numerically_closest(key)
            got = ov.route(key, start=starts[i % len(starts)])
            assert got.root == want, f"key {i}: {got.root:x} != {want:x}"

    def test_join_by_raw_id(self):
        ov = build(30)
        node = ov.join(12345)
        assert node.node_id == 12345 and 12345 in ov
        assert ov.route(12345, start=ov.node_ids()[-1]).root == 12345
        for i in range(100):
            key = ov.space.object_id(f"raw{i}")
            assert ov.route(key).root == ov.numerically_closest(key)

    def test_path_starts_at_origin_ends_at_root(self):
        ov = build(50)
        start = ov.node_ids()[7]
        r = ov.route(ov.space.object_id("u"), start=start)
        assert r.path[0] == start and r.path[-1] == r.root
        assert r.hops == len(r.path) - 1

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1))
    @settings(max_examples=50, deadline=None)
    def test_random_keys_delivered_to_closest(self, key):
        ov = _SHARED[0]
        assert ov.route(key).root == ov.numerically_closest(key)


# A moderately sized shared overlay for the hypothesis test (building one
# per example would dominate runtime).
_SHARED = [joined(Overlay, 40)]


class TestHopEfficiency:
    @pytest.mark.parametrize("n,b", [(64, 4), (200, 4), (128, 2)])
    def test_hops_logarithmic(self, n, b):
        bits = 128 if b == 4 else 64
        ov = build(n, bits=bits, b=b)
        starts = ov.node_ids()
        hops = []
        for i in range(300):
            key = ov.space.object_id(f"k{i}")
            hops.append(ov.route(key, start=starts[i % n]).hops)
        bound = math.ceil(math.log(n, 2**b))
        mean = sum(hops) / len(hops)
        # Pastry guarantees ceil(log_2^b N) hops *in expectation* with
        # well-formed tables; allow slack of +2 for small-overlay edges.
        assert mean <= bound + 1, f"mean hops {mean} vs bound {bound}"
        assert max(hops) <= bound + 3

    def test_stats_accumulate(self):
        ov = build(30)
        before = ov.stats.messages
        ov.route(ov.space.object_id("x"))
        assert ov.stats.messages == before + 1
        assert ov.stats.total_hops >= 0
        assert ov.stats.total_hops <= ov.stats.max_hops * ov.stats.messages


class TestChurn:
    def test_routing_survives_failures(self):
        ov = build(60)
        # Fail 20 nodes, then every key must still reach the *new* closest.
        for nid in ov.node_ids()[::3]:
            ov.fail(nid)
        starts = ov.node_ids()
        for i in range(150):
            key = ov.space.object_id(f"churn{i}")
            want = ov.numerically_closest(key)
            got = ov.route(key, start=starts[i % len(starts)])
            assert got.root == want

    def test_routing_survives_joins_after_failures(self):
        ov = build(30)
        for nid in ov.node_ids()[:10]:
            ov.fail(nid)
        for i in range(15):
            ov.add_named(f"late-{i}")
        for i in range(100):
            key = ov.space.object_id(f"j{i}")
            assert ov.route(key).root == ov.numerically_closest(key)

    def test_leaf_sets_repaired_after_failure(self):
        ov = build(40, leaf_size=8)
        victim = ov.node_ids()[5]
        ov.fail(victim)
        live = set(ov.node_ids())
        for node in ov.nodes.values():
            for leaf in node.leaves.members():
                assert leaf in live
            # With 39 live nodes every node should have a full leaf set.
            assert len(node.leaves) == 8

    def test_fail_down_to_one_node(self):
        ov = build(5)
        for nid in ov.node_ids()[1:]:
            ov.fail(nid)
        assert len(ov) == 1
        assert ov.route(12345).root == ov.node_ids()[0]


class TestSlotRefill:
    """Failure repair must purge the dead node everywhere and refill the
    vacated routing-table slots (Pastry's lazy repair, §2.3)."""

    @staticmethod
    def _eligible(ov, owner, row, col):
        return [
            nid
            for nid in ov.node_ids()
            if nid != owner
            and ov.space.prefix_len(owner, nid) == row
            and ov.space.digit(nid, row) == col
        ]

    @staticmethod
    def _holders(ov, victim):
        """(owner, row, col) of every table slot currently holding victim."""
        return [
            (node.node_id, row, col)
            for node in ov.nodes.values()
            if node.node_id != victim
            for row, cols in enumerate(node.table.rows)
            for col, entry in enumerate(cols)
            if entry == victim
        ]

    def test_vacated_slots_refilled_when_candidates_exist(self):
        ov = build(80)
        # Pick a victim that holds at least one slot with a live
        # replacement available (row-0 slots usually qualify at n=80).
        victim = next(
            v
            for v in ov.node_ids()
            if any(
                [c for c in self._eligible(ov, owner, row, col) if c != v]
                for owner, row, col in self._holders(ov, v)
            )
        )
        holders = self._holders(ov, victim)
        ov.fail(victim)
        refilled = 0
        for owner, row, col in holders:
            entry = ov.nodes[owner].table.rows[row][col]
            candidates = self._eligible(ov, owner, row, col)
            if candidates:
                assert entry in candidates
                refilled += 1
            else:
                assert entry is None
        assert refilled > 0  # the victim was chosen to make this reachable

    def test_refill_takes_the_lowest_live_id_in_the_slot(self):
        # A holder that did not have the victim in its leaf set gets no
        # leaf-set repair offers, so only the slot refill fills the slot:
        # with the lowest eligible live id.
        ov = build(80)
        checked = 0
        for victim in ov.node_ids()[::10]:
            holders = [
                (owner, row, col)
                for owner, row, col in self._holders(ov, victim)
                if victim not in ov.nodes[owner].leaves
            ]
            ov.fail(victim)
            for owner, row, col in holders:
                candidates = self._eligible(ov, owner, row, col)
                entry = ov.nodes[owner].table.rows[row][col]
                assert entry == (min(candidates) if candidates else None)
                checked += bool(candidates)
        assert checked > 0

    def test_slot_left_empty_without_a_candidate(self):
        ov = build(40)
        # A slot whose only eligible live node is the victim.
        owner, row, col, victim = next(
            (owner, row, col, v)
            for v in ov.node_ids()
            for owner, row, col in self._holders(ov, v)
            if self._eligible(ov, owner, row, col) == [v]
        )
        ov.fail(victim)
        assert ov.nodes[owner].table.rows[row][col] is None

    def test_dead_nodes_purged_from_tables_and_leaves(self):
        ov = build(50)
        victims = ov.node_ids()[::7]
        for victim in victims:
            ov.fail(victim)
        dead = set(victims)
        for node in ov.nodes.values():
            for cols in node.table.rows:
                assert dead.isdisjoint(e for e in cols if e is not None)
            assert dead.isdisjoint(node.leaves.members())

    def test_route_after_fail_from_former_holder(self):
        """A survivor whose table pointed at the dead node still routes
        every key to the (new) numerically closest live node."""
        ov = build(80)
        victim = ov.node_ids()[23]
        holders = self._holders(ov, victim)
        assert holders
        holder = holders[0][0]
        ov.fail(victim)
        for i in range(100):
            key = ov.space.object_id(f"hold{i}")
            assert ov.route(key, start=holder).root == ov.numerically_closest(key)


class TestBulkAddNamed:
    """Bulk construction must converge to the sequential-join state for
    everything the simulation semantics depend on (see its docstring)."""

    @pytest.mark.parametrize("n,leaf_size", [(5, 4), (30, 8), (60, 16)])
    def test_matches_sequential_joins(self, n, leaf_size):
        space = IdSpace()
        names = [f"cache-{i}" for i in range(n)]
        seq = Overlay(space=space, leaf_size=leaf_size)
        for name in names:
            seq.add_named(name)
        bulk_ov = Overlay(space=space, leaf_size=leaf_size)
        bulk_ov.bulk_add_named(names)

        assert bulk_ov.node_ids() == seq.node_ids()
        assert bulk_ov.epoch == seq.epoch
        for nid in seq.node_ids():
            s_leaves, b_leaves = seq.nodes[nid].leaves, bulk_ov.nodes[nid].leaves
            # Same members in the same ascending-distance layout.
            assert b_leaves.smaller == s_leaves.smaller
            assert b_leaves.larger == s_leaves.larger
            assert b_leaves._sdist == s_leaves._sdist
            assert b_leaves._ldist == s_leaves._ldist

    def test_routing_table_entries_eligible(self):
        # Slot contention may resolve differently than join order, but
        # every filled slot must hold an eligible live node.
        ov = Overlay(space=IdSpace(), leaf_size=8)
        ov.bulk_add_named([f"cache-{i}" for i in range(40)])
        live = set(ov.node_ids())
        for node in ov.nodes.values():
            for row, cols in enumerate(node.table.rows):
                for col, entry in enumerate(cols):
                    if entry is None:
                        continue
                    assert entry in live
                    assert ov.space.prefix_len(node.node_id, entry) == row
                    assert ov.space.digit(entry, row) == col

    def test_deliveries_match_ground_truth(self):
        ov = Overlay(space=IdSpace(), leaf_size=16)
        ov.bulk_add_named([f"cache-{i}" for i in range(50)])
        for i in range(100):
            key = ov.space.object_id(f"http://origin.example/obj/{i}")
            assert ov.route(key, record=False).root == ov.numerically_closest(key)

    def test_duplicate_name_rejected(self):
        ov = Overlay(space=IdSpace())
        ov.bulk_add_named(["a"])
        with pytest.raises(ValueError):
            ov.bulk_add_named(["a"])
