"""Chord backend unit tests: ring invariants, fingers, lazy repair."""

import pytest

from repro.overlay.chord import ChordOverlay
from repro.overlay.id_space import IdSpace
from tests.overlay.helpers import joined


def cw(space, a, b):
    return (b - a) % space.size


class TestOwnership:
    def test_owner_is_successor_of_key(self):
        ov = joined(ChordOverlay, 30)
        ids = ov.node_ids()
        for i in range(300):
            key = ov.space.object_id(f"k{i}")
            owner = ov.owner_of(key)
            # No live node lies strictly between the key and its owner.
            gap = cw(ov.space, key, owner)
            for nid in ids:
                if nid != owner and cw(ov.space, key, nid) < gap:
                    pytest.fail(f"{nid:x} is closer after key than owner")

    def test_owner_of_exact_node_id(self):
        ov = joined(ChordOverlay, 10)
        for nid in ov.node_ids():
            assert ov.owner_of(nid) == nid

    def test_singleton_owns_everything(self):
        ov = ChordOverlay()
        node = ov.add_named("only")
        assert ov.owner_of(12345) == node.node_id
        assert ov.route(12345).hops == 0


class TestRingState:
    def test_successor_lists_follow_ring(self):
        ov = joined(ChordOverlay, 20, successor_list_size=4)
        ids = ov.node_ids()
        n = len(ids)
        for i, nid in enumerate(ids):
            node = ov.nodes[nid]
            expect = [ids[(i + off) % n] for off in range(1, 5)]
            assert node.successors == expect
            assert node.predecessor == ids[(i - 1) % n]

    def test_fingers_are_successors_of_powers(self):
        # bulk_add_named materialises the *converged* ring; incremental
        # joins deliberately leave survivors' fingers stale (lazy repair).
        ov = ChordOverlay()
        ov.bulk_add_named([f"cache-{i}" for i in range(25)])
        ids = ov.node_ids()
        for nid in ids[:5]:
            node = ov.nodes[nid]
            for i, finger in enumerate(node.fingers):
                target = (nid + (1 << i)) % ov.space.size
                expect = ov.owner_of(target)
                if expect == nid:
                    assert finger is None
                else:
                    assert finger == expect

    def test_bulk_build_matches_incremental(self):
        names = [f"c{i}" for i in range(15)]
        one = ChordOverlay()
        one.bulk_add_named(names)
        two = ChordOverlay()
        for name in names:
            two.add_named(name)
        assert one.node_ids() == two.node_ids()
        for nid in one.node_ids():
            # Neighbour state (what correctness rests on) converges either
            # way; fingers may be staler in the incremental build — they
            # cost hops, not placement — so only deliveries are compared.
            assert one.nodes[nid].successors == two.nodes[nid].successors
            assert one.nodes[nid].predecessor == two.nodes[nid].predecessor
        for i in range(100):
            key = one.space.object_id(f"same/{i}")
            assert (
                one.route(key, record=False).root
                == two.route(key, record=False).root
            )

    def test_duplicate_join_rejected(self):
        ov = joined(ChordOverlay, 5)
        ov.add_named("dup")
        with pytest.raises(ValueError, match="already in ring"):
            ov.add_named("dup")

    def test_fail_unknown_rejected(self):
        ov = joined(ChordOverlay, 5)
        with pytest.raises(KeyError):
            ov.fail(42)


class TestFailureRepair:
    def test_successor_lists_eagerly_repaired(self):
        ov = joined(ChordOverlay, 20, successor_list_size=4)
        ids = ov.node_ids()
        victim = ids[7]
        ov.fail(victim)
        live = ov.node_ids()
        n = len(live)
        for i, nid in enumerate(live):
            node = ov.nodes[nid]
            assert victim not in node.successors
            assert node.predecessor != victim
            assert node.successors == [live[(i + off) % n] for off in range(1, 5)]

    def test_fingers_left_stale_then_lazily_repaired(self):
        ov = joined(ChordOverlay, 30)
        ids = ov.node_ids()
        victim = ids[11]
        ov.fail(victim)
        stale = sum(
            1
            for nid in ov.node_ids()
            for f in ov.nodes[nid].fingers
            if f == victim
        )
        assert stale > 0, "failure must leave some fingers stale (lazy repair)"
        before = ov.repair_counts()["finger_repairs"]
        # Routing through the ring trips the stale fingers and heals them.
        live = ov.node_ids()
        for i in range(400):
            key = ov.space.object_id(f"heal/{i}")
            result = ov.route(key, start=live[i % len(live)])
            assert result.root == ov.owner_of(key)
        after = ov.repair_counts()["finger_repairs"]
        assert after > before

    def test_mass_failure_still_routes(self):
        ov = joined(ChordOverlay, 40)
        ids = ov.node_ids()
        for victim in ids[1::2]:  # kill every other node
            ov.fail(victim)
        live = ov.node_ids()
        for i in range(200):
            key = ov.space.object_id(f"half/{i}")
            assert ov.route(key, start=live[i % len(live)]).root == ov.owner_of(key)

    def test_neighbourhood_is_successor_list(self):
        ov = joined(ChordOverlay, 12, successor_list_size=4)
        for nid in ov.node_ids():
            assert ov.neighbourhood(nid) == ov.nodes[nid].successors


class TestDiameter:
    def test_log2_diameter(self):
        ov = joined(ChordOverlay, 64)
        assert ov.expected_diameter() == 6
        assert ov.max_route_hops == 16 + 8 * 6

    def test_hops_stay_logarithmic(self):
        ov = joined(ChordOverlay, 100)
        ids = ov.node_ids()
        for i in range(300):
            key = ov.space.object_id(f"log/{i}")
            ov.route(key, start=ids[i % len(ids)])
        # log2(100) ~ 6.6; greedy finger routing averages about half that.
        assert ov.stats.total_hops / ov.stats.messages <= 7.0
        assert ov.stats.max_hops <= 10

    def test_invalid_successor_list_size(self):
        with pytest.raises(ValueError):
            ChordOverlay(successor_list_size=0)

    def test_custom_space(self):
        ov = ChordOverlay(space=IdSpace(bits=32, b=4))
        ov.bulk_add_named([f"n{i}" for i in range(8)])
        key = ov.space.object_id("x")
        assert ov.route(key).root == ov.owner_of(key)
