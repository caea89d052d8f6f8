"""Unit tests for Pastry per-node state (leaf sets, routing tables)."""

import pytest

from repro.overlay.id_space import IdSpace
from repro.overlay.pastry import LeafSet, PastryNode, RoutingTable, offer, purge

SPACE16 = IdSpace(bits=16, b=4)


def learn(node, *node_ids):
    """Offer ``node_ids``, in order, to ``node`` alone."""
    offer(node.space, (node,), node_ids)


def leafset_of(offers=(), owner=0x8000, size=4):
    """The leaf set of a node that has learned ``offers`` in order
    (:func:`offer` is where members enter a leaf set)."""
    node = PastryNode(owner, SPACE16, leaf_size=size)
    learn(node, *offers)
    return node.leaves


class TestLeafSet:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            LeafSet(0, 3, SPACE16)
        with pytest.raises(ValueError):
            LeafSet(0, 0, SPACE16)

    def test_add_splits_by_side(self):
        ls = leafset_of((0x8001, 0x7FFF))  # clockwise, counter-clockwise
        assert ls.larger == [0x8001]
        assert ls.smaller == [0x7FFF]

    def test_keeps_closest_per_side(self):
        ls = leafset_of((0x8005, 0x8001, 0x8003, 0x8002), size=4)  # 2 per side
        assert ls.larger == [0x8001, 0x8002]

    def test_owner_and_duplicates_ignored(self):
        ls = leafset_of((0x8000, 0x8001, 0x8001))
        assert len(ls) == 1

    def test_wraparound_sides(self):
        ls = leafset_of((0xFFFF,), owner=0x0001)  # just ccw across 0
        assert 0xFFFF in ls.smaller

    def test_remove(self):
        ls = leafset_of((0x8001,))
        assert ls.remove(0x8001) is True
        assert ls.remove(0x8001) is False
        assert len(ls) == 0

    def test_covers_incomplete_side_is_true(self):
        ls = leafset_of((0x8001,), size=4)  # larger side has 1 of 2 entries
        assert ls.covers(0xF000)  # conservatively covered

    def test_covers_respects_full_side_boundary(self):
        ls = leafset_of((0x8001, 0x8002, 0x7FFE, 0x7FFF), size=4)
        assert ls.covers(0x8002)
        assert not ls.covers(0x9000)
        assert ls.covers(0x7FFE)
        assert not ls.covers(0x7000)

    def test_closest_to_prefers_nearest_member(self):
        ls = leafset_of((0x8001, 0x8002, 0x7FFE, 0x7FFF), size=4)
        assert ls.closest_to(0x8002) == 0x8002
        assert ls.closest_to(0x8003) == 0x8002
        assert ls.closest_to(0x8000) == 0x8000  # owner itself

    def test_closest_tie_breaks_to_lower_id(self):
        ls = leafset_of((0x1002,), owner=0x1000)
        # key equidistant between owner 0x1000 and member 0x1002
        assert ls.closest_to(0x1001) == 0x1000

    def test_bisect_insert_keeps_distance_order(self):
        # Offers in scrambled order must leave each side ascending by ring
        # distance from the owner (the bisect-insert invariant).
        ls = leafset_of(
            (0x8009, 0x8001, 0x8005, 0x8003, 0x7FF0, 0x7FFE, 0x7FF8), size=8
        )  # 4 per side
        assert ls.larger == [0x8001, 0x8003, 0x8005, 0x8009]
        assert ls.smaller == [0x7FFE, 0x7FF8, 0x7FF0]
        assert ls._ldist == sorted(ls._ldist)
        assert ls._sdist == sorted(ls._sdist)

    def test_full_side_drops_farther_offers(self):
        # A full side ignores an offer no closer than its last member and
        # trims its farthest member when a closer one arrives.
        ls = leafset_of((0x8001, 0x8003, 0x8009, 0x8003, 0x8002), size=4)
        assert ls.larger == [0x8001, 0x8002]
        assert ls._ldist == [1, 2]

    def test_wraparound_covers_across_zero(self):
        # Owner near 0: both sides cross the origin of the ring.
        ls = leafset_of((0x0004, 0x0007, 0xFFFE, 0xFFF0), owner=0x0002)
        assert ls.smaller == [0xFFFE, 0xFFF0]
        assert ls.covers(0x0003)  # between owner and cw extreme
        assert ls.covers(0xFFFF)  # between ccw extreme and owner, across 0
        assert not ls.covers(0x8000)  # far side of the ring
        assert not ls.covers(0xFF00)  # beyond the ccw extreme

    def test_wraparound_closest_across_zero(self):
        ls = leafset_of((0x0004, 0xFFFE), owner=0x0002)
        assert ls.closest_to(0xFFFF) == 0xFFFE
        assert ls.closest_to(0x0000) == 0x0002  # dist 2; 0xFFFE is 2 too
        assert ls.closest_to(0x0003) == 0x0002

    def test_wraparound_half_ring_boundary(self):
        # A node exactly half the ring away sits at equal cw/ccw
        # distance; it is filed clockwise (cw <= ccw).
        ls = leafset_of((0x8000,), owner=0x0000)
        assert ls.larger == [0x8000]
        assert ls.smaller == []


class TestRoutingTable:
    def test_consider_places_by_prefix_and_digit(self):
        rt = RoutingTable(0xA000, SPACE16)
        assert rt.consider(0xB123) is True  # prefix 0, digit0 = 0xB
        assert rt.rows[0][0xB] == 0xB123
        assert rt.consider(0xA100) is True  # prefix 1, digit1 = 1
        assert rt.rows[1][0x1] == 0xA100

    def test_incumbent_kept(self):
        rt = RoutingTable(0xA000, SPACE16)
        rt.consider(0xB123)
        assert rt.consider(0xB999) is False
        assert rt.rows[0][0xB] == 0xB123

    def test_owner_never_added(self):
        rt = RoutingTable(0xA000, SPACE16)
        assert rt.consider(0xA000) is False
        assert rt.entries() == []

    def test_next_hop_longer_prefix(self):
        rt = RoutingTable(0xA000, SPACE16)
        rt.consider(0xB123)
        assert rt.next_hop(0xB456) == 0xB123
        assert rt.next_hop(0xC000) is None

    def test_next_hop_for_own_id_is_none(self):
        rt = RoutingTable(0xA000, SPACE16)
        assert rt.next_hop(0xA000) is None

    def test_remove_clears_the_slot(self):
        rt = RoutingTable(0xA000, SPACE16)
        rt.consider(0xB123)
        assert rt.remove(0xB123) is True
        assert rt.rows[0][0xB] is None

    def test_remove_non_member_keeps_incumbent(self):
        rt = RoutingTable(0xA000, SPACE16)
        rt.consider(0xB123)
        # 0xB777 maps to the same slot but is not its entry
        assert rt.remove(0xB777) is False
        assert rt.rows[0][0xB] == 0xB123
        assert rt.remove(0xA000) is False  # the owner is never an entry

    def test_remove_absent_is_noop(self):
        rt = RoutingTable(0xA000, SPACE16)
        assert rt.remove(0xB123) is False


class TestOfferAndPurge:
    def test_first_offer_wins_a_slot(self):
        n = PastryNode(0xA000, SPACE16, leaf_size=4)
        offer(SPACE16, (n,), (0xB123, 0xB777))
        assert n.table.rows[0][0xB] == 0xB123
        # the later offer still reaches the leaf set
        assert 0xB777 in n.leaves and 0xB123 in n.leaves

    def test_offer_reaches_every_node(self):
        a = PastryNode(0xA000, SPACE16, leaf_size=4)
        c = PastryNode(0xC000, SPACE16, leaf_size=4)
        offer(SPACE16, (a, c), (0xB123, 0xA000))
        assert a.table.rows[0][0xB] == 0xB123 and 0xB123 in a.leaves
        assert c.table.rows[0][0xB] == 0xB123 and 0xB123 in c.leaves
        # an offer of a node's own id leaves that node untouched
        assert 0xA000 not in a.known_nodes()
        assert 0xA000 in c.known_nodes()

    def test_purge_reports_exactly_the_holders(self):
        # leaf only: 0xA001 learned 0xB123 in its leaf set but its
        # slot was already taken by 0xB000
        leaf_only = PastryNode(0xA001, SPACE16, leaf_size=4)
        learn(leaf_only, 0xB000, 0xB123)
        # slot only: 0x1000's leaf sides are full of nearer nodes
        slot_only = PastryNode(0x1000, SPACE16, leaf_size=2)
        learn(slot_only, 0x1001, 0x0FFF, 0xB123)
        # neither: never learned it
        stranger = PastryNode(0xC000, SPACE16, leaf_size=4)
        held = purge(SPACE16, (leaf_only, slot_only, stranger), 0xB123)
        assert held == [(leaf_only, True, False), (slot_only, False, True)]
        for node in (leaf_only, slot_only, stranger):
            assert 0xB123 not in node.known_nodes()
        assert leaf_only.table.rows[0][0xB] == 0xB000
        assert slot_only.table.rows[0][0xB] is None


class TestPastryNode:
    def test_rejects_out_of_space_id(self):
        with pytest.raises(ValueError):
            PastryNode(1 << 16, SPACE16)

    def test_learn_updates_both_structures(self):
        n = PastryNode(0xA000, SPACE16, leaf_size=4)
        learn(n, 0xA001)
        assert 0xA001 in n.leaves
        assert 0xA001 in n.table.entries()

    def test_forget_removes_everywhere(self):
        n = PastryNode(0xA000, SPACE16, leaf_size=4)
        learn(n, 0xA001)
        n.forget(0xA001)
        assert 0xA001 not in n.leaves
        assert n.known_nodes() == []

    def test_route_decision_deliver_for_own_key(self):
        n = PastryNode(0xA000, SPACE16, leaf_size=4)
        assert n.route_decision(0xA000) == ("deliver", None)

    def test_route_decision_forwards_by_prefix(self):
        n = PastryNode(0xA000, SPACE16, leaf_size=2)
        # Fill the leaf set with near neighbours so coverage is bounded,
        # then a distant key must go through the routing table.
        learn(n, 0xA001)
        learn(n, 0x9FFF)
        learn(n, 0x1234)
        action, nxt = n.route_decision(0x1999)
        assert action == "forward" and nxt == 0x1234

    def test_route_decision_rare_case_falls_back(self):
        n = PastryNode(0xA000, SPACE16, leaf_size=2)
        learn(n, 0xA001)
        learn(n, 0x9FFF)
        # No routing entry for digit of key, but a known node is closer:
        # key shares prefix 0 with owner; 0x9FFF shares >= 0 and is closer.
        action, nxt = n.route_decision(0x9F00)
        assert action == "forward" and nxt == 0x9FFF

    def test_route_decision_isolated_node_delivers(self):
        n = PastryNode(0xA000, SPACE16, leaf_size=4)
        assert n.route_decision(0x1234) == ("deliver", None)
