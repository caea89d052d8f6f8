"""Pastry membership as a chain of per-node method calls: the overlay's model.

:class:`repro.overlay.network.Overlay` folds a join, a failure and a
leaf-set repair into table arithmetic (``repro.overlay.pastry.offer`` and
an inline failure sweep).  This module keeps the same rules written the
plain way, one method per concept, so the tests can hold the folded
overlay to them (``tests/overlay/test_pastry_model.py``):

* a node learns another through ``ChainNode.learn`` →
  ``ChainRoutingTable.consider`` (prefix length and digit through the
  :class:`~repro.overlay.id_space.IdSpace` methods) → ``ChainLeafSet.add``,
  which inserts by bisect and then pops whatever overflows the side;
* a failure asks every survivor ``in leaves``, clears the slot through
  ``ChainRoutingTable.remove``, removes the leaf, then runs
  ``_repair_leaves`` (one ``learn`` per ring neighbour) and
  ``_refill_slot``;
* a routing decision asks ``covers`` and ``closest_to`` through the
  id-space distance methods.

The route loop is the shared :class:`~repro.overlay.contract.OverlayBackend`
driver, so a join walks the same kind of path in both.
"""

from __future__ import annotations

import bisect
import math

from repro.overlay.contract import OverlayBackend, RouteStats
from repro.overlay.id_space import IdSpace

__all__ = ["ChainLeafSet", "ChainRoutingTable", "ChainNode", "ChainOverlay"]


def cw_distance(space: IdSpace, a: int, b: int) -> int:
    """Clockwise (increasing-id) distance from ``a`` to ``b`` on the ring."""
    return (b - a) % space.size


class ChainLeafSet:
    """The ``l/2`` ring-closest nodes per side, kept by insert-then-pop."""

    def __init__(self, owner: int, size: int, space: IdSpace) -> None:
        self.owner = owner
        self.half = size // 2
        self.space = space
        self.smaller: list[int] = []
        self.larger: list[int] = []
        self._sdist: list[int] = []
        self._ldist: list[int] = []

    def members(self) -> list[int]:
        return self.smaller + self.larger

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.smaller or node_id in self.larger

    def add(self, node_id: int) -> None:
        if node_id == self.owner or node_id in self:
            return
        cw = cw_distance(self.space, self.owner, node_id)
        ccw = self.space.size - cw
        if cw <= ccw:
            self._insert(self.larger, self._ldist, node_id, cw)
        else:
            self._insert(self.smaller, self._sdist, node_id, ccw)

    def _insert(self, side: list[int], dists: list[int], node_id: int, dist: int) -> None:
        i = bisect.bisect_left(dists, dist)
        side.insert(i, node_id)
        dists.insert(i, dist)
        if len(side) > self.half:
            side.pop()
            dists.pop()

    def remove(self, node_id: int) -> bool:
        for side, dists in ((self.smaller, self._sdist), (self.larger, self._ldist)):
            if node_id in side:
                i = side.index(node_id)
                side.pop(i)
                dists.pop(i)
                return True
        return False

    def covers(self, key: int) -> bool:
        if not self.smaller and not self.larger:
            return True
        lo = self.smaller[-1] if len(self.smaller) == self.half else None
        hi = self.larger[-1] if len(self.larger) == self.half else None
        if lo is None and hi is None:
            return True
        space = self.space
        cw_key = cw_distance(space, self.owner, key)
        ccw_key = space.size - cw_key
        if cw_key <= ccw_key:
            return hi is None or cw_key <= cw_distance(space, self.owner, hi)
        return lo is None or ccw_key <= space.size - cw_distance(space, self.owner, lo)

    def closest_to(self, key: int) -> int:
        best = self.owner
        best_d = self.space.distance(self.owner, key)
        for node in self.members():
            d = self.space.distance(node, key)
            if d < best_d or (d == best_d and node < best):
                best, best_d = node, d
        return best


class ChainRoutingTable:
    """Prefix routing table; slots found through ``prefix_len`` / ``digit``."""

    def __init__(self, owner: int, space: IdSpace) -> None:
        self.owner = owner
        self.space = space
        self.rows: list[list[int | None]] = [
            [None] * space.digit_base for _ in range(space.ndigits)
        ]

    def consider(self, node_id: int) -> bool:
        if node_id == self.owner:
            return False
        p = self.space.prefix_len(self.owner, node_id)
        col = self.space.digit(node_id, p)
        if self.rows[p][col] is None:
            self.rows[p][col] = node_id
            return True
        return False

    def remove(self, node_id: int) -> bool:
        p = self.space.prefix_len(self.owner, node_id)
        col = self.space.digit(node_id, p)
        if self.rows[p][col] == node_id:
            self.rows[p][col] = None
            return True
        return False

    def next_hop(self, key: int) -> int | None:
        p = self.space.prefix_len(self.owner, key)
        if p >= self.space.ndigits:
            return None
        return self.rows[p][self.space.digit(key, p)]

    def entries(self) -> list[int]:
        seen: set[int] = set()
        for row in self.rows:
            for e in row:
                if e is not None:
                    seen.add(e)
        return list(seen)


class ChainNode:
    """Node id + routing table + leaf set; ``learn`` offers to both."""

    def __init__(self, node_id: int, space: IdSpace, leaf_size: int) -> None:
        self.node_id = node_id
        self.space = space
        self.table = ChainRoutingTable(node_id, space)
        self.leaves = ChainLeafSet(node_id, leaf_size, space)

    def learn(self, node_id: int) -> None:
        if node_id == self.node_id:
            return
        self.table.consider(node_id)
        self.leaves.add(node_id)

    def forget(self, node_id: int) -> None:
        self.table.remove(node_id)
        self.leaves.remove(node_id)

    def route_decision(self, key: int) -> tuple[str, int | None]:
        if key == self.node_id:
            return "deliver", None
        if self.leaves.covers(key):
            closest = self.leaves.closest_to(key)
            if closest == self.node_id:
                return "deliver", None
            return "forward", closest
        hop = self.table.next_hop(key)
        if hop is not None:
            return "forward", hop
        my_p = self.space.prefix_len(self.node_id, key)
        best, best_d = None, self.space.distance(self.node_id, key)
        for cand in self.known_nodes():
            if self.space.prefix_len(cand, key) >= my_p:
                d = self.space.distance(cand, key)
                if d < best_d:
                    best, best_d = cand, d
        if best is not None:
            return "forward", best
        return "deliver", None

    def known_nodes(self) -> list[int]:
        known = set(self.table.entries())
        known.update(self.leaves.members())
        known.discard(self.node_id)
        return list(known)


class ChainOverlay(OverlayBackend):
    """One-by-one Pastry joins and failures through the per-node chain."""

    name = "pastry-chain"

    def __init__(self, space: IdSpace, leaf_size: int) -> None:
        self.space = space
        self.leaf_size = leaf_size
        self.nodes: dict[int, ChainNode] = {}
        self._sorted_ids: list[int] = []
        self.stats = RouteStats()
        self.epoch = 0
        self._leaf_repairs = 0
        self._slot_refills = 0

    def add_named(self, name: str) -> ChainNode:
        return self.join(self.space.node_id(name))

    def join(self, node_id: int) -> ChainNode:
        new = ChainNode(node_id, self.space, self.leaf_size)
        if self.nodes:
            result = self._route_internal(node_id, start=self._sorted_ids[0], record=False)
            for hop_id in result.path:
                new.learn(hop_id)
                for known in self.nodes[hop_id].known_nodes():
                    new.learn(known)
            new.learn(result.root)
            for leaf in self.nodes[result.root].leaves.members():
                new.learn(leaf)
            for other in self.nodes.values():
                other.learn(node_id)
        self.nodes[node_id] = new
        bisect.insort(self._sorted_ids, node_id)
        self.epoch += 1
        return new

    def bulk_add_named(self, names: list[str]) -> list[ChainNode]:
        return [self.add_named(name) for name in names]

    def fail(self, node_id: int) -> None:
        del self.nodes[node_id]
        self._sorted_ids.remove(node_id)
        self.epoch += 1
        for survivor in self.nodes.values():
            in_leaves = node_id in survivor.leaves
            vacated = survivor.table.remove(node_id)
            survivor.leaves.remove(node_id)
            if in_leaves:
                self._repair_leaves(survivor)
            if vacated:
                self._refill_slot(survivor, node_id)

    def _refill_slot(self, survivor: ChainNode, dead_id: int) -> None:
        self._slot_refills += 1
        space = self.space
        p = space.prefix_len(survivor.node_id, dead_id)
        col = space.digit(dead_id, p)
        shift = space.bits - (p + 1) * space.b
        prefix = (survivor.node_id >> (space.bits - p * space.b)) if p else 0
        lo = ((prefix << space.b) | col) << shift
        hi = lo + (1 << shift)
        ids = self._sorted_ids
        i = bisect.bisect_left(ids, lo)
        if i < len(ids) and ids[i] < hi:
            survivor.table.consider(ids[i])

    def _repair_leaves(self, node: ChainNode) -> None:
        self._leaf_repairs += 1
        n = len(self._sorted_ids)
        if n <= 1:
            return
        idx = bisect.bisect_left(self._sorted_ids, node.node_id)
        for off in range(1, min(self.leaf_size + 1, n)):
            node.learn(self._sorted_ids[(idx + off) % n])
            node.learn(self._sorted_ids[(idx - off) % n])

    def owner_of(self, key: int) -> int:
        return min(self._sorted_ids, key=lambda nid: (self.space.distance(nid, key), nid))

    def bulk_owner_of(self, keys) -> list[int]:
        return [self.owner_of(int(k)) for k in keys]

    def neighbourhood(self, node_id: int) -> list[int]:
        return self.nodes[node_id].leaves.members()

    def expected_diameter(self) -> int:
        n = len(self.nodes)
        if n <= 1:
            return 1
        return max(1, math.ceil(math.log(n, self.space.digit_base)))

    def _route_decision(self, current: int, key: int) -> tuple[str, int | None]:
        return self.nodes[current].route_decision(key)

    def _on_stale(self, current: int, stale_id: int) -> None:
        node = self.nodes[current]
        node.forget(stale_id)
        self._repair_leaves(node)

    def repair_counts(self) -> dict[str, int]:
        return {"leaf_repairs": self._leaf_repairs, "slot_refills": self._slot_refills}
