"""Pastry node state: routing table and leaf set.

Implements the per-node state of the Pastry overlay (Rowstron & Druschel,
Middleware 2001) that the paper uses to federate client browser caches into
a P2P client cache (§4.1):

* **routing table** — ``ndigits`` rows by ``2**b`` columns; entry
  ``(r, c)`` holds a node whose id shares the first ``r`` digits with this
  node's id and whose digit ``r`` equals ``c``.  Prefix routing resolves at
  least one digit per hop, giving ``ceil(log_{2**b} N)`` expected hops.
* **leaf set** — the ``l`` nodes numerically closest to this node
  (``l/2`` on each side of the ring).  The leaf set both terminates routing
  and defines the replica/diversion neighbourhood used by Hier-GD's object
  diversion (§4.3).

A :class:`PastryNode` is pure state plus *local* decisions (next hop for a
key); membership and message movement live in
:mod:`repro.overlay.network`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .id_space import IdSpace

__all__ = ["DEFAULT_LEAF_SET_SIZE", "LeafSet", "RoutingTable", "PastryNode"]

#: Pastry's typical leaf-set size (the paper quotes l = 16, §4.3).
DEFAULT_LEAF_SET_SIZE = 16


class LeafSet:
    """The ``l`` nodes with ids numerically closest to ``owner``.

    Maintained as two sorted-by-ring-proximity lists: ``smaller`` (counter
    clockwise neighbours) and ``larger`` (clockwise neighbours), each at
    most ``l/2`` long, with parallel distance lists so an insertion is a
    single bisect instead of a sort-per-add.  Distances on one side are
    unique (the cw distance from a fixed owner is injective), so bisect
    insertion reproduces the previous stable-sort order exactly.
    """

    __slots__ = ("owner", "half", "space", "smaller", "larger", "_sdist", "_ldist")

    def __init__(self, owner: int, size: int, space: IdSpace) -> None:
        if size < 2 or size % 2 != 0:
            raise ValueError("leaf set size must be an even integer >= 2")
        self.owner = owner
        self.half = size // 2
        self.space = space
        self.smaller: list[int] = []  # ascending ccw distance from owner
        self.larger: list[int] = []  # ascending cw distance from owner
        self._sdist: list[int] = []  # ccw distances parallel to smaller
        self._ldist: list[int] = []  # cw distances parallel to larger

    def members(self) -> list[int]:
        """All leaf-set members (no particular order, owner excluded)."""
        return self.smaller + self.larger

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.smaller or node_id in self.larger

    def __len__(self) -> int:
        return len(self.smaller) + len(self.larger)

    def add(self, node_id: int) -> None:
        """Consider ``node_id`` for membership on its side of the ring."""
        if node_id == self.owner or node_id in self:
            return
        cw = (node_id - self.owner) % self.space.size
        ccw = self.space.size - cw
        if cw <= ccw:
            self._insert(self.larger, self._ldist, node_id, cw)
        else:
            self._insert(self.smaller, self._sdist, node_id, ccw)

    def _insert(self, side: list[int], dists: list[int], node_id: int, dist: int) -> None:
        i = bisect_left(dists, dist)
        side.insert(i, node_id)
        dists.insert(i, dist)
        if len(side) > self.half:
            side.pop()
            dists.pop()

    def remove(self, node_id: int) -> bool:
        """Remove a (failed or departed) node; True if it was a member."""
        for side, dists in ((self.smaller, self._sdist), (self.larger, self._ldist)):
            try:
                i = side.index(node_id)
            except ValueError:
                continue
            side.pop(i)
            dists.pop(i)
            return True
        return False

    def covers(self, key: int) -> bool:
        """True if ``key`` falls within the leaf-set's ring segment.

        Pastry terminates routing when the key lies between the extreme
        leaf-set members; the numerically closest node in the set (or the
        owner) is then the destination.  An incomplete side (fewer than
        ``l/2`` entries) means this node sees the whole ring segment on
        that side, so coverage is conservatively granted — that keeps tiny
        overlays (N <= l) correct.
        """
        if not self.smaller and not self.larger:
            return True
        lo = self.smaller[-1] if len(self.smaller) == self.half else None
        hi = self.larger[-1] if len(self.larger) == self.half else None
        if lo is None and hi is None:
            return True
        cw_key = self.space.cw_distance(self.owner, key)
        ccw_key = self.space.size - cw_key
        if cw_key <= ccw_key:
            return hi is None or cw_key <= self.space.cw_distance(self.owner, hi)
        return lo is None or ccw_key <= self.space.size - self.space.cw_distance(self.owner, lo)

    def closest_to(self, key: int) -> int:
        """Member (or owner) numerically closest to ``key``."""
        best = self.owner
        best_d = self.space.distance(self.owner, key)
        for node in self.members():
            d = self.space.distance(node, key)
            if d < best_d or (d == best_d and node < best):
                best, best_d = node, d
        return best


class RoutingTable:
    """Pastry prefix routing table: ``ndigits`` rows × ``2**b`` columns."""

    __slots__ = ("owner", "space", "rows")

    def __init__(self, owner: int, space: IdSpace) -> None:
        self.owner = owner
        self.space = space
        self.rows: list[list[int | None]] = [
            [None] * space.digit_base for _ in range(space.ndigits)
        ]
        # The column matching the owner's own digit in each row is by
        # definition the owner itself; keep it None (never routed to).

    def entry(self, row: int, col: int) -> int | None:
        return self.rows[row][col]

    def consider(self, node_id: int, prefer=None) -> bool:
        """Offer ``node_id`` for the (single) slot it is eligible for.

        Returns True if the table changed.  The eligible slot is row
        ``p`` = shared-prefix-length(owner, node) and column = node's digit
        ``p``.  When the slot is occupied, ``prefer(candidate, incumbent)``
        decides whether to replace — Pastry's locality heuristic supplies
        a network-proximity comparison there; without one the incumbent is
        kept for determinism.
        """
        if node_id == self.owner:
            return False
        p = self.space.prefix_len(self.owner, node_id)
        col = self.space.digit(node_id, p)
        incumbent = self.rows[p][col]
        if incumbent is None:
            self.rows[p][col] = node_id
            return True
        if prefer is not None and incumbent != node_id and prefer(node_id, incumbent):
            self.rows[p][col] = node_id
            return True
        return False

    def replace(self, node_id: int, replacement: int | None) -> bool:
        """Remove ``node_id`` wherever it appears, substituting ``replacement``.

        Used on node failure/departure; the replacement (if any) must be
        eligible for the same slot, otherwise the slot is cleared.
        """
        changed = False
        p = self.space.prefix_len(self.owner, node_id)
        col = self.space.digit(node_id, p)
        if self.rows[p][col] == node_id:
            good = (
                replacement is not None
                and replacement != self.owner
                and self.space.prefix_len(self.owner, replacement) == p
                and self.space.digit(replacement, p) == col
            )
            self.rows[p][col] = replacement if good else None
            changed = True
        return changed

    def remove(self, node_id: int) -> bool:
        return self.replace(node_id, None)

    def next_hop(self, key: int) -> int | None:
        """Routing-table candidate for ``key``: one digit more of prefix."""
        p = self.space.prefix_len(self.owner, key)
        if p >= self.space.ndigits:  # key == owner
            return None
        return self.rows[p][self.space.digit(key, p)]

    def entries(self) -> list[int]:
        """All populated entries (deduplicated, arbitrary order)."""
        seen: set[int] = set()
        for row in self.rows:
            for e in row:
                if e is not None:
                    seen.add(e)
        return list(seen)



@dataclass
class PastryNode:
    """A Pastry overlay node: id + routing table + leaf set.

    In the reproduction each *client cache* in a client cluster is one
    Pastry node (the paper assigns each client cache a unique ``cacheId``,
    §4.1).
    """

    node_id: int
    space: IdSpace
    leaf_size: int = DEFAULT_LEAF_SET_SIZE
    table: RoutingTable = field(init=False)
    leaves: LeafSet = field(init=False)

    def __post_init__(self) -> None:
        if not self.space.contains(self.node_id):
            raise ValueError(f"node id {self.node_id} outside id space")
        self.table = RoutingTable(self.node_id, self.space)
        self.leaves = LeafSet(self.node_id, self.leaf_size, self.space)

    def learn(self, node_id: int, prefer=None) -> None:
        """Incorporate knowledge of another live node into local state.

        ``prefer`` is the routing-table replacement heuristic (see
        :meth:`RoutingTable.consider`); the leaf set is defined purely by
        id-space proximity and ignores it.
        """
        if node_id == self.node_id:
            return
        self.table.consider(node_id, prefer=prefer)
        self.leaves.add(node_id)

    def forget(self, node_id: int) -> None:
        """Drop a failed/departed node from local state."""
        self.table.remove(node_id)
        self.leaves.remove(node_id)

    def route_decision(self, key: int) -> tuple[str, int | None]:
        """Local Pastry routing decision for ``key``.

        Returns ``("deliver", None)`` when this node is the key's root,
        ``("forward", next_id)`` otherwise.  Follows the three-case Pastry
        procedure: leaf-set delivery, routing-table prefix hop, then the
        rare-case fallback to *any* known node strictly closer to the key.
        """
        if key == self.node_id:
            return "deliver", None
        # Case 1: key inside the leaf-set segment -> numerically closest.
        if self.leaves.covers(key):
            closest = self.leaves.closest_to(key)
            if closest == self.node_id:
                return "deliver", None
            return "forward", closest
        # Case 2: routing table entry with a longer shared prefix.
        hop = self.table.next_hop(key)
        if hop is not None:
            return "forward", hop
        # Case 3 (rare): any known node closer to the key with prefix >= ours.
        my_p = self.space.prefix_len(self.node_id, key)
        my_d = self.space.distance(self.node_id, key)
        best: int | None = None
        best_d = my_d
        for cand in self.known_nodes():
            if self.space.prefix_len(cand, key) >= my_p:
                d = self.space.distance(cand, key)
                if d < best_d:
                    best, best_d = cand, d
        if best is not None:
            return "forward", best
        return "deliver", None  # no better node known: we are the root

    def known_nodes(self) -> list[int]:
        """Union of routing-table entries and leaf-set members."""
        known = set(self.table.entries())
        known.update(self.leaves.members())
        known.discard(self.node_id)
        return list(known)
