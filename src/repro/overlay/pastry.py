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
key).  The membership rule — which slot and which leaf-set side a node
belongs in — is :func:`offer` (learning nodes) and :func:`purge`
(forgetting one), arithmetic over many nodes per call; when membership
changes, and message movement, live in :mod:`repro.overlay.network`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from .id_space import IdSpace

__all__ = ["DEFAULT_LEAF_SET_SIZE", "LeafSet", "RoutingTable", "PastryNode", "offer", "purge"]

#: Pastry's typical leaf-set size (the paper quotes l = 16, §4.3).
DEFAULT_LEAF_SET_SIZE = 16


class LeafSet:
    """The ``l`` nodes with ids numerically closest to ``owner``.

    Maintained as two sorted-by-ring-proximity lists: ``smaller`` (counter
    clockwise neighbours) and ``larger`` (clockwise neighbours), each at
    most ``l/2`` long, with parallel distance lists so an insertion is a
    single bisect instead of a sort-per-add.  Distances on one side are
    unique (the cw distance from a fixed owner is injective), so bisect
    insertion reproduces the previous stable-sort order exactly.  A node
    belongs on the clockwise side when its cw distance is at most its ccw
    distance; :func:`offer` is the one place members enter.
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
        ``l/2`` entries) is taken to mean this node sees the whole ring
        segment on that side, so coverage is granted.  That premise fails
        when the other side is full and dropped a node (ROADMAP item
        10(e)).  The extremes' distances are the last entries of the
        parallel distance lists.
        """
        half = self.half
        hi = self._ldist[-1] if len(self._ldist) == half else None
        lo = self._sdist[-1] if len(self._sdist) == half else None
        if lo is None and hi is None:
            return True
        size = self.space.size
        cw_key = (key - self.owner) % size
        ccw_key = size - cw_key
        if cw_key <= ccw_key:
            return hi is None or cw_key <= hi
        return lo is None or ccw_key <= lo

    def closest_to(self, key: int) -> int:
        """Member (or owner) numerically closest to ``key``; a tie goes
        to the lower id."""
        size = self.space.size
        best = self.owner
        best_d = (best - key) % size
        if best_d > size - best_d:
            best_d = size - best_d
        for node in self.smaller + self.larger:
            d = (node - key) % size
            if d > size - d:
                d = size - d
            if d < best_d or (d == best_d and node < best):
                best, best_d = node, d
        return best


class RoutingTable:
    """Pastry prefix routing table: ``ndigits`` rows × ``2**b`` columns.

    The slot a node is eligible for is row ``p`` = shared-prefix-length
    (owner, node) and column = the node's digit ``p`` (:meth:`slot`: the
    XOR's bit length and a shift).
    """

    __slots__ = ("owner", "space", "rows")

    def __init__(self, owner: int, space: IdSpace) -> None:
        self.owner = owner
        self.space = space
        self.rows: list[list[int | None]] = [
            [None] * space.digit_base for _ in range(space.ndigits)
        ]
        # The column matching the owner's own digit in each row is by
        # definition the owner itself; keep it None (never routed to).

    def slot(self, node_id: int) -> tuple[int, int]:
        """``(row, column)`` of the slot ``node_id`` is eligible for
        (``node_id`` must differ from the owner)."""
        space = self.space
        b = space.b
        p = (space.bits - (self.owner ^ node_id).bit_length()) // b
        return p, (node_id >> ((space.ndigits - 1 - p) * b)) & (space.digit_base - 1)

    def consider(self, node_id: int, prefer=None) -> bool:
        """Offer ``node_id`` for the (single) slot it is eligible for.

        Returns True if the table changed.  When the slot is occupied,
        ``prefer(candidate, incumbent)`` decides whether to replace —
        Pastry's locality heuristic supplies a network-proximity
        comparison there; without one the incumbent is kept for
        determinism.
        """
        if node_id == self.owner:
            return False
        p, col = self.slot(node_id)
        row = self.rows[p]
        incumbent = row[col]
        if incumbent is None:
            row[col] = node_id
            return True
        if prefer is not None and incumbent != node_id and prefer(node_id, incumbent):
            row[col] = node_id
            return True
        return False

    def replace(self, node_id: int, replacement: int | None) -> bool:
        """Remove ``node_id`` wherever it appears, substituting ``replacement``.

        Used on node departure; the replacement (if any) must be eligible
        for the same slot, otherwise the slot is cleared.
        """
        if node_id == self.owner:
            return False
        p, col = self.slot(node_id)
        row = self.rows[p]
        if row[col] != node_id:
            return False
        good = (
            replacement is not None
            and replacement != self.owner
            and self.slot(replacement) == (p, col)
        )
        row[col] = replacement if good else None
        return True

    def remove(self, node_id: int) -> bool:
        return self.replace(node_id, None)

    def next_hop(self, key: int) -> int | None:
        """Routing-table candidate for ``key``: one digit more of prefix."""
        if key == self.owner:
            return None
        p, col = self.slot(key)
        return self.rows[p][col]

    def entries(self) -> list[int]:
        """All populated entries (deduplicated, arbitrary order)."""
        seen: set[int] = set()
        width = self.space.digit_base
        for row in self.rows:
            if row.count(None) == width:
                continue  # most rows of a large id space stay empty
            for e in row:
                if e is not None:
                    seen.add(e)
        return list(seen)


@dataclass
class PastryNode:
    """A Pastry overlay node: id + routing table + leaf set.

    In the reproduction each *client cache* in a client cluster is one
    Pastry node (the paper assigns each client cache a unique ``cacheId``,
    §4.1).  ``prefer`` is the node's routing-table replacement heuristic
    (see :meth:`RoutingTable.consider`); ``None`` keeps the incumbent.
    """

    node_id: int
    space: IdSpace
    leaf_size: int = DEFAULT_LEAF_SET_SIZE
    prefer: Callable[[int, int], bool] | None = None
    table: RoutingTable = field(init=False)
    leaves: LeafSet = field(init=False)

    def __post_init__(self) -> None:
        if not self.space.contains(self.node_id):
            raise ValueError(f"node id {self.node_id} outside id space")
        self.table = RoutingTable(self.node_id, self.space)
        self.leaves = LeafSet(self.node_id, self.leaf_size, self.space)

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


def offer(
    space: IdSpace, nodes: Iterable[PastryNode], node_ids: Sequence[int]
) -> None:
    """Fold each of ``node_ids``, in order, into every node of ``nodes``.

    An offered node goes to the one routing-table slot it is eligible for
    (first offer wins unless the node's :attr:`~PastryNode.prefer` says
    otherwise) and to its side of the leaf set, which keeps the ``l/2``
    ring-closest.  This is Pastry's whole membership rule, and every
    caller shares it: a join's state transfer (many offers, one node), its
    announcement (one offer, every node) and a leaf-set repair are one
    call each, with the slot and side arithmetic inline.  An offer no
    closer than a full side's last member is dropped before any list
    moves — a bisect would have put it last and the trim popped it.
    """
    bits, b, size = space.bits, space.b, space.size
    last, mask = space.ndigits - 1, space.digit_base - 1
    for node in nodes:
        me = node.node_id
        prefer = node.prefer
        rows = node.table.rows
        leaves = node.leaves
        half = leaves.half
        for node_id in node_ids:
            if node_id == me:
                continue
            if prefer is None:
                p = (bits - (me ^ node_id).bit_length()) // b
                row = rows[p]
                col = (node_id >> ((last - p) * b)) & mask
                if row[col] is None:
                    row[col] = node_id
            else:
                node.table.consider(node_id, prefer=prefer)
            d = (node_id - me) % size
            if d <= size - d:
                side, dists = leaves.larger, leaves._ldist
            else:
                side, dists, d = leaves.smaller, leaves._sdist, size - d
            if len(dists) == half and d >= dists[-1]:
                continue  # farther than a full side, or its last member
            i = bisect_left(dists, d)
            if i < len(dists) and dists[i] == d:
                continue  # already a member
            side.insert(i, node_id)
            dists.insert(i, d)
            if len(side) > half:
                side.pop()
                dists.pop()


def purge(
    space: IdSpace, nodes: Iterable[PastryNode], node_id: int
) -> list[tuple[PastryNode, bool, bool]]:
    """Drop ``node_id`` from every node of ``nodes``.

    A node can hold it in one routing-table slot and on one side of its
    leaf set, both found by arithmetic (``node_id`` is none of ``nodes``).
    Returns ``(node, was_leaf, vacated_slot)`` for each node that held
    it, in ``nodes`` order, so the caller can repair exactly those.
    """
    bits, b, size = space.bits, space.b, space.size
    last, mask = space.ndigits - 1, space.digit_base - 1
    held = []
    for node in nodes:
        me = node.node_id
        p = (bits - (me ^ node_id).bit_length()) // b
        row = node.table.rows[p]
        col = (node_id >> ((last - p) * b)) & mask
        vacated = row[col] == node_id
        if vacated:
            row[col] = None
        leaves = node.leaves
        d = (node_id - me) % size
        was_leaf = node_id in (leaves.larger if d <= size - d else leaves.smaller)
        if was_leaf:
            leaves.remove(node_id)
        if vacated or was_leaf:
            held.append((node, was_leaf, vacated))
    return held
