"""Overlay membership and message routing for the simulated Pastry network.

:class:`Overlay` is the Pastry backend of the
:class:`~repro.overlay.contract.OverlayBackend` contract.  It owns the
set of live :class:`~repro.overlay.pastry.PastryNode` instances forming
one P2P client cache (one per client cluster in the paper) and moves
messages between them:

* :meth:`Overlay.join` implements the outcome of Pastry's join protocol —
  the new node initialises its routing table from the nodes on the route
  from its bootstrap to its id's current root, copies the root's leaf set,
  and announces itself so existing nodes fold it into their state.
* :meth:`Overlay.fail` removes a node and repairs the affected leaf sets
  and routing-table slots (the *result* of Pastry's repair protocol, not
  its message exchange — the paper's simulator does the same).
* :meth:`Overlay.route` performs hop-by-hop prefix routing and returns the
  delivery node with the hop count, feeding the paper's
  ``ceil(log_{2**b} N)`` hop-efficiency claim (§4.1).  The loop itself
  is the contract's shared driver; Pastry supplies the per-node
  decision and the stale-entry repair.

The overlay also maintains a globally sorted id list so tests can check
each delivery against the ground-truth *numerically closest* node, and so
placement resolves a key in O(log N) and a whole owner table in one
vectorised pass.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .contract import OverlayBackend, RouteResult, RouteStats
from .id_space import IdSpace
from .pastry import DEFAULT_LEAF_SET_SIZE, PastryNode, offer, purge

__all__ = ["RouteResult", "RouteStats", "Overlay"]


class Overlay(OverlayBackend):
    """A live Pastry overlay: membership, state maintenance, routing."""

    name = "pastry"

    def __init__(
        self,
        space: IdSpace | None = None,
        leaf_size: int = DEFAULT_LEAF_SET_SIZE,
    ) -> None:
        self.space = space or IdSpace()
        self.leaf_size = leaf_size
        self.nodes: dict[int, PastryNode] = {}
        self._sorted_ids: list[int] = []
        self.stats = RouteStats()
        #: Bumped on every membership change; placement tables key off this.
        self.epoch = 0
        #: Repair-event tallies (see :meth:`repair_counts`).
        self._leaf_repairs = 0
        self._slot_refills = 0

    def _new_node(self, node_id: int) -> PastryNode:
        """A fresh node, refused if its id is live or outside the space."""
        if node_id in self.nodes:
            raise ValueError(f"node {self.space.format_id(node_id)} already in overlay")
        if not self.space.contains(node_id):
            raise ValueError("node id outside id space")
        return PastryNode(node_id, self.space, self.leaf_size)

    # -- membership -------------------------------------------------------

    def add_named(self, name: str) -> PastryNode:
        """Create and join a node whose id derives from ``name``."""
        return self.join(self.space.node_id(name))

    def bulk_add_named(self, names: list[str]) -> list[PastryNode]:
        """Add many named nodes at once, materialising the converged state.

        Equivalent to sequential :meth:`add_named` calls for everything the
        simulation semantics depend on: membership, the sorted id list and
        every leaf set.  Incremental joins announce each newcomer to all
        live nodes, so each leaf set converges to the ``l/2`` ring-closest
        neighbours per side regardless of join order — exactly what this
        builds directly (and LeafSet stores each side sorted by distance,
        so even the list layout matches).  Routing tables are filled by
        offering every node to every node; first-offer-wins slot contention
        can resolve differently than under join order, so only *sampled
        hop statistics* may differ — routing correctness and DHT ownership
        do not.  Both paths do O(N^2) work.  Measured on one core of a
        2-core shared host (medians of 15 builds of ``cluster0/cache{k}``
        names), 100 nodes take ~8 ms here against ~22 ms by one-by-one
        joins, and 200 nodes ~23 ms against ~61 ms.  Squirrel and
        Hier-GD's unit-size fault-free static runs build their clusters
        this way.
        """
        created: list[PastryNode] = []
        for name in names:
            node = self._new_node(self.space.node_id(name))
            self.nodes[node.node_id] = node
            created.append(node)
        self._sorted_ids = sorted(self.nodes)
        self.epoch += len(created)
        ids = self._sorted_ids
        n = len(ids)
        space = self.space
        bits = space.bits
        b = space.b
        ndigits = bits // b
        mask = (1 << b) - 1
        size = 1 << bits
        offer_span = range(1, min(self.leaf_size + 1, n))
        for node in self.nodes.values():
            me = node.node_id
            idx = bisect.bisect_left(ids, me)
            # Leaf sets: only ring-adjacent nodes can be members, so offer
            # up to leaf_size neighbours per side; each side ends up with
            # the l/2 ring-closest of the offers whatever the order, so
            # fill the sides directly (same final state as ``offer``,
            # ascending-distance layout included).
            offers = {ids[(idx + off) % n] for off in offer_span}
            offers.update(ids[(idx - off) % n] for off in offer_span)
            offers.discard(me)
            cw_side: list[tuple[int, int]] = []
            ccw_side: list[tuple[int, int]] = []
            for cand in offers:
                cw = (cand - me) % size
                ccw = size - cw
                if cw <= ccw:
                    cw_side.append((cw, cand))
                else:
                    ccw_side.append((ccw, cand))
            cw_side.sort()
            ccw_side.sort()
            leaves = node.leaves
            half = leaves.half
            leaves.larger = [c for _, c in cw_side[:half]]
            leaves._ldist = [d for d, _ in cw_side[:half]]
            leaves.smaller = [c for _, c in ccw_side[:half]]
            leaves._sdist = [d for d, _ in ccw_side[:half]]
            # Routing table: offer everyone (the converged join gossip).
            # The first eligible offer wins, so the slot fill is
            # RoutingTable.consider with the prefix and digit arithmetic
            # inlined.
            rows = node.table.rows
            for other in ids:
                if other == me:
                    continue
                p = (bits - (me ^ other).bit_length()) // b
                row = rows[p]
                col = (other >> ((ndigits - 1 - p) * b)) & mask
                if row[col] is None:
                    row[col] = other
        return created

    def join(self, node_id: int) -> PastryNode:
        """Join a new node, initialising state per Pastry's join protocol.

        The new node X asks a bootstrap A to route a join message to X's
        id; X builds routing-table row ``i`` from the ``i``-th node on the
        path, takes its leaf set from the delivery node Z, then announces
        itself to every node it learned about (and, transitively, the
        announcement reaches all nodes whose state should include X —
        simulated here by offering X to all nodes whose leaf set or
        eligible routing slot it affects).
        """
        new = self._new_node(node_id)
        if self.nodes:
            bootstrap = self._sorted_ids[0]
            result = self._route_internal(node_id, start=bootstrap, record=False)
            # Row-by-row state transfer from the nodes along the join path
            # (the root last), then the leaf set seeded from the root's: one
            # ordered offer list (first offer wins a routing slot).
            offers: list[int] = []
            for hop_id in result.path:
                offers.append(hop_id)
                offers += self.nodes[hop_id].known_nodes()
            offers += self.nodes[result.root].leaves.members()
            offer(self.space, (new,), offers)
            # Announce: all live nodes fold the newcomer into their state.
            # (Pastry sends X's state to the nodes in X's tables; their
            # repair gossip reaches the rest. We apply the converged
            # outcome directly.)
            offer(self.space, self.nodes.values(), (node_id,))
        self.nodes[node_id] = new
        self._insert_sorted(node_id)
        self.epoch += 1
        return new

    def fail(self, node_id: int) -> None:
        """Remove a node and repair the survivors' state.

        Leaf-set repair contacts the live nodes adjacent on the ring;
        routing-table repair refills a vacated slot with a live eligible
        node (what Pastry's lazy repair converges to — §2.3 of the Pastry
        paper: ask a same-row peer for its entry).  Survivors that only
        learned the dead node via gossip are covered too: the sweep
        purges it from every routing table and leaf set, and the vacated
        table slot is refilled when any eligible live node exists.
        """
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {self.space.format_id(node_id)}")
        del self.nodes[node_id]
        self._remove_sorted(node_id)
        self.epoch += 1
        # Each survivor's repairs touch only its own state, so they can
        # follow the whole sweep.
        for survivor, was_leaf, vacated in purge(self.space, self.nodes.values(), node_id):
            if was_leaf:
                self._repair_leaves(survivor)
            if vacated:
                self._refill_slot(survivor, node_id)

    def _refill_slot(self, survivor: PastryNode, dead_id: int) -> None:
        """Refill the routing-table slot ``dead_id`` vacated at ``survivor``.

        The slot is row ``p`` = shared-prefix-length(survivor, dead) and
        column = the dead node's digit ``p``; every eligible replacement
        shares exactly that prefix-plus-digit, i.e. occupies one
        contiguous id interval, found by bisecting the sorted live ids.
        The first live id in that interval fills the slot.
        """
        self._slot_refills += 1
        space = self.space
        table = survivor.table
        p, col = table.slot(dead_id)
        shift = space.bits - (p + 1) * space.b
        # The survivor's first p digits followed by the dead node's digit.
        prefix = (survivor.node_id >> (space.bits - p * space.b)) if p else 0
        lo = ((prefix << space.b) | col) << shift
        hi = lo + (1 << shift)
        ids = self._sorted_ids
        i = bisect.bisect_left(ids, lo)
        if i < len(ids) and ids[i] < hi:
            table.consider(ids[i])

    def _repair_leaves(self, node: PastryNode) -> None:
        """Refill a node's leaf set from ring-adjacent live nodes."""
        self._leaf_repairs += 1
        ids = self._sorted_ids
        n = len(ids)
        if n <= 1:
            return
        idx = bisect.bisect_left(ids, node.node_id)
        # Offer up to leaf_size neighbours on each side, nearest first;
        # the leaf set keeps only the closest l/2 per side.
        offers: list[int] = []
        for off in range(1, min(self.leaf_size + 1, n)):
            offers.append(ids[(idx + off) % n])
            offers.append(ids[(idx - off) % n])
        offer(self.space, (node,), offers)

    # -- placement --------------------------------------------------------

    def numerically_closest(self, key: int) -> int:
        """Ground-truth root for ``key``: live node minimising ring distance.

        The two ring neighbours of the key's insertion point are compared
        by ``(ring distance, nodeId)``: a key midway between two nodes
        goes to the lower nodeId.
        """
        ids = self._sorted_ids
        if not ids:
            raise RuntimeError("overlay is empty")
        idx = bisect.bisect_left(ids, key)
        left, right = ids[idx - 1], ids[idx % len(ids)]
        size = self.space.size
        dl = (key - left) % size
        if dl > size - dl:
            dl = size - dl
        dr = (right - key) % size
        if dr > size - dr:
            dr = size - dr
        return left if dl < dr or (dl == dr and left < right) else right

    #: Pastry's placement rule is the numerically closest live node (bound
    #: directly: re-deriving an owner enters one overlay frame).
    owner_of = numerically_closest

    def bulk_owner_of(self, keys: np.ndarray) -> list[int]:
        """Vectorised :meth:`numerically_closest` for every key.

        The two ring candidates around each key's insertion point are
        compared by ``(ring_distance, nodeId)`` — the same tie-break the
        scalar ``min`` uses — over object-dtype arrays (ids exceed 64
        bits, so the modular arithmetic must stay exact).
        """
        ids = self.node_ids()
        if not ids:
            raise RuntimeError("overlay is empty")
        arr = np.empty(len(ids), dtype=object)
        arr[:] = ids
        keys = np.asarray(keys, dtype=object)
        n = len(ids)
        size = self.space.size
        pos = np.searchsorted(arr, keys)
        left = arr[(pos - 1) % n]
        right = arr[pos % n]
        dl = (left - keys) % size
        dl = np.minimum(dl, size - dl)
        dr = (right - keys) % size
        dr = np.minimum(dr, size - dr)
        pick_left = (dl < dr) | ((dl == dr) & (left < right))
        return np.where(pick_left, left, right).tolist()

    def neighbourhood(self, node_id: int) -> list[int]:
        """Pastry's repair/replica neighbourhood: the leaf set
        (``members()`` order — counter-clockwise side first, each side in
        ascending ring distance)."""
        return self.nodes[node_id].leaves.members()

    # -- routing ----------------------------------------------------------

    def expected_diameter(self) -> int:
        """Pastry resolves one base-``2**b`` digit per hop:
        ``ceil(log_{2**b} N)``."""
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
        return {
            "leaf_repairs": self._leaf_repairs,
            "slot_refills": self._slot_refills,
        }
