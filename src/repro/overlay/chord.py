"""Textbook Chord backend for the overlay contract.

Chord (Stoica et al., SIGCOMM 2001) organises nodes on the same SHA-1
identifier ring the Pastry backend uses, but with *successor* placement
and *finger-table* routing:

* **ownership** — a key is stored at ``successor(key)``: the first live
  node whose id is clockwise-equal-or-after the key (vs Pastry's
  numerically-closest rule, which may pick the counter-clockwise
  neighbour).
* **fingers** — node ``n`` keeps ``bits`` fingers, finger ``i`` =
  ``successor(n + 2**i)``; greedy routing forwards to the known node
  that makes the most clockwise progress without overshooting the key,
  giving O(log₂ N) hops.
* **successor lists** — each node tracks its ``r`` immediate clockwise
  successors (the replica/repair neighbourhood, Chord's analogue of
  Pastry's leaf set) plus its predecessor; these are kept eagerly
  correct on membership change (the converged outcome of Chord's
  ``stabilize``), which is what keeps routing *correct* under churn.
* **lazy finger repair** — fingers are NOT eagerly fixed on failure or
  join.  A stale finger pointing at a dead node is repaired when a
  route actually trips over it (the contract's ``_on_stale`` hook
  recomputes exactly the slots naming the dead node); a finger that
  merely misses a newcomer costs extra hops, never correctness, and
  heals on the next full rebuild.  :meth:`ChordOverlay.repair_counts`
  tallies both repair kinds for ``--profile``.

Everything is deterministic — node state is a pure function of the live
membership (plus which stale entries routes have tripped over), with no
randomness anywhere, so two identical runs produce identical results
(the overlay gate asserts this).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .contract import OverlayBackend, RouteStats
from .id_space import IdSpace

__all__ = ["DEFAULT_SUCCESSOR_LIST_SIZE", "ChordNode", "ChordOverlay"]

#: Default successor-list length r.  Chord suggests r = O(log N); 16
#: matches Pastry's default leaf-set size so the two backends offer
#: Hier-GD's diversion the same number of neighbourhood candidates.
DEFAULT_SUCCESSOR_LIST_SIZE = 16


@dataclass
class ChordNode:
    """One Chord node: id, successor list, predecessor, finger table."""

    node_id: int
    space: IdSpace
    #: The r immediate clockwise successors, nearest first.
    successors: list[int] = field(default_factory=list)
    #: Immediate counter-clockwise neighbour (None in a singleton ring).
    predecessor: int | None = None
    #: finger[i] = successor(node_id + 2**i); None where the interval
    #: wraps back to this node (singleton ring).
    fingers: list[int | None] = field(default_factory=list)

    def known_nodes(self) -> list[int]:
        """Union of fingers and successor list (deduplicated)."""
        known = {f for f in self.fingers if f is not None}
        known.update(self.successors)
        if self.predecessor is not None:
            known.add(self.predecessor)
        known.discard(self.node_id)
        return list(known)


class ChordOverlay(OverlayBackend):
    """A live Chord ring: membership, successor/finger state, routing."""

    name = "chord"

    def __init__(
        self,
        space: IdSpace | None = None,
        successor_list_size: int = DEFAULT_SUCCESSOR_LIST_SIZE,
    ) -> None:
        if successor_list_size < 1:
            raise ValueError("successor_list_size must be >= 1")
        self.space = space or IdSpace()
        self.successor_list_size = successor_list_size
        self.nodes: dict[int, ChordNode] = {}
        self._sorted_ids: list[int] = []
        self.stats = RouteStats()
        self.epoch = 0
        self._finger_repairs = 0
        self._successor_repairs = 0

    # -- ring arithmetic --------------------------------------------------

    def _successor_id(self, key: int) -> int:
        """First live node clockwise-equal-or-after ``key`` (wraps)."""
        ids = self._sorted_ids
        idx = bisect.bisect_left(ids, key)
        return ids[idx % len(ids)]

    def _in_cw_interval(self, key: int, lo: int, hi: int) -> bool:
        """True if ``key`` lies in the clockwise half-open interval
        ``(lo, hi]`` on the ring."""
        size = self.space.size
        return (key - lo) % size <= (hi - lo) % size and key != lo

    # -- node state construction ------------------------------------------

    def _neighbour_state(self, node: ChordNode) -> None:
        """Set ``node``'s successor list and predecessor from the live
        ring (the converged outcome of Chord's ``stabilize``)."""
        ids = self._sorted_ids
        n = len(ids)
        idx = bisect.bisect_left(ids, node.node_id)
        node.successors = [
            ids[(idx + off) % n]
            for off in range(1, min(self.successor_list_size, n - 1) + 1)
        ]
        node.predecessor = ids[(idx - 1) % n] if n > 1 else None

    def _finger_state(self, node: ChordNode) -> None:
        """Build the full finger table from the live ring."""
        me = node.node_id
        size = self.space.size
        fingers: list[int | None] = []
        for i in range(self.space.bits):
            target = self._successor_id((me + (1 << i)) % size)
            fingers.append(target if target != me else None)
        node.fingers = fingers

    def _init_node(self, node: ChordNode) -> None:
        self._neighbour_state(node)
        self._finger_state(node)

    # -- membership -------------------------------------------------------

    def add_named(self, name: str) -> ChordNode:
        """Create and join a node whose id derives from ``name``."""
        return self.join(self.space.node_id(name))

    def join(self, node_id: int) -> ChordNode:
        """Join a new node.

        The newcomer builds its own state in full; existing nodes get
        the eager neighbour repair only — the successor lists and
        predecessors of the ring-adjacent window are recomputed (what
        ``stabilize`` converges to), while every other node's fingers
        stay as they are.  A survivor's finger that should now name the
        newcomer keeps pointing at the next node along instead, which
        routing tolerates (the candidate filter never overshoots a key),
        so placement stays exact at the cost of the occasional extra hop.
        """
        if node_id in self.nodes:
            raise ValueError(f"node {self.space.format_id(node_id)} already in ring")
        if not self.space.contains(node_id):
            raise ValueError("node id outside id space")
        new = ChordNode(node_id, self.space)
        self.nodes[node_id] = new
        self._insert_sorted(node_id)
        self.epoch += 1
        self._init_node(new)
        self._repair_window(node_id)
        return new

    def bulk_add_named(self, names: list[str]) -> list[ChordNode]:
        """Add many named nodes at once, materialising the converged ring."""
        created: list[ChordNode] = []
        for name in names:
            node_id = self.space.node_id(name)
            if node_id in self.nodes:
                raise ValueError(
                    f"node {self.space.format_id(node_id)} already in ring"
                )
            if not self.space.contains(node_id):
                raise ValueError("node id outside id space")
            node = ChordNode(node_id, self.space)
            self.nodes[node_id] = node
            created.append(node)
        self._sorted_ids = sorted(self.nodes)
        self.epoch += len(created)
        for node in self.nodes.values():
            self._init_node(node)
        return created

    def fail(self, node_id: int) -> None:
        """Remove a node abruptly.

        Successor lists and predecessors of the affected ring window are
        repaired eagerly (routing correctness rests on them); fingers
        naming the dead node are left stale and repaired lazily when a
        route trips over them (:meth:`_on_stale`).
        """
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {self.space.format_id(node_id)}")
        del self.nodes[node_id]
        self._remove_sorted(node_id)
        self.epoch += 1
        if not self.nodes:
            return
        self._repair_window(node_id)

    def _repair_window(self, node_id: int) -> None:
        """Eagerly refresh neighbour state around a membership change.

        The nodes whose successor list or predecessor can name (or
        should now name) ``node_id`` are its ``r`` ring predecessors and
        its immediate successor; recompute just that window from the
        live ring.
        """
        ids = self._sorted_ids
        n = len(ids)
        self._successor_repairs += 1
        idx = bisect.bisect_left(ids, node_id)
        window = min(self.successor_list_size + 1, n)
        seen: set[int] = set()
        for off in range(window):
            for nid in (ids[(idx - 1 - off) % n], ids[(idx + off) % n]):
                if nid not in seen:
                    seen.add(nid)
                    self._neighbour_state(self.nodes[nid])

    # -- placement --------------------------------------------------------

    def owner_of(self, key: int) -> int:
        """Chord's placement rule: ``successor(key)``."""
        if not self._sorted_ids:
            raise RuntimeError("chord overlay is empty")
        return self._successor_id(key)

    def bulk_owner_of(self, keys: np.ndarray) -> list[int]:
        """Vectorised ``successor(key)`` via one searchsorted pass."""
        ids = self.node_ids()
        if not ids:
            raise RuntimeError("chord overlay is empty")
        arr = np.empty(len(ids), dtype=object)
        arr[:] = ids
        keys = np.asarray(keys, dtype=object)
        pos = np.searchsorted(arr, keys, side="left")
        return arr[pos % len(ids)].tolist()

    def neighbourhood(self, node_id: int) -> list[int]:
        """Chord's repair/replica neighbourhood: the successor list
        (nearest clockwise first) — where Chord stores its replicas."""
        return list(self.nodes[node_id].successors)

    # -- routing ----------------------------------------------------------

    def expected_diameter(self) -> int:
        """Finger routing halves the remaining distance per hop:
        ``ceil(log2 N)``."""
        n = len(self.nodes)
        if n <= 1:
            return 1
        return max(1, math.ceil(math.log2(n)))

    def _route_decision(self, current: int, key: int) -> tuple[str, int | None]:
        """Greedy Chord forwarding with local information only.

        Deliver when the key falls in ``(predecessor, current]``;
        otherwise forward to the known node (fingers + successors) that
        makes the most clockwise progress *without overshooting* the
        key, falling back to the immediate successor — which owns the
        key whenever no closer candidate exists.
        """
        node = self.nodes[current]
        me = node.node_id
        if key == me or node.predecessor is None:
            return "deliver", None
        if self._in_cw_interval(key, node.predecessor, me):
            return "deliver", None
        size = self.space.size
        span = (key - me) % size  # clockwise distance to the key
        best: int | None = None
        best_d = 0
        for cand in node.successors:
            d = (cand - me) % size
            if 0 < d <= span and d > best_d:
                best, best_d = cand, d
        for cand in node.fingers:
            if cand is None:
                continue
            d = (cand - me) % size
            if 0 < d <= span and d > best_d:
                best, best_d = cand, d
        if best is not None:
            return "forward", best
        # No known node inside (me, key]: the immediate successor is the
        # key's owner (key in (me, successor)).
        return "forward", node.successors[0]

    def _on_stale(self, current: int, stale_id: int) -> None:
        """Lazy repair at route time: the hook Chord's stale fingers heal
        through.

        Every finger slot naming ``stale_id`` is recomputed from the
        live ring; if the successor list names it too (possible only
        when membership changed since the eager window repair ran — e.g.
        a routing loop dropped a live-but-visited node), the neighbour
        state is rebuilt as well.
        """
        node = self.nodes[current]
        repaired = False
        for i, f in enumerate(node.fingers):
            if f == stale_id:
                target = self._successor_id(
                    (node.node_id + (1 << i)) % self.space.size
                )
                node.fingers[i] = target if target != node.node_id else None
                self._finger_repairs += 1
                repaired = True
        if stale_id in node.successors or node.predecessor == stale_id:
            self._neighbour_state(node)
            self._successor_repairs += 1
            repaired = True
        if not repaired:
            # Routing looped through a node known only transitively; drop
            # nothing but refresh fingers so the retried decision differs.
            self._finger_state(node)
            self._finger_repairs += 1

    def repair_counts(self) -> dict[str, int]:
        return {
            "finger_repairs": self._finger_repairs,
            "successor_repairs": self._successor_repairs,
        }
