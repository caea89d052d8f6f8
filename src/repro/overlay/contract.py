"""The backend contract every structured overlay must satisfy.

The paper builds its P2P client cache on Pastry (§4.1), but nothing in
the caching schemes above depends on *prefix* routing specifically —
they need exactly the surface captured by :class:`OverlayBackend`:

* **membership** — :meth:`~OverlayBackend.add_named` /
  :meth:`~OverlayBackend.bulk_add_named` joins,
  :meth:`~OverlayBackend.fail` departures, an
  :attr:`~OverlayBackend.epoch` counter bumped on every change (Hier-GD's
  placement and neighbour tables key off it);
* **placement** — :meth:`~OverlayBackend.owner_of` maps a key to the
  live node that stores it under the backend's ownership rule
  (numerically-closest for Pastry, successor-of-key for Chord), and
  :meth:`~OverlayBackend.bulk_owner_of` is the vectorised form the
  precomputed owner tables use;
* **routing** — :meth:`~OverlayBackend.route` moves a message hop by
  hop through the backend's own geometry, accumulating
  :class:`RouteStats`; delivery must agree with :meth:`owner_of`
  (asserted by the sampled placement validator);
* **neighbourhood** — :meth:`~OverlayBackend.neighbourhood` is the set
  of nodes adjacent to an owner in the backend's repair/replica
  structure (Pastry's leaf set, Chord's successor list), which Hier-GD
  uses for object diversion and PAST-style replication (§4.3).

The shared hop-by-hop driver lives here too: concrete backends supply a
*local* per-node decision (:meth:`~OverlayBackend._route_decision`) and
a stale-entry repair hook (:meth:`~OverlayBackend._on_stale`), and
:meth:`~OverlayBackend.route` runs the loop with a forwarding bound
derived from the backend's expected O(log N) diameter — tripping it
raises :class:`OverlayRoutingError` naming the backend and the route.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

import numpy as np

from .id_space import IdSpace

__all__ = [
    "RouteResult",
    "RouteStats",
    "OverlayRoutingError",
    "OverlayBackend",
]


@dataclass(frozen=True)
class RouteResult:
    """Outcome of routing one message.

    Attributes
    ----------
    root:
        NodeId of the delivery node (the key's root).
    hops:
        Number of forwarding steps taken (0 when the origin is the root).
    path:
        NodeIds visited, origin first, root last.
    """

    root: int
    hops: int
    path: tuple[int, ...]


@dataclass
class RouteStats:
    """Aggregate routing statistics: messages and their hop counts."""

    messages: int = 0
    total_hops: int = 0
    max_hops: int = 0

    def record(self, hops: int) -> None:
        self.messages += 1
        self.total_hops += hops
        if hops > self.max_hops:
            self.max_hops = hops


class OverlayRoutingError(RuntimeError):
    """A route exceeded the backend's derived forwarding bound.

    Healthy structured overlays converge in O(log N) hops; exceeding the
    bound (which already allows generous slack for repair retries) means
    the backend's routing state is corrupt.  The message names the
    backend, the key, the bound and the path walked so far.
    """

    def __init__(
        self,
        backend: str,
        key: str,
        bound: int,
        diameter: int,
        n_nodes: int,
        path: tuple[int, ...],
        format_id,
    ) -> None:
        self.backend = backend
        self.key = key
        self.bound = bound
        self.path = path
        shown = [format_id(p) for p in path[:8]]
        if len(path) > 8:
            shown.append(f"... ({len(path)} nodes)")
        super().__init__(
            f"{backend} routing for key {key} exceeded the derived bound of "
            f"{bound} hops (expected diameter {diameter} for {n_nodes} live "
            f"nodes) — corrupt routing state; path: {' -> '.join(shown)}"
        )


class OverlayBackend(ABC):
    """Contract between the caching schemes and a structured overlay.

    Concrete backends (:class:`~repro.overlay.network.Overlay` for
    Pastry, :class:`~repro.overlay.chord.ChordOverlay` for Chord) own a
    ``nodes`` mapping of live node state, a globally sorted id list
    (``_sorted_ids`` — the simulator's omniscient membership view, which
    repair converges against), a :class:`RouteStats` accumulator and the
    :attr:`epoch` counter.
    """

    #: Backend name, used in diagnostics, result extras and profiling.
    name: str = "overlay"

    space: IdSpace
    stats: RouteStats
    #: Bumped on every membership change; placement tables key off this.
    epoch: int
    nodes: dict[int, Any]
    _sorted_ids: list[int]

    # -- membership -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.nodes

    def node_ids(self) -> list[int]:
        """Live node ids in ascending order (a copy)."""
        return list(self._sorted_ids)

    @abstractmethod
    def add_named(self, name: str) -> Any:
        """Create and join a node whose id derives from ``name``.

        Returns the new node object (it exposes ``node_id``).
        """

    @abstractmethod
    def bulk_add_named(self, names: list[str]) -> list[Any]:
        """Add many named nodes at once, materialising the converged state."""

    @abstractmethod
    def fail(self, node_id: int) -> None:
        """Remove a node abruptly and repair the survivors' state."""

    # -- placement --------------------------------------------------------

    @abstractmethod
    def owner_of(self, key: int) -> int:
        """NodeId of the live node that owns ``key`` under this backend's
        placement rule.  Routing any key must deliver at this node."""

    @abstractmethod
    def bulk_owner_of(self, keys: np.ndarray) -> list[int]:
        """Vectorised :meth:`owner_of` over an object-dtype key array."""

    @abstractmethod
    def neighbourhood(self, node_id: int) -> list[int]:
        """Nodes adjacent to ``node_id`` in the backend's repair/replica
        structure (Pastry: leaf set; Chord: successor list).

        Hier-GD draws its §4.3 diversion and replication candidates from
        this set; the iteration order is part of the contract (it fixes
        which candidate wins free-space ties).
        """

    # -- routing ----------------------------------------------------------

    @abstractmethod
    def expected_diameter(self) -> int:
        """Expected routing diameter (hops) at the current size — the
        backend's O(log N) bound with its own base."""

    @property
    def max_route_hops(self) -> int:
        """Forwarding bound derived from the expected O(log N) diameter.

        The route loop also burns an iteration per stale-entry repair
        retry (a forget-and-retry does not advance the path), so the
        bound carries a generous multiple plus a floor rather than the
        diameter itself.  A healthy overlay never comes close; tripping
        the bound raises :class:`OverlayRoutingError`.
        """
        return 16 + 8 * max(1, self.expected_diameter())

    @abstractmethod
    def _route_decision(self, current: int, key: int) -> tuple[str, int | None]:
        """Local routing decision at node ``current`` for ``key``:
        ``("deliver", None)`` or ``("forward", next_id)``."""

    @abstractmethod
    def _on_stale(self, current: int, stale_id: int) -> None:
        """Repair ``current``'s local state after forwarding to
        ``stale_id`` failed (dead node or routing loop): drop the entry
        and refill from live state so the retried decision progresses."""

    def route(self, key: int, start: int | None = None, record: bool = True) -> RouteResult:
        """Route a message for ``key`` from ``start`` (default: any node).

        ``record=False`` routes without touching :attr:`stats` — used by
        placement-table validation, which must not perturb the sampled
        hop statistics.
        """
        return self._route_internal(key, start, record=record)

    def _route_internal(self, key: int, start: int | None, record: bool) -> RouteResult:
        if not self.nodes:
            raise RuntimeError(f"{self.name} overlay is empty")
        if start is None:
            start = self._sorted_ids[0]
        if start not in self.nodes:
            raise KeyError(f"start node {self.space.format_id(start)} not live")
        current = start
        path = [current]
        visited = {current}
        bound = self.max_route_hops
        for _ in range(bound):
            action, nxt = self._route_decision(current, key)
            if action == "deliver":
                break
            assert nxt is not None
            if nxt not in self.nodes or nxt in visited:
                # Stale entry (failed node) or loop: local repair — drop
                # the bad entry and retry the decision from the same node.
                self._on_stale(current, nxt)
                continue
            current = nxt
            path.append(current)
            visited.add(current)
        else:
            raise OverlayRoutingError(
                backend=self.name,
                key=self.space.format_id(key),
                bound=bound,
                diameter=self.expected_diameter(),
                n_nodes=len(self),
                path=tuple(path),
                format_id=self.space.format_id,
            )
        result = RouteResult(root=current, hops=len(path) - 1, path=tuple(path))
        if record:
            self.stats.record(result.hops)
        return result

    # -- diagnostics ------------------------------------------------------

    def repair_counts(self) -> dict[str, int]:
        """Cumulative repair-event counters (backend-specific names),
        surfaced by ``--profile`` alongside routing statistics."""
        return {}

    # -- shared helpers for concrete backends -----------------------------

    def _insert_sorted(self, node_id: int) -> None:
        bisect.insort(self._sorted_ids, node_id)

    def _remove_sorted(self, node_id: int) -> None:
        idx = bisect.bisect_left(self._sorted_ids, node_id)
        self._sorted_ids.pop(idx)
