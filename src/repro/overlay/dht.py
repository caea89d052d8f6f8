"""DHT key-placement layer over a structured overlay backend.

The paper stores a proxy-evicted object in its P2P client cache by hashing
the object's URL with SHA-1 into an ``objectId`` and placing it at the
client cache the overlay assigns that id (§4.1 — the numerically closest
``cacheId`` under Pastry, the key's successor under Chord).  This module
provides that mapping:

* :meth:`Dht.owner` — the destination cacheId for a key.  Results are
  memoized per overlay *epoch* (membership version) because the simulator
  resolves the same hot URLs millions of times; a membership change
  invalidates the memo.
* :meth:`Dht.route` — full hop-by-hop overlay routing for the same key,
  used when the experiment wants hop statistics rather than only the
  destination (the simulation samples routes rather than paying O(log N)
  per request — see ``hop_sample_rate``).
* :meth:`Dht.object_id` — SHA-1 URL hashing into the overlay's id space.

Separating "who owns this key" (pure placement, a function of membership
only, O(log N) via the sorted id list) from "how does a message get
there" (the backend's own routing geometry) mirrors how a real
deployment behaves: placement decides where an object lives, while
routing determines message cost.
"""

from __future__ import annotations

from .contract import OverlayBackend, RouteResult

__all__ = ["Dht"]


class Dht:
    """Key → owning node resolution with per-epoch memoization."""

    def __init__(self, overlay: OverlayBackend, hop_sample_rate: int = 0) -> None:
        """
        Parameters
        ----------
        overlay:
            The live overlay backend to resolve against.
        hop_sample_rate:
            If > 0, every ``hop_sample_rate``-th :meth:`owner` call also
            performs full overlay routing so hop statistics accumulate on
            ``overlay.stats`` without paying routing cost on every lookup.
            0 disables sampling (placement-only).
        """
        self.overlay = overlay
        self.hop_sample_rate = hop_sample_rate
        self._memo: dict[int, int] = {}
        self._memo_epoch = overlay.epoch
        self._calls = 0

    def object_id(self, url: str) -> int:
        """SHA-1 hash of the URL, truncated into the overlay's id space."""
        return self.overlay.space.object_id(url)

    def owner(self, key: int) -> int:
        """NodeId owning ``key`` under the backend's placement rule."""
        overlay = self.overlay
        memo = self._memo
        if self._memo_epoch != overlay.epoch:
            memo.clear()
            self._memo_epoch = overlay.epoch
        cached = memo.get(key)
        if cached is not None:
            return cached
        root = memo[key] = overlay.owner_of(key)
        self._calls += 1
        if self.hop_sample_rate and self._calls % self.hop_sample_rate == 0:
            # Sampled full routing purely for hop statistics; delivery node
            # must agree with placement (asserted in tests).
            overlay.route(key)
        return root

    def route(self, key: int, start: int | None = None) -> RouteResult:
        """Full overlay routing (records hop statistics)."""
        return self.overlay.route(key, start=start)
