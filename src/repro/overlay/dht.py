"""DHT key-placement layer over a structured overlay backend.

The paper stores a proxy-evicted object in its P2P client cache by hashing
the object's URL with SHA-1 into an ``objectId`` and placing it at the
client cache the overlay assigns that id (§4.1 — the numerically closest
``cacheId`` under Pastry, the key's successor under Chord).  This module
provides that mapping.

:meth:`Dht.owner` returns the destination cacheId for a key.  Results are
memoized per overlay *epoch* (membership version) because the simulator
resolves the same hot URLs millions of times; a membership change
invalidates the memo.  Hop statistics come from sampled full routes: every
``hop_sample_rate``-th memo miss also routes the key through the overlay
(:meth:`~repro.overlay.contract.OverlayBackend.route`) rather than paying
O(log N) per request.  The key itself is the SHA-1 objectId
:meth:`~repro.overlay.id_space.IdSpace.object_id` computes.

Separating "who owns this key" (pure placement, a function of membership
only, O(log N) via the sorted id list) from "how does a message get
there" (the backend's own routing geometry) mirrors how a real
deployment behaves: placement decides where an object lives, while
routing determines message cost.
"""

from __future__ import annotations

from .contract import OverlayBackend

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
            If > 0, every ``hop_sample_rate``-th memo miss of
            :meth:`owner` also performs full overlay routing, so hop
            statistics accumulate on ``overlay.stats`` without paying
            routing cost on every lookup.
            0 disables sampling (placement-only).
        """
        self.overlay = overlay
        self.hop_sample_rate = hop_sample_rate
        self._memo: dict[int, int] = {}
        self._memo_epoch = overlay.epoch
        self._calls = 0

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
