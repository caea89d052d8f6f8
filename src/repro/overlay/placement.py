"""Vectorised DHT placement: whole object→owner tables in one pass.

Squirrel and Hier-GD precompute the *entire* object → owner mapping for a
cluster up front with

* one batched SHA-1 pass over all object URLs
  (:func:`object_ids_for_urls`), and
* the backend's vectorised ownership resolution
  (:meth:`~repro.overlay.contract.OverlayBackend.bulk_owner_of` — a
  single ``numpy.searchsorted`` over the sorted nodeId ring, plus
  whatever tie-break the backend's placement rule needs),

turning per-request hashing and ring searches into one table lookup.
:func:`build_owner_table` also routes a sampled subset of keys hop-by-hop
through the live backend so the mean-hops statistic survives, and
asserts every sampled delivery against the table — placement and routing
must agree, whichever backend is live.

A membership change moves few owners.  Both backends place a key by its
two ring neighbours alone (the live ids on either side of its insertion
point: Pastry takes the closer, Chord the clockwise one), so a join or a
failure at node ``x`` can move only the keys strictly between ``x``'s
live ring neighbours.  :class:`KeyRing` finds those keys by bisecting one
sorted key list, and a whole table stays exact by re-deriving just them.

Identifiers are Python ints wider than 64 bits, so the arrays use
``dtype=object``; ``searchsorted`` works on those via ordinary
comparisons, and the vectorised modular arithmetic stays exact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from hashlib import sha1

import numpy as np

from .contract import OverlayBackend
from .id_space import IdSpace

__all__ = ["object_ids_for_urls", "build_owner_table", "KeyRing"]


def object_ids_for_urls(urls: list[str], space: IdSpace) -> np.ndarray:
    """objectIds for many URLs at once; matches :meth:`IdSpace.object_id`.

    Returns an object-dtype array of Python ints (ids exceed 64 bits).
    """
    bits = space.bits
    shift = 160 - bits
    if shift >= 0:
        raw = [
            int.from_bytes(sha1(u.encode("utf-8")).digest(), "big") >> shift
            for u in urls
        ]
    else:
        raw = [
            int.from_bytes(sha1(u.encode("utf-8")).digest(), "big") << -shift
            for u in urls
        ]
    out = np.empty(len(raw), dtype=object)
    out[:] = raw
    return out


def build_owner_table(
    overlay: OverlayBackend,
    keys: np.ndarray | list[int],
    sample_rate: int = 0,
    record_stats: bool = True,
) -> list[int]:
    """Owner nodeId per key via one vectorised resolution pass.

    Delegates to the backend's :meth:`bulk_owner_of`, which reproduces
    its scalar ``owner_of`` exactly for every key (Pastry's
    ``(ring_distance, nodeId)`` tie-break; Chord's successor-of-key).

    When ``sample_rate > 0``, every ``sample_rate``-th key is also routed
    hop-by-hop through the live backend; the delivery node is asserted
    against the table entry (placement/routing agreement — a mismatch
    means corrupt routing state) and, when ``record_stats``, the hops
    feed ``overlay.stats`` so the mean-hops extra stays populated.
    """
    keys = np.asarray(keys, dtype=object)
    owners = overlay.bulk_owner_of(keys)
    if sample_rate > 0:
        for i in range(sample_rate - 1, len(owners), sample_rate):
            result = overlay.route(int(keys[i]), record=record_stats)
            if result.root != owners[i]:
                raise RuntimeError(
                    f"{overlay.name} routing disagrees with the placement "
                    f"table for key {overlay.space.format_id(int(keys[i]))}: "
                    f"routed to {overlay.space.format_id(result.root)}, table "
                    f"says {overlay.space.format_id(owners[i])}"
                )
    return owners


class KeyRing:
    """Object keys in ring order: which objects a membership change moves.

    Built once per run over every object's key (one sort); each
    :meth:`moved_by` is two bisections.
    """

    __slots__ = ("_keys", "_objs")

    def __init__(self, keys: np.ndarray | list[int]) -> None:
        order = sorted(range(len(keys)), key=keys.__getitem__)
        #: The keys, ascending, and the object each belongs to.
        self._keys = [int(keys[obj]) for obj in order]
        self._objs = order

    def moved_by(self, overlay: OverlayBackend, node_id: int) -> list[tuple[int, int]]:
        """``(object, key)`` for every key whose owner can change when
        ``node_id`` has just joined or left ``overlay``.

        Those are the keys strictly between the node's live ring
        neighbours (module docstring), the arc wrapping through 0 where
        it does — all the way round when one other node is live, and
        every key when none is.  A key equal to either neighbour is owned
        by it before and after.
        """
        ids = overlay._sorted_ids
        n = len(ids)
        i = bisect_left(ids, node_id)
        live = i < n and ids[i] == node_id
        if n == live:
            return list(zip(self._objs, self._keys))
        lo = ids[i - 1]
        hi = ids[(i + live) % n]
        keys = self._keys
        start, stop = bisect_right(keys, lo), bisect_left(keys, hi)
        if lo < hi:
            return list(zip(self._objs[start:stop], keys[start:stop]))
        # The arc wraps through 0: above ``lo``, then below ``hi``.
        return list(zip(self._objs[start:], keys[start:])) + list(
            zip(self._objs[:stop], keys[:stop])
        )
