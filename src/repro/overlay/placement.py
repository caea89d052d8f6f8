"""Vectorised DHT placement: whole object→owner tables in one pass.

Most Hier-GD runs resolve each object's owner on first touch — SHA-1,
then an O(log N) sorted-ring search, memoised per overlay epoch
(:class:`repro.overlay.dht.Dht`).  That is already cheap per call, but
Squirrel and Hier-GD's unit-size fault-free static runs go further: they
precompute the *entire* mapping for a cluster up front with

* one batched SHA-1 pass over all object URLs
  (:func:`object_ids_for_urls`), and
* the backend's vectorised ownership resolution
  (:meth:`~repro.overlay.contract.OverlayBackend.bulk_owner_of` — a
  single ``numpy.searchsorted`` over the sorted nodeId ring, plus
  whatever tie-break the backend's placement rule needs),

turning per-request dict probes + hashing into one table lookup.  A
sampled subset of keys is still routed hop-by-hop through the live
backend so the mean-hops statistic survives, and every sampled delivery
is asserted against the table — placement and routing must agree,
whichever backend is live.

Identifiers are Python ints wider than 64 bits, so the arrays use
``dtype=object``; ``searchsorted`` works on those via ordinary
comparisons, and the vectorised modular arithmetic stays exact.
"""

from __future__ import annotations

from hashlib import sha1

import numpy as np

from .contract import OverlayBackend
from .id_space import IdSpace

__all__ = ["object_ids_for_urls", "build_owner_table"]


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
