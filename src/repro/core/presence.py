"""Incrementally-maintained cross-cluster presence indexes.

Read literally, "which cooperating cluster holds object X?" is an
O(n_proxies) scan per miss — an SC miss probes each remote cache, and
steps 3–4 of Hier-GD's miss chain scan remote proxies and directories.
SC and Hier-GD's request engine invert that: a :class:`PresenceIndex`
maps each object to the clusters currently holding it, updated
incrementally at insert/evict time, so a miss costs one dict probe.
SC reads and writes its index inline (friend access to ``_holders``),
as Hier-GD's proxy step does.  (The scans survive as the naive models
of ``tests/integration/test_hotpath_equivalence.py``.  SC-EC, which
cannot be sharded, keeps the scan: its miss asks the other clusters'
caches directly, one dict probe per tier.)

The holders are an ``int`` bitmask, bit ``c`` for cluster ``c``, and an
object no cluster holds has no key: an update is one ``|`` or ``^`` on
an int, with no set per object, and "held by anyone but me" is ``mask &
~(1 << me)``.  Python ints are unbounded, so any cluster id fits (a
shard view's global ids included).

Equivalence with the scan is exact because the scan visits clusters in
ascending index order, skipping the requester: the scan finds
:meth:`PresenceIndex.first_holder` — the lowest set bit of the mask
once the requester's bit is cleared, ``(m & -m).bit_length() - 1`` —
and issues one probe per cluster it visits: ``first`` probes below the
requester, ``first + 1`` above it, and every peer when nothing is found.
So tier counts *and* message accounting stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Hashable, Sequence

__all__ = ["PeerSurface", "PresenceIndex"]


class PresenceIndex:
    """object → bitmask of the cluster indexes currently holding a copy."""

    __slots__ = ("_holders",)

    def __init__(self) -> None:
        self._holders: dict[Hashable, int] = {}

    def add(self, obj: Hashable, cluster: int) -> None:
        holders = self._holders
        holders[obj] = holders.get(obj, 0) | 1 << cluster

    def discard(self, obj: Hashable, cluster: int) -> None:
        holders = self._holders
        mask = holders.get(obj, 0)
        bit = 1 << cluster
        if mask & bit:
            if mask == bit:
                del holders[obj]
            else:
                holders[obj] = mask ^ bit

    def first_holder(self, obj: Hashable, exclude: int) -> int | None:
        """Smallest holder index != ``exclude`` — what the ascending
        cluster scan would find first — or None."""
        mask = self._holders.get(obj, 0) & ~(1 << exclude)
        return (mask & -mask).bit_length() - 1 if mask else None

    def __contains__(self, obj: Hashable) -> bool:
        return obj in self._holders

    def __len__(self) -> int:
        return len(self._holders)

    def as_dict(self) -> dict[Hashable, frozenset[int]]:
        """Snapshot for invariant tests (compare against brute force)."""
        return {
            obj: frozenset(c for c in range(mask.bit_length()) if mask >> c & 1)
            for obj, mask in self._holders.items()
        }


@dataclass(frozen=True)
class PeerSurface:
    """A run's cooperative surface (:meth:`CachingScheme.peer_surface`):
    the cross-cluster state a shard peer view (:mod:`repro.shard.view`)
    keeps in step with clusters other processes run.  NC's is the default."""

    #: Each shared index with, per local cluster, the live membership it
    #: mirrors (read through ``set`` at round boundaries only).
    indexes: Sequence[tuple[PresenceIndex, Sequence[Collection[int]]]] = ()
    #: ``rekey(ids, total)``: local cluster ``i`` becomes ``ids[i]`` of
    #: ``total``.  Called once, while the indexes are still empty.
    rekey: Callable[[list[int], int], None] = lambda ids, total: None
    #: ``on_push(i, obj)``: the owning side of a remote write — a peer was
    #: served ``obj`` out of local cluster ``i``; False if it has gone.
    #: The requesting side calls ``self._queue_remote_push(request_index,
    #: src, dst, obj)``, which the view binds.
    on_push: Callable[[int, int], bool] | None = None

