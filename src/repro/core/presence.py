"""Incrementally-maintained cross-cluster presence indexes.

Read literally, "which cooperating cluster holds object X?" is an
O(n_proxies) scan per miss — an SC miss probes each remote cache, and
steps 3–4 of Hier-GD's miss chain scan remote proxies and directories.
SC and Hier-GD's request engine invert that: a :class:`PresenceIndex`
maps each object to the set of clusters currently holding it, updated
incrementally at insert/evict time, so a miss costs one dict probe.
SC reads and writes its index inline (friend access to ``_holders``),
as Hier-GD's proxy step does.  (The scans survive as the naive models
of ``tests/integration/test_hotpath_equivalence.py``.  SC-EC, which
cannot be sharded, keeps the scan: its miss asks the other clusters'
caches directly, one dict probe per tier.)

Equivalence with the scan is exact because the scan visits clusters in
ascending index order, skipping the requester: the scan finds
:meth:`PresenceIndex.first_holder` (the smallest holder index other than
the requester), and issues one probe per cluster it visits — ``first``
probes below the requester, ``first + 1`` above it, and every peer when
nothing is found — so tier counts *and* message accounting stay
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Hashable, Iterable, Sequence

__all__ = ["PeerSurface", "PresenceIndex"]

_EMPTY: frozenset[int] = frozenset()


class PresenceIndex:
    """object → set of cluster indexes currently holding a copy."""

    __slots__ = ("_holders",)

    def __init__(self) -> None:
        self._holders: dict[Hashable, set[int]] = {}

    def add(self, obj: Hashable, cluster: int) -> None:
        s = self._holders.get(obj)
        if s is None:
            self._holders[obj] = {cluster}
        else:
            s.add(cluster)

    def discard(self, obj: Hashable, cluster: int) -> None:
        s = self._holders.get(obj)
        if s is not None:
            s.discard(cluster)
            if not s:
                del self._holders[obj]

    def holders(self, obj: Hashable) -> Iterable[int]:
        return self._holders.get(obj, _EMPTY)

    def first_holder(self, obj: Hashable, exclude: int) -> int | None:
        """Smallest holder index != ``exclude`` — what the ascending
        cluster scan would find first — or None."""
        s = self._holders.get(obj)
        if not s:
            return None
        best = None
        for c in s:
            if c != exclude and (best is None or c < best):
                best = c
        return best

    def __contains__(self, obj: Hashable) -> bool:
        return obj in self._holders

    def __len__(self) -> int:
        return len(self._holders)

    def as_dict(self) -> dict[Hashable, frozenset[int]]:
        """Snapshot for invariant tests (compare against brute force)."""
        return {obj: frozenset(s) for obj, s in self._holders.items()}


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

