"""FC's coordinated copy store, read literally: the model FC is held to.

:class:`~repro.core.schemes.full.FcScheme` keeps every cached copy in
one ``HeapDict`` ordered by ``(density, seq)`` and reads sizes, values
and the heap's head inline.  This model keeps the same copies in a
plain dict and does everything the slow, obvious way:

* **admission** scans every copy for the minimum ``(density, seq)``,
  pops it while the newcomer is denser and does not fit yet, and on a
  rejection puts the popped copies back with their own ``(density,
  seq)``;
* **values** are recomputed from the traces' own request counts:
  ``f_c·Tc`` for a copy at cluster ``c``, plus ``f_total·(Ts − Tc)`` for
  the primary;
* **promotion** hands the primary to the most-referenced survivor (on a
  tie, the first in the holder set's iteration order, as ``max`` picks).

Every push takes the next number of one counter, as in the heap, so the
model's ``{copy: (density, seq)}`` must equal the records of FC's
``_copies._live`` after every request.  :class:`NaiveFc` and
:class:`NaiveFcEc` are registry-compatible schemes built on it (FC-EC's
tiers ride on the store's placement calls).
"""

from __future__ import annotations

from collections import Counter

from repro.core.schemes import FcEcScheme, FcScheme

__all__ = ["NaiveFc", "NaiveFcEc"]


class NaiveFc(FcScheme):
    """FC with the copy store replaced by the literal model above."""

    def __init__(self, config, traces, transport=None):
        super().__init__(config, traces, transport)
        #: Per cluster, object -> requests in its trace.
        self.counts = [Counter(t.object_ids.tolist()) for t in traces]
        #: (obj, cluster) -> (density, seq): the store's order.
        self.copies: dict[tuple[int, int], tuple[float, int]] = {}
        self.seq = 0
        #: Copies rejected admissions popped and put back.
        self.requeued = 0

    def copy_value(self, obj, cluster, primary):
        value = self.counts[cluster][obj] * self._benefit_local
        if primary:
            value += sum(c[obj] for c in self.counts) * self._benefit_remote
        return value

    def push(self, copy, density):
        self.seq += 1
        self.copies[copy] = (density, self.seq)

    def _add_copy(self, obj, cluster):
        primary = obj not in self._holders
        self._holders.setdefault(obj, set()).add(cluster)
        if primary:
            self._primary[obj] = cluster
        self._local[cluster].add(obj)
        self._placement_updates += 1
        value = self.copy_value(obj, cluster, primary)
        size = self._size_of(obj)
        self._used += size
        self.push((obj, cluster), value / size)
        return value

    def _drop_copy(self, obj, cluster):
        self._placement_updates += 1
        self.copies.pop((obj, cluster), None)
        size = self._size_of(obj)
        self._used -= size
        self._local[cluster].discard(obj)
        holders = self._holders[obj]
        holders.discard(cluster)
        if not holders:
            del self._holders[obj]
            del self._primary[obj]
            return None
        if self._primary[obj] != cluster:
            return None
        heir = max(holders, key=lambda q: self.counts[q][obj])
        self._primary[obj] = heir
        value = self.copy_value(obj, heir, True)
        self.push((obj, heir), value / size)
        return value

    def _consider_copy(self, obj, cluster):
        size = self._size_of(obj)
        if size > self.capacity:
            return
        if self._used + size <= self.capacity:
            self._add_copy(obj, cluster)
            return
        density = self.copy_value(obj, cluster, obj not in self._holders) / size
        popped = []
        freed = 0
        while self._used - freed + size > self.capacity:
            victim = min(self.copies, key=self.copies.__getitem__)
            record = self.copies[victim]
            if record[0] >= density:
                self.copies.update(popped)
                self.requeued += len(popped)
                return
            del self.copies[victim]
            popped.append((victim, record))
            freed += self._size_of(victim[0])
        for (victim_obj, victim_cluster), _record in popped:
            self._drop_copy(victim_obj, victim_cluster)
        self._add_copy(obj, cluster)


class NaiveFcEc(FcEcScheme, NaiveFc):
    """FC-EC over the literal store: ``FcEcScheme``'s placement hooks call
    the model's through ``super()``."""
