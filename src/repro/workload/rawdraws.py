"""ProWGen's out-of-stack candidates, decoded off PCG64 a window at a time.

A candidate is ``int(rng.integers(n))`` then ``rng.random()``, the alias
table resolving the pair to an object id.  :class:`RawDraws` reads a
window of the generator's outputs with ``random_raw`` and decodes it in
numpy by numpy's own arithmetic: ``integers(n)`` is the buffered 32-bit
Lemire draw (the low half of a fresh output, the high half kept for the
next draw), so two candidates take three outputs; ``random()`` is
``(output >> 11) * 2**-53`` of one.  A window stops before its first
Lemire rejection; a candidate that rejects, or that would start on a
half the generator already holds, is drawn by those numpy calls instead.
Until the next ``sync`` the ``Generator`` itself is ahead of the
candidates read (``tests/workload/test_rawdraws.py`` pins all of it to
the real calls).
"""

from __future__ import annotations

import numpy as np

__all__ = ["RawDraws"]

#: Outputs read per window: 2 048 output triples, 4 096 candidates.
_WINDOW = 3 << 11


class RawDraws:
    """The candidate stream of ``rng``, value for value, in :attr:`cands`.

    The emit loop reads ``cands[k]`` and counts ``k`` itself; ``sync``,
    ``uniforms`` and ``resolve`` take that count.  A method that moves
    the generator clears ``cands`` in place, so a read past it raises
    ``IndexError``, and the loop refills.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng, self._bitgen = rng, rng.bit_generator
        if type(self._bitgen) is not np.random.PCG64:  # other buffering, no advance() contract
            raise TypeError(f"RawDraws needs PCG64, got {type(self._bitgen).__name__}")
        self.cands: list[int] = []  # object ids of the window's unread part, in order
        self._start = None  # bit-generator state before the window, if one is out
        self._offset = 0  # window candidates before cands[0]

    def refill(self, n: int, prob: np.ndarray, alias: np.ndarray) -> None:
        """Replace the read-out :attr:`cands` by the next window's, drawn
        as ``integers(n)`` + ``random()`` over the alias tables."""
        if not 1 <= n <= 1 << 32:  # above, numpy takes its 64-bit path
            raise ValueError(f"RawDraws covers 1 <= n <= 2**32, got {n}")
        self.sync(len(self.cands))
        bitgen = self._bitgen
        start = bitgen.state
        if start["has_uint32"] and n > 1:  # the first draw takes the held half
            self.cands[:] = [self._scalar(n, prob, alias)]
            return
        raw = bitgen.random_raw(_WINDOW)
        if n == 1:  # integers(1) consumes nothing and is 0
            self._halves, objs, rand = None, np.zeros(_WINDOW, np.int64), raw
        else:
            triples = raw.reshape(-1, 3)
            self._halves = halves = triples[:, 0]
            values = np.empty(2 * len(halves), np.uint64)
            values[0::2], values[1::2] = halves & 0xFFFFFFFF, halves >> 32
            lemire, rand = values * n, triples[:, 1:].ravel()
            rejected = np.flatnonzero((lemire & 0xFFFFFFFF) < (1 << 32) % n)
            if len(rejected):
                if not rejected[0]:  # the first draw rejects
                    bitgen.state = start
                    self.cands[:] = [self._scalar(n, prob, alias)]
                    return
                lemire, rand = lemire[: rejected[0]], rand[: rejected[0]]
            objs = (lemire >> 32).astype(np.int64)
        self._start, self._offset = start, 0
        self._objs, self._u = objs, (rand >> 11) * 2.0**-53
        self.cands[:] = np.where(self._u < prob[objs], objs, alias[objs]).tolist()

    def resolve(self, read: int, prob: np.ndarray, alias: np.ndarray) -> None:
        """Re-resolve the candidates after the first ``read`` of
        :attr:`cands` over new alias tables; the draws stay."""
        if self._start is None:  # a one-candidate window, read
            self.cands.clear()
            return
        self._offset = at = self._offset + read
        objs, u = self._objs[at:], self._u[at:]
        self.cands[:] = np.where(u < prob[objs], objs, alias[objs]).tolist()

    def sync(self, read: int) -> None:
        """Put the ``Generator`` bit-for-bit where the scalar calls would
        have left it after ``read`` of :attr:`cands`, and drop the rest."""
        self.cands.clear()
        if self._start is None:
            return
        bitgen, start = self._bitgen, self._start
        self._start, drawn = None, self._offset + read
        has32, u32 = start["has_uint32"], start["uinteger"]
        if self._halves is None:  # integers(1): one output per candidate
            consumed = drawn
        else:  # three outputs a pair; an odd candidate leaves a high half held
            consumed = drawn + (drawn + 1) // 2
            has32 = drawn & 1
            if drawn:  # numpy keeps the last half it held after using it
                u32 = int(self._halves[(drawn - 1) // 2] >> 32)
        bitgen.state = start
        bitgen.advance(consumed)  # also empties the 32-bit buffer
        bitgen.state = {**bitgen.state, "has_uint32": has32, "uinteger": u32}

    def uniforms(self, read: int, k: int) -> list[float]:
        """``rng.random(k)`` as a list, after ``read`` of :attr:`cands`."""
        self.sync(read)
        return self._rng.random(k).tolist()

    def _scalar(self, n: int, prob: np.ndarray, alias: np.ndarray) -> int:
        """One candidate by numpy's scalar calls, off the synced generator."""
        obj = int(self._rng.integers(n))
        return obj if self._rng.random() < prob[obj] else int(alias[obj])
