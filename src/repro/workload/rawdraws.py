"""Scalar draws off a PCG64 ``Generator`` without a numpy call per draw.

``int(rng.integers(n))`` + ``rng.random()`` cost 2–3 µs of call overhead.
:class:`RawDraws` returns the same values from the same generator outputs,
read a window ahead with ``random_raw``, by numpy's own arithmetic on Python
ints (``tests/workload/test_rawdraws.py`` pins it to the real calls).  Until
the next ``sync()`` the ``Generator`` itself is ahead of the draws served.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RawDraws"]

_WINDOW = 4096


class RawDraws:
    """``integers`` / ``random`` / ``uniforms`` of ``rng``, value for value."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng, self._bitgen = rng, rng.bit_generator
        if type(self._bitgen) is not np.random.PCG64:  # other buffering, no advance() contract
            raise TypeError(f"RawDraws needs PCG64, got {type(self._bitgen).__name__}")
        self._window: list[int] = []  # outputs read ahead, next one at the tail
        self._pop = self._window.pop
        self._start = None  # bit-generator state before the window, if one is out

    def _refill(self) -> None:
        self.sync()
        start = self._start = self._bitgen.state
        self._has32, self._u32 = start["has_uint32"], start["uinteger"]
        self._window.extend(self._bitgen.random_raw(_WINDOW)[::-1].tolist())

    def sync(self) -> None:
        """Put the ``Generator`` bit-for-bit where the scalar calls would have left it."""
        if self._start is None:
            return
        bitgen = self._bitgen
        bitgen.state = self._start
        bitgen.advance(_WINDOW - len(self._window))  # also empties the 32-bit buffer
        bitgen.state = {**bitgen.state, "has_uint32": self._has32, "uinteger": self._u32}
        del self._window[:]
        self._start = None

    def _raw(self) -> int:
        try:
            return self._pop()
        except IndexError:
            self._refill()
            return self._pop()

    def random(self) -> float:
        """``rng.random()``: one output, its top 53 bits."""
        return (self._raw() >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        """``int(rng.integers(n))``, 1 <= n <= 2**32: the buffered 32-bit Lemire draw."""
        if not 1 < n <= 1 << 32:  # above, numpy takes its 64-bit path
            if n == 1:
                return 0  # numpy consumes nothing
            raise ValueError(f"RawDraws.integers covers 1 <= n <= 2**32, got {n}")
        if self._start is None:
            self._refill()  # until then the buffer lives in the generator
        threshold = (1 << 32) % n
        while True:
            if self._has32:  # the high half kept from the last fresh output
                self._has32, value = 0, self._u32
            else:  # low half of a fresh output first
                output = self._raw()
                self._has32, self._u32, value = 1, output >> 32, output & 0xFFFFFFFF
            m = value * n
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def uniforms(self, k: int) -> list[float]:
        """``rng.random(k)`` as a list: ``k`` consecutive outputs."""
        self.sync()
        return self._rng.random(k).tolist()
