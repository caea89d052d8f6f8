"""The counting Bloom filter behind the proxy's P2P-cache lookup directory.

The paper proposes two lookup-directory representations (§4.2): an exact
hashtable of objectIds and a **Bloom filter**, which trades memory for a
tunable false-positive ratio (false positives send the proxy on a futile
redirect into the P2P client cache).  The directory must support
deletions (objects are evicted from client caches), which a plain
bit-array Bloom filter cannot do, so this module implements the
**counting Bloom filter** the directory runs.

Implementation notes
--------------------
* Hashing uses the standard double-hashing scheme of Kirsch & Mitzenmacher:
  ``h_i(x) = h1(x) + i * h2(x) mod m`` with ``h1``/``h2`` the little-endian
  halves of one 128-bit blake2b digest.  The contract is frozen
  (``tests/bloom/GOLDEN_indices.json``): simulated false positives, and so
  every golden result, depend on it bit for bit.
* Keys are non-negative ints of any width (the simulator passes trace
  object indexes; anything with ``__index__``, e.g. ``numpy.int64``, is
  the same key as its ``int``), ``str`` (UTF-8) or ``bytes``.
* A directory is asked about the same few objects all run long, so the
  filter keeps a memo ``key -> indices`` and hashes a key once while it is
  hot; the memo is emptied wholesale at :data:`_MEMO_CAP` entries.  An
  ``int`` key is looked up in the memo inline, so a memoised operation is
  one Python frame.
* Sizing helpers (:func:`optimal_num_bits`, :func:`optimal_num_hashes`)
  implement the textbook formulas m = -n ln p / (ln 2)^2 and
  k = (m/n) ln 2.
* The filter keeps one slot per element of a plain ``list`` of small
  ints — a 4-bit sticky-saturating counter 0-15 — read and written by
  plain list subscripts at 8 B a slot; :meth:`~CountingBloomFilter.memory_bytes`
  reports the modelled packed layout (§4.2's trade), 4 bits a slot.
"""

from __future__ import annotations

import hashlib
import math
import operator

__all__ = ["optimal_num_bits", "optimal_num_hashes", "CountingBloomFilter"]

#: Entries a filter's ``key -> indices`` memo holds before it is emptied:
#: above the 10 000 objects of the largest experiment scale.  An entry is a
#: dict slot, its key, a k-tuple and its ints: ~320 B (``tracemalloc``, k = 7,
#: 959 slots), so at most ~5 MiB per filter (the ledger run's ~0.45 MiB).
_MEMO_CAP = 1 << 14

#: ``5.0 == 5`` and ``numpy.int64(5) == 5`` as dict keys too, so a key of
#: any other type is reduced to one of these (or refused) before the memo.
_EXACT_KEY_TYPES = frozenset({int, str, bytes})


def optimal_num_bits(capacity: int, fp_rate: float) -> int:
    """Bits needed for ``capacity`` keys at target false-positive ``fp_rate``."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    if not 0.0 < fp_rate < 1.0:
        raise ValueError("fp_rate must be in (0, 1)")
    m = -capacity * math.log(fp_rate) / (math.log(2) ** 2)
    return max(8, int(math.ceil(m)))


def optimal_num_hashes(num_bits: int, capacity: int) -> int:
    """Hash-function count minimising false positives for the given sizing."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    k = (num_bits / capacity) * math.log(2)
    return max(1, int(round(k)))


def _canonical(key: object) -> int | bytes:
    """The exact-typed key that hashes like ``key`` (a subclass or an index)."""
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, bytes):
        return bytes(key)
    try:
        return int(operator.index(key))
    except TypeError:
        raise TypeError(f"unsupported key type {type(key).__name__}") from None


def _key_bytes(key: int | str | bytes) -> bytes:
    if type(key) is bytes:
        return key
    if type(key) is str:
        return key.encode("utf-8")
    # Fixed-width little-endian encoding of arbitrary non-negative ints.
    if key < 0:
        raise ValueError("integer keys must be non-negative")
    return key.to_bytes(max(1, (key.bit_length() + 7) // 8), "little")


class CountingBloomFilter:
    """Bloom filter with 4-bit per-slot counters, supporting deletion.

    The proxy's Bloom-filter directory must remove objectIds when client
    caches evict objects; counting slots make ``remove`` possible.  The
    counters are 4 bits wide, modelled packed two per byte — the classic
    Summary Cache design (Fan et al. 2000, the paper's reference [7]):
    analysis there shows 4 bits overflow with probability ~1.37e-15 per
    slot, and the memory stays well below an exact table of 128-bit
    objectIds.  Saturated counters become sticky (never decremented), so
    an overflow degrades the slot to a plain Bloom bit instead of
    corrupting state.

    Parameters
    ----------
    capacity:
        Expected number of distinct keys (used for sizing).
    fp_rate:
        Target false-positive probability at ``capacity`` keys.
    num_bits, num_hashes:
        Explicit sizing; overrides the capacity/fp_rate formulas when given.
    """

    __slots__ = ("num_bits", "num_hashes", "count", "_slots", "_memo")

    #: Counter saturation limit (4-bit counters, Summary Cache's choice).
    MAX_COUNT = 15
    #: Counters one byte holds in the modelled packed layout.
    _SLOTS_PER_BYTE = 2

    def __init__(
        self,
        capacity: int = 1024,
        fp_rate: float = 0.01,
        num_bits: int | None = None,
        num_hashes: int | None = None,
    ) -> None:
        self.num_bits = num_bits if num_bits is not None else optimal_num_bits(capacity, fp_rate)
        if self.num_bits <= 0:
            raise ValueError("num_bits must be positive")
        self.num_hashes = (
            num_hashes if num_hashes is not None else optimal_num_hashes(self.num_bits, capacity)
        )
        if self.num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.count = 0  # add() calls minus removals (not distinct keys)
        self._slots = [0] * self.num_bits
        self._memo: dict[int | str | bytes, tuple[int, ...]] = {}

    def _indices(self, key: int | str | bytes) -> tuple[int, ...]:
        """The ``num_hashes`` slots of ``key``, hashed once while memoised."""
        if type(key) not in _EXACT_KEY_TYPES:
            key = _canonical(key)
        memo = self._memo
        idxs = memo.get(key)
        if idxs is None:
            digest = hashlib.blake2b(_key_bytes(key), digest_size=16).digest()
            h1 = int.from_bytes(digest[:8], "little")
            h2 = int.from_bytes(digest[8:], "little")
            m = self.num_bits
            idxs = tuple([(h1 + i * h2) % m for i in range(self.num_hashes)])
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[key] = idxs
        return idxs

    def __contains__(self, key: int | str | bytes) -> bool:
        # The memo inline for the simulator's int keys (``5.0 == 5``, so
        # no other type may be looked up before ``_indices`` checks it).
        idxs = self._memo.get(key) if type(key) is int else None
        slots = self._slots
        for idx in idxs or self._indices(key):
            if not slots[idx]:
                return False
        return True

    def add(self, key: int | str | bytes) -> None:
        idxs = self._memo.get(key) if type(key) is int else None
        slots = self._slots
        for idx in idxs or self._indices(key):
            c = slots[idx]
            if c != 15:  # MAX_COUNT
                slots[idx] = c + 1
        self.count += 1

    def remove(self, key: int | str | bytes) -> None:
        if not self.discard(key):
            raise KeyError(f"key {key!r} not present in counting Bloom filter")

    def discard(self, key: int | str | bytes) -> bool:
        """Remove if (apparently) present; returns True if removed.

        The exact inverse of :meth:`add` on unsaturated slots: a slot that
        several of the key's indices share is decremented once per index
        and must hold that many counts.  A key never added is detected
        best-effort (a slot at zero) and leaves the filter as it was.
        """
        idxs = self._memo.get(key) if type(key) is int else None
        idxs = idxs or self._indices(key)
        slots = self._slots
        for done, idx in enumerate(idxs):
            c = slots[idx]
            if not c:
                # Undo: decremented slots sit below saturation, so +1 is exact.
                for prev in idxs[:done]:
                    if slots[prev] != 15:
                        slots[prev] += 1
                return False
            if c != 15:  # saturated slots are sticky
                slots[idx] = c - 1
        self.count -= 1
        return True

    def clear(self) -> None:
        self._slots = [0] * self.num_bits
        self.count = 0

    def memory_bytes(self) -> int:
        """Bytes of the modelled packed slot array (module docstring)."""
        return -(-self.num_bits // self._SLOTS_PER_BYTE)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(num_bits={self.num_bits}, "
            f"num_hashes={self.num_hashes}, count={self.count})"
        )
