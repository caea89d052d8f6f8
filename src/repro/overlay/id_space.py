"""The circular 128-bit identifier space used by the Pastry overlay.

Pastry assigns each node a *nodeId* and each object an *objectId* drawn
uniformly from a circular space of ``2**128`` identifiers.  Identifiers are
interpreted as sequences of digits in base ``2**b`` (``b`` is a Pastry
configuration parameter, typically 4, i.e. hexadecimal digits); prefix
routing resolves one digit per hop.

This module provides the arithmetic on that space:

* :func:`node_id_from_name` / :func:`object_id_for_url` — deterministic
  SHA-1-based identifier derivation (the paper hashes object URLs with
  SHA-1, §4.1).
* :func:`ring_distance` — shortest circular distance, used to find the node
  *numerically closest* to a key.
* :func:`shared_prefix_len` — length of the common digit prefix of two ids,
  the quantity Pastry's routing table is organised around.
* :class:`IdSpace` — bundles the parameters (bit width, digit base) so the
  rest of the overlay code never hard-codes them.

Everything here is pure arithmetic on Python ints; 128-bit values are well
within native int range so no bignum tricks are needed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_ID_BITS",
    "DEFAULT_B",
    "IdSpace",
    "node_id_from_name",
    "object_id_for_url",
    "ring_distance",
    "shared_prefix_len",
    "digit_at",
]

#: Width of the identifier space in bits (Pastry uses 128-bit SHA-1 prefixes).
DEFAULT_ID_BITS = 128

#: Pastry's digit-width configuration parameter ``b`` (digits are base 2**b).
DEFAULT_B = 4


def _sha1_int(data: bytes, bits: int) -> int:
    """Return the top ``bits`` bits of SHA-1(data) as an int."""
    digest = hashlib.sha1(data).digest()
    value = int.from_bytes(digest, "big")  # 160 bits
    return value >> (160 - bits) if bits < 160 else value << (bits - 160)


def node_id_from_name(name: str, bits: int = DEFAULT_ID_BITS) -> int:
    """Derive a nodeId from a stable node name (e.g. ``"client-42"``).

    Pastry derives nodeIds from a cryptographic hash of the node's public
    key or IP address; for the simulation a stable string name plays that
    role.  The result is uniform over the id space.
    """
    return _sha1_int(name.encode("utf-8"), bits)


def object_id_for_url(url: str, bits: int = DEFAULT_ID_BITS) -> int:
    """Hash an object URL into an objectId with SHA-1 (paper §4.1 step 1)."""
    return _sha1_int(url.encode("utf-8"), bits)


def ring_distance(a: int, b: int, bits: int = DEFAULT_ID_BITS) -> int:
    """Shortest circular distance between two identifiers.

    This is the metric defining "numerically closest" for DHT key
    placement: a key is stored on the live node whose nodeId minimises
    ``ring_distance(nodeId, key)``.
    """
    d = (a - b) % (1 << bits)
    return min(d, (1 << bits) - d)


def digit_at(value: int, index: int, b: int = DEFAULT_B, bits: int = DEFAULT_ID_BITS) -> int:
    """Return digit ``index`` (0 = most significant) of ``value`` in base 2**b."""
    ndigits = bits // b
    if index < 0 or index >= ndigits:
        raise IndexError(f"digit index {index} out of range for {ndigits} digits")
    shift = (ndigits - 1 - index) * b
    return (value >> shift) & ((1 << b) - 1)


def shared_prefix_len(a: int, b_val: int, b: int = DEFAULT_B, bits: int = DEFAULT_ID_BITS) -> int:
    """Number of leading base-``2**b`` digits shared by ``a`` and ``b_val``.

    Routing in Pastry forwards a message to a node whose id shares a prefix
    at least one digit longer than the current node's, so this function is
    on the overlay's hot path.  It short-circuits via XOR: the first
    differing digit is located from the bit length of ``a ^ b_val``.
    """
    if a == b_val:
        return bits // b
    diff = a ^ b_val
    # Index (from the left, 0-based) of the highest differing bit.
    high_bit = bits - diff.bit_length()
    return high_bit // b


@dataclass(frozen=True)
class IdSpace:
    """Parameter bundle for a Pastry identifier space.

    Attributes
    ----------
    bits:
        Total width of identifiers in bits.
    b:
        Pastry digit-width parameter; digits are base ``2**b``.
    """

    bits: int = DEFAULT_ID_BITS
    b: int = DEFAULT_B
    #: Number of identifiers in the space (``2**bits``).
    size: int = field(init=False, repr=False, compare=False)
    #: Number of base-``2**b`` digits in an identifier.
    ndigits: int = field(init=False, repr=False, compare=False)
    #: The digit base ``2**b`` (number of routing-table columns).
    digit_base: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bits <= 0 or self.b <= 0:
            raise ValueError("bits and b must be positive")
        if self.bits % self.b != 0:
            raise ValueError(f"bits ({self.bits}) must be a multiple of b ({self.b})")
        # Derived once: the overlay's membership arithmetic reads these
        # per offered node, where a property call would be a frame each.
        object.__setattr__(self, "size", 1 << self.bits)
        object.__setattr__(self, "ndigits", self.bits // self.b)
        object.__setattr__(self, "digit_base", 1 << self.b)

    def node_id(self, name: str) -> int:
        return node_id_from_name(name, self.bits)

    def object_id(self, url: str) -> int:
        return object_id_for_url(url, self.bits)

    def distance(self, a: int, b: int) -> int:
        return ring_distance(a, b, self.bits)

    def digit(self, value: int, index: int) -> int:
        return digit_at(value, index, self.b, self.bits)

    def prefix_len(self, a: int, b_val: int) -> int:
        return shared_prefix_len(a, b_val, self.b, self.bits)

    def contains(self, value: int) -> bool:
        """True if ``value`` is a valid identifier in this space."""
        return 0 <= value < self.size

    def format_id(self, value: int) -> str:
        """Render an identifier as zero-padded hex for logs and debugging."""
        return f"{value:0{self.bits // 4}x}"
