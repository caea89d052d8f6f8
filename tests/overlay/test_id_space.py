"""Unit tests for the circular identifier space arithmetic."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.id_space import (
    DEFAULT_B,
    DEFAULT_ID_BITS,
    IdSpace,
    digit_at,
    node_id_from_name,
    object_id_for_url,
    ring_distance,
    shared_prefix_len,
)
from tests.models.pastry_chain import cw_distance

ids = st.integers(min_value=0, max_value=(1 << DEFAULT_ID_BITS) - 1)


class TestHashing:
    def test_object_id_matches_sha1_prefix(self):
        url = "http://example.com/a.html"
        digest = int.from_bytes(hashlib.sha1(url.encode()).digest(), "big")
        assert object_id_for_url(url) == digest >> (160 - 128)

    def test_node_and_object_ids_deterministic(self):
        assert node_id_from_name("c1") == node_id_from_name("c1")
        assert object_id_for_url("u") == object_id_for_url("u")

    def test_distinct_names_distinct_ids(self):
        names = [f"cache-{i}" for i in range(500)]
        assert len({node_id_from_name(n) for n in names}) == 500

    def test_ids_fit_in_space(self):
        space = IdSpace()
        for i in range(100):
            assert space.contains(space.node_id(f"n{i}"))

    def test_small_bit_width(self):
        assert 0 <= node_id_from_name("x", bits=16) < (1 << 16)

    def test_wider_than_sha1_raises_no_error_and_fits(self):
        # bits > 160 left-shifts; still inside the space.
        v = node_id_from_name("x", bits=168)
        assert 0 <= v < (1 << 168)


class TestDistance:
    def test_ring_distance_symmetric_examples(self):
        assert ring_distance(0, 1) == 1
        assert ring_distance(1, 0) == 1
        top = (1 << DEFAULT_ID_BITS) - 1
        assert ring_distance(0, top) == 1  # wraps around

    def test_max_distance_is_half_ring(self):
        half = 1 << (DEFAULT_ID_BITS - 1)
        assert ring_distance(0, half) == half

    def test_cw_distance_directional(self):
        # Clockwise distance as the reference model measures leaf-set sides.
        space = IdSpace()
        assert cw_distance(space, 5, 10) == 5
        assert cw_distance(space, 10, 5) == (1 << DEFAULT_ID_BITS) - 5

    @given(ids, ids)
    def test_ring_distance_symmetric(self, a, b):
        assert ring_distance(a, b) == ring_distance(b, a)

    @given(ids, ids)
    def test_ring_distance_bounds(self, a, b):
        d = ring_distance(a, b)
        assert 0 <= d <= (1 << (DEFAULT_ID_BITS - 1))
        assert (d == 0) == (a == b)

    @given(ids, ids, ids)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        assert ring_distance(a, c) <= ring_distance(a, b) + ring_distance(b, c)

    @given(ids, ids)
    def test_cw_ccw_complement(self, a, b):
        space = IdSpace()
        cw, ccw = cw_distance(space, a, b), cw_distance(space, b, a)
        if a != b:
            assert cw + ccw == 1 << DEFAULT_ID_BITS
        # The ring distance is the shorter of the two directions.
        assert ring_distance(a, b) == min(cw, ccw)


class TestDigits:
    def test_digit_extraction_hex(self):
        # id = 0xABC...0 padded; check leading digits with b=4, bits=16.
        v = 0xA5C3
        assert digit_at(v, 0, b=4, bits=16) == 0xA
        assert digit_at(v, 1, b=4, bits=16) == 0x5
        assert digit_at(v, 2, b=4, bits=16) == 0xC
        assert digit_at(v, 3, b=4, bits=16) == 0x3

    def test_digit_index_out_of_range(self):
        with pytest.raises(IndexError):
            digit_at(0, 32, b=4, bits=128)
        with pytest.raises(IndexError):
            digit_at(0, -1)

    @given(ids, st.integers(min_value=0, max_value=31))
    def test_digits_reconstruct_value(self, v, _i):
        digits = [digit_at(v, i) for i in range(32)]
        recon = 0
        for d in digits:
            recon = (recon << DEFAULT_B) | d
        assert recon == v


class TestSharedPrefix:
    def test_identical_full_prefix(self):
        assert shared_prefix_len(7, 7) == DEFAULT_ID_BITS // DEFAULT_B

    def test_first_digit_differs(self):
        a = 0x1 << 124  # leading digit 1
        b = 0x2 << 124  # leading digit 2
        assert shared_prefix_len(a, b) == 0

    def test_known_prefix(self):
        a = 0xABCD << 112
        b = 0xABCE << 112
        assert shared_prefix_len(a, b) == 3

    @given(ids, ids)
    def test_matches_digit_scan(self, a, b):
        p = shared_prefix_len(a, b)
        ndigits = DEFAULT_ID_BITS // DEFAULT_B
        for i in range(min(p, ndigits)):
            assert digit_at(a, i) == digit_at(b, i)
        if p < ndigits:
            assert digit_at(a, p) != digit_at(b, p)

    @given(ids, ids, ids)
    @settings(max_examples=50)
    def test_prefix_len_ultrametric(self, a, b, c):
        # shared prefix of (a, c) >= min over the chain through b.
        assert shared_prefix_len(a, c) >= min(
            shared_prefix_len(a, b), shared_prefix_len(b, c)
        )


class TestIdSpace:
    def test_defaults(self):
        s = IdSpace()
        assert s.bits == 128 and s.b == 4
        assert s.ndigits == 32 and s.digit_base == 16
        assert s.size == 1 << 128

    def test_validation(self):
        with pytest.raises(ValueError):
            IdSpace(bits=0)
        with pytest.raises(ValueError):
            IdSpace(bits=128, b=0)
        with pytest.raises(ValueError):
            IdSpace(bits=10, b=4)  # not a multiple

    def test_custom_base(self):
        s = IdSpace(bits=32, b=2)
        assert s.ndigits == 16 and s.digit_base == 4

    def test_format_id_width(self):
        s = IdSpace()
        assert len(s.format_id(0)) == 32
        assert s.format_id(0xAB) .endswith("ab")

    def test_methods_delegate(self):
        s = IdSpace(bits=16, b=4)
        assert s.prefix_len(0xA5C3, 0xA5C0) == 3
        assert s.digit(0xA5C3, 0) == 0xA
        assert s.distance(0, 0xFFFF) == 1
        assert s.contains(0xFFFF) and not s.contains(1 << 16)
