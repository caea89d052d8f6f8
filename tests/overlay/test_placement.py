"""Vectorised DHT placement tables vs ground truth and Pastry routing."""

import random

import numpy as np
import pytest

from repro.overlay.id_space import IdSpace
from repro.overlay.network import Overlay
from repro.overlay.placement import build_owner_table, object_ids_for_urls
from tests.overlay.helpers import joined


def build(n, bits=128, b=4, leaf_size=16):
    return joined(Overlay, n, space=IdSpace(bits=bits, b=b), leaf_size=leaf_size)


class TestObjectIdsForUrls:
    def test_matches_scalar_hashing(self):
        space = IdSpace()
        urls = [f"http://origin.example/obj/{i}" for i in range(50)]
        batched = object_ids_for_urls(urls, space)
        assert [int(x) for x in batched] == [space.object_id(u) for u in urls]

    def test_narrow_space(self):
        space = IdSpace(bits=16, b=4)
        urls = ["a", "b", "c"]
        batched = object_ids_for_urls(urls, space)
        assert [int(x) for x in batched] == [space.object_id(u) for u in urls]
        assert all(0 <= int(x) < space.size for x in batched)


class TestBuildOwnerTable:
    def test_matches_numerically_closest(self):
        ov = build(40)
        keys = object_ids_for_urls(
            [f"http://origin.example/obj/{i}" for i in range(300)], ov.space
        )
        owners = build_owner_table(ov, keys)
        assert owners == [ov.numerically_closest(int(k)) for k in keys]

    def test_matches_pastry_routing(self):
        ov = build(30)
        keys = object_ids_for_urls([f"k{i}" for i in range(100)], ov.space)
        owners = build_owner_table(ov, keys)
        for key, owner in zip(keys, owners):
            assert ov.route(int(key), record=False).root == owner

    def test_sampled_routing_records_stats(self):
        ov = build(25)
        keys = object_ids_for_urls([f"k{i}" for i in range(100)], ov.space)
        before = ov.stats.messages
        build_owner_table(ov, keys, sample_rate=10, record_stats=True)
        assert ov.stats.messages == before + 10  # every 10th of 100 keys

    def test_sampling_without_recording_leaves_stats(self):
        ov = build(25)
        keys = object_ids_for_urls([f"k{i}" for i in range(100)], ov.space)
        before = ov.stats.messages
        build_owner_table(ov, keys, sample_rate=10, record_stats=False)
        assert ov.stats.messages == before

    def test_rebuild_after_membership_change(self):
        ov = build(20)
        keys = object_ids_for_urls([f"k{i}" for i in range(200)], ov.space)
        build_owner_table(ov, keys)
        epoch = ov.epoch
        ov.add_named("latecomer")
        assert ov.epoch > epoch  # placement tables must be rebuilt
        owners = build_owner_table(ov, keys)
        assert owners == [ov.numerically_closest(int(k)) for k in keys]
        # The new node owns the keys it is now closest to.
        new_id = ov.space.node_id("latecomer")
        owned = [k for k, o in zip(keys, owners) if o == new_id]
        for k in owned:
            assert ov.route(int(k), record=False).root == new_id

    @pytest.mark.parametrize("bits", [16, 128])
    def test_scalar_owner_matches_bulk_on_random_and_midway_keys(self, bits):
        """``numerically_closest`` (Pastry's ``owner_of``) against the
        vectorised rule: random keys, and every key exactly midway
        between two ring neighbours, where the lower nodeId wins."""
        ov = build(30, bits=bits)
        size = ov.space.size
        rng = random.Random(bits)
        keys = [rng.getrandbits(bits) for _ in range(500)]
        ids = ov.node_ids()
        midway = []
        for lo, hi in zip(ids, ids[1:] + [ids[0] + size]):
            if (hi - lo) % 2 == 0:
                key = (lo + (hi - lo) // 2) % size
                midway.append(key)
                assert ov.numerically_closest(key) == min(lo, hi % size)
        assert midway  # the guard bites: ties are exercised
        keys += midway + ids + [0, size - 1]
        bulk = ov.bulk_owner_of(np.array(keys, dtype=object))
        assert [ov.numerically_closest(k) for k in keys] == bulk

    def test_empty_overlay_raises(self):
        ov = Overlay(space=IdSpace())
        with pytest.raises(RuntimeError):
            build_owner_table(ov, object_ids_for_urls(["k"], ov.space))

    def test_single_node_owns_everything(self):
        ov = Overlay(space=IdSpace())
        node = ov.add_named("only")
        keys = object_ids_for_urls([f"k{i}" for i in range(20)], ov.space)
        assert build_owner_table(ov, keys) == [node.node_id] * 20
