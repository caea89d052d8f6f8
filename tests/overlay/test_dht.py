"""Tests for DHT key placement and memoization."""

from repro.overlay.dht import Dht
from repro.overlay.network import Overlay
from tests.overlay.helpers import joined


def test_owner_matches_ground_truth():
    ov = joined(Overlay, 25)
    dht = Dht(ov)
    for i in range(100):
        key = ov.space.object_id(f"http://a/{i}")
        assert dht.owner(key) == ov.numerically_closest(key)


def test_url_owner_stable():
    ov = joined(Overlay, 10)
    dht = Dht(ov)
    key = ov.space.object_id("http://x/y")
    assert dht.owner(key) == dht.owner(key)


def test_memo_populated_and_hit():
    ov = joined(Overlay, 10)
    dht = Dht(ov)
    key = ov.space.object_id("u")
    dht.owner(key)
    assert len(dht._memo) == 1
    dht.owner(key)  # memo hit: size unchanged
    assert len(dht._memo) == 1


def test_memo_invalidated_on_membership_change():
    ov = joined(Overlay, 10)
    dht = Dht(ov)
    key = ov.space.object_id("u")
    first = dht.owner(key)
    ov.add_named("newcomer")
    assert len(dht._memo) in (0, 1)  # cleared lazily on next call
    second = dht.owner(key)
    assert second == ov.numerically_closest(key)
    # The new node may or may not take over the key, but the memo must
    # have been rebuilt against the new epoch.
    assert dht._memo_epoch == ov.epoch
    assert isinstance(first, int)


def test_remapping_after_failure():
    ov = joined(Overlay, 12)
    dht = Dht(ov)
    key = ov.space.object_id("hot-object")
    owner = dht.owner(key)
    ov.fail(owner)
    new_owner = dht.owner(key)
    assert new_owner != owner
    assert new_owner == ov.numerically_closest(key)


def test_hop_sampling_records_stats():
    ov = joined(Overlay, 20)
    dht = Dht(ov, hop_sample_rate=2)
    before = ov.stats.messages
    for i in range(10):
        dht.owner(ov.space.object_id(f"k{i}"))  # 10 distinct keys -> 5 samples
    assert ov.stats.messages == before + 5


def test_hop_sampling_disabled_by_default():
    ov = joined(Overlay, 20)
    dht = Dht(ov)
    for i in range(10):
        dht.owner(ov.space.object_id(f"k{i}"))
    assert ov.stats.messages == 0


def test_route_delegates_and_agrees_with_owner():
    ov = joined(Overlay, 30)
    dht = Dht(ov)
    key = ov.space.object_id("agree")
    assert ov.route(key).root == dht.owner(key)
