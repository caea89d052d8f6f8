"""Contract conformance tests, parametrized over both backends."""

import numpy as np
import pytest

from repro.overlay import (
    OVERLAY_BACKENDS,
    ChordOverlay,
    Overlay,
    OverlayBackend,
    OverlayRoutingError,
    make_overlay,
)
from tests.overlay.helpers import joined

BACKENDS = ("pastry", "chord")


@pytest.mark.parametrize("backend", BACKENDS)
class TestContract:
    def test_is_backend(self, backend):
        ov = joined(OVERLAY_BACKENDS[backend], 30)
        assert isinstance(ov, OverlayBackend)
        assert ov.name == backend

    def test_route_delivers_at_owner(self, backend):
        ov = joined(OVERLAY_BACKENDS[backend], 30)
        ids = ov.node_ids()
        for i in range(200):
            key = ov.space.object_id(f"http://o/{i}")
            result = ov.route(key, start=ids[i % len(ids)])
            assert result.root == ov.owner_of(key)
            assert result.path[0] == ids[i % len(ids)]
            assert result.path[-1] == result.root
            assert result.hops == len(result.path) - 1

    def test_bulk_owner_matches_scalar(self, backend):
        ov = joined(OVERLAY_BACKENDS[backend], 30)
        keys = np.empty(150, dtype=object)
        keys[:] = [ov.space.object_id(f"u{i}") for i in range(150)]
        assert ov.bulk_owner_of(keys) == [ov.owner_of(int(k)) for k in keys]

    def test_owner_stable_under_unrelated_epoch(self, backend):
        ov = joined(OVERLAY_BACKENDS[backend], 30)
        key = ov.space.object_id("stable")
        before = ov.owner_of(key)
        assert ov.owner_of(key) == before

    def test_bulk_add_matches_joined(self, backend):
        names = [f"cluster0/cache{i}" for i in range(40)]
        seq = joined(OVERLAY_BACKENDS[backend], names)
        bulk = OVERLAY_BACKENDS[backend]()
        bulk.bulk_add_named(names)
        assert bulk.node_ids() == seq.node_ids()
        assert bulk.epoch == seq.epoch
        for nid in seq.node_ids():
            assert bulk.neighbourhood(nid) == seq.neighbourhood(nid)
        for i in range(100):
            key = seq.space.object_id(f"bulk/{i}")
            assert bulk.route(key).root == seq.owner_of(key) == bulk.owner_of(key)

    def test_rejoin_after_fail(self, backend):
        ov = joined(OVERLAY_BACKENDS[backend], 30)
        node = ov.add_named("returning")
        e = ov.epoch
        ov.fail(node.node_id)
        assert node.node_id not in ov
        again = ov.add_named("returning")
        assert again.node_id == node.node_id and again.node_id in ov
        assert ov.epoch == e + 2
        live = ov.node_ids()
        for i in range(100):
            key = ov.space.object_id(f"rejoin/{i}")
            assert ov.route(key, start=live[i % len(live)]).root == ov.owner_of(key)

    def test_routing_survives_failures(self, backend):
        ov = joined(OVERLAY_BACKENDS[backend], 40)
        ids = ov.node_ids()
        for victim in ids[::4]:
            ov.fail(victim)
        live = ov.node_ids()
        for i in range(150):
            key = ov.space.object_id(f"after-fail/{i}")
            result = ov.route(key, start=live[i % len(live)])
            assert result.root == ov.owner_of(key)
            assert result.root in ov

    def test_routing_survives_joins(self, backend):
        ov = joined(OVERLAY_BACKENDS[backend], 20)
        for i in range(10):
            ov.add_named(f"late-{i}")
        live = ov.node_ids()
        for i in range(100):
            key = ov.space.object_id(f"after-join/{i}")
            assert ov.route(key, start=live[i % len(live)]).root == ov.owner_of(key)

    def test_neighbourhood_live_and_ordered(self, backend):
        ov = joined(OVERLAY_BACKENDS[backend], 25)
        for nid in ov.node_ids():
            nbrs = ov.neighbourhood(nid)
            assert nbrs, "non-singleton ring must have neighbours"
            assert nid not in nbrs
            assert len(nbrs) == len(set(nbrs))
            for nbr in nbrs:
                assert nbr in ov
            # Contract: iteration order is deterministic (it fixes which
            # diversion candidate wins ties).
            assert ov.neighbourhood(nid) == nbrs

    def test_epoch_counts_membership_changes(self, backend):
        ov = joined(OVERLAY_BACKENDS[backend], 10)
        e = ov.epoch
        node = ov.add_named("a")
        assert ov.epoch == e + 1
        ov.fail(node.node_id)
        assert ov.epoch == e + 2
        node = ov.add_named("b")
        ov.fail(node.node_id)
        assert ov.epoch == e + 4

    def test_derived_hop_bound_scales_with_size(self, backend):
        small = joined(OVERLAY_BACKENDS[backend], 4)
        large = joined(OVERLAY_BACKENDS[backend], 200)
        assert small.expected_diameter() <= large.expected_diameter()
        assert large.max_route_hops == 16 + 8 * large.expected_diameter()
        # Real routes stay far inside the bound.
        for i in range(100):
            key = large.space.object_id(f"b/{i}")
            assert large.route(key).hops < large.max_route_hops

    def test_routing_error_names_backend(self, backend):
        ov = joined(OVERLAY_BACKENDS[backend], 12)
        key = ov.space.object_id("poisoned")
        # Corrupt the route loop: force a perpetual self-forward by
        # making the decision hook return an already-visited node and the
        # repair hook a no-op.
        start = ov.node_ids()[0]
        ov._route_decision = lambda current, k: ("forward", start)
        ov._on_stale = lambda current, stale: None
        with pytest.raises(OverlayRoutingError) as exc:
            ov.route(key, start=start)
        msg = str(exc.value)
        assert backend in msg
        assert "derived bound" in msg
        assert exc.value.bound == ov.max_route_hops

    def test_empty_overlay_raises(self, backend):
        ov = OVERLAY_BACKENDS[backend]()
        with pytest.raises(RuntimeError, match="empty"):
            ov.route(123)

    def test_route_record_flag(self, backend):
        ov = joined(OVERLAY_BACKENDS[backend], 30)
        key = ov.space.object_id("counted")
        ov.route(key, record=False)
        assert ov.stats.messages == 0
        ov.route(key)
        assert ov.stats.messages == 1


    def test_route_stats_sum_the_routes(self, backend):
        ov = joined(OVERLAY_BACKENDS[backend], 60)
        ids = ov.node_ids()
        hops = [
            ov.route(ov.space.object_id(f"stats/{i}"), start=ids[i % len(ids)]).hops
            for i in range(120)
        ]
        assert ov.stats.messages == len(hops)
        assert ov.stats.total_hops == sum(hops)
        assert ov.stats.max_hops == max(hops) > 0


class TestFactory:
    class _Cfg:
        overlay = "pastry"
        pastry_b = 4
        leaf_set_size = 16
        chord_successors = 8

    def test_pastry_selected(self):
        cfg = self._Cfg()
        ov = make_overlay(cfg)
        assert isinstance(ov, Overlay)
        assert ov.space.b == 4

    def test_chord_selected(self):
        cfg = self._Cfg()
        cfg.overlay = "chord"
        ov = make_overlay(cfg)
        assert isinstance(ov, ChordOverlay)
        assert ov.successor_list_size == 8

    def test_unknown_backend_rejected(self):
        cfg = self._Cfg()
        cfg.overlay = "kademlia"
        with pytest.raises(ValueError, match="kademlia"):
            make_overlay(cfg)
