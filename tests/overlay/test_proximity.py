"""Tests for Pastry's locality heuristic (proximity-aware routing)."""

import pytest

from repro.overlay.coords import coords_for_name, path_distance, torus_distance
from repro.overlay.network import Overlay


class TestCoords:
    def test_deterministic_and_in_unit_square(self):
        for i in range(100):
            x, y = coords_for_name(f"n{i}")
            assert 0 <= x < 1 and 0 <= y < 1
        assert coords_for_name("a") == coords_for_name("a")

    def test_torus_wraps(self):
        assert torus_distance((0.05, 0.5), (0.95, 0.5)) == pytest.approx(0.1)
        assert torus_distance((0.5, 0.02), (0.5, 0.98)) == pytest.approx(0.04)

    def test_torus_max_distance(self):
        # Farthest points are half the torus away on each axis.
        d = torus_distance((0.0, 0.0), (0.5, 0.5))
        assert d == pytest.approx((0.5**2 + 0.5**2) ** 0.5)

    def test_metric_properties(self):
        a, b, c = coords_for_name("a"), coords_for_name("b"), coords_for_name("c")
        assert torus_distance(a, a) == 0.0
        assert torus_distance(a, b) == torus_distance(b, a)
        assert torus_distance(a, c) <= torus_distance(a, b) + torus_distance(b, c) + 1e-12

    def test_path_distance(self):
        pts = [(0.0, 0.0), (0.1, 0.0), (0.1, 0.1)]
        assert path_distance(pts) == pytest.approx(0.2)
        assert path_distance(pts[:1]) == 0.0


class TestProximityRouting:
    def test_delivery_still_correct(self):
        ov = Overlay.build(80, proximity=True)
        for i in range(200):
            key = ov.space.object_id(f"k{i}")
            assert ov.route(key).root == ov.numerically_closest(key)

    def test_hop_count_unchanged_in_expectation(self):
        import math

        plain = Overlay.build(100, proximity=False)
        prox = Overlay.build(100, proximity=True)
        for ov in (plain, prox):
            starts = ov.node_ids()
            for i in range(300):
                ov.route(ov.space.object_id(f"h{i}"), start=starts[i % 100])
        bound = math.ceil(math.log(100, 16))
        assert prox.stats.total_hops / prox.stats.messages <= bound + 1

    def test_proximity_reduces_route_stretch(self):
        plain = Overlay.build(150, proximity=False)
        prox = Overlay.build(150, proximity=True)
        for ov in (plain, prox):
            starts = ov.node_ids()
            for i in range(600):
                ov.route(ov.space.object_id(f"s{i}"), start=starts[i % len(starts)])
        assert prox.stats.mean_stretch < plain.stats.mean_stretch
        assert prox.stats.mean_stretch >= 1.0 - 1e-9

    def test_stretch_defaults_to_one_when_unmeasured(self):
        ov = Overlay.build(3)
        assert ov.stats.mean_stretch == 1.0

    def test_churn_keeps_coords_consistent(self):
        ov = Overlay.build(30, proximity=True)
        victim = ov.node_ids()[4]
        ov.fail(victim)
        assert victim not in ov.coords
        ov.add_named("late")
        for i in range(100):
            key = ov.space.object_id(f"c{i}")
            assert ov.route(key).root == ov.numerically_closest(key)

    def test_join_without_name_gets_coords(self):
        ov = Overlay(proximity=True)
        node = ov.join(12345)
        assert ov.coords[node.node_id] is not None
