"""Tests for Hier-GD under client churn (failure injection)."""

import pytest

from repro.core.churn import ChurnEvent
from repro.core.config import SimulationConfig
from repro.core.hiergd import HierGdScheme
from repro.workload import ProWGenConfig, generate_cluster_traces


def cfg(n_clients=10, **kw):
    kw.setdefault("leaf_set_size", 4)
    return SimulationConfig(
        workload=ProWGenConfig(n_requests=8000, n_objects=400, n_clients=n_clients),
        n_proxies=1,
        proxy_cache_fraction=0.1,
        client_cache_fraction=0.01,
        **kw,
    )


def workload(n_clients=10, seed=0):
    return generate_cluster_traces(
        ProWGenConfig(n_requests=8000, n_objects=400, n_clients=n_clients), 1, seed=seed
    )


class TestEventValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ChurnEvent(at_request=0, kind="pause", cluster=0)

    def test_negative_time(self):
        with pytest.raises(ValueError):
            ChurnEvent(at_request=-1, kind="fail", cluster=0)

    def test_cluster_out_of_range(self):
        with pytest.raises(ValueError):
            HierGdScheme(
                cfg(), workload(), events=[ChurnEvent(at_request=0, kind="fail", cluster=3)]
            )

    @pytest.mark.parametrize(
        "events, error",
        [
            (
                [
                    ChurnEvent(at_request=5_000, kind="fail", cluster=0, client=3),
                    ChurnEvent(at_request=10, kind="fail", cluster=0, client=3),
                ],
                "client 3 of cluster 0 already failed",
            ),
            (
                [ChurnEvent(at_request=5_000, kind="fail", cluster=0, client=10)],
                "client 10 out of range",
            ),
        ],
        ids=["double failure", "client out of range"],
    )
    def test_bad_schedule_refused_before_the_first_request(self, monkeypatch, events, error):
        """The schedule is walked in firing order at construction: no
        cluster state is built, no request served, before it is refused."""
        monkeypatch.setattr(
            "repro.core.hiergd.make_overlay",
            lambda config: pytest.fail("a bad schedule reached state building"),
        )
        with pytest.raises(ValueError, match=error):
            HierGdScheme(cfg(), workload(), events=events)

    def test_newcomer_may_fail(self):
        """A join adds the next client index, which a later fail may name."""
        events = [
            ChurnEvent(at_request=100, kind="join", cluster=0),
            ChurnEvent(at_request=200, kind="fail", cluster=0, client=10),
        ]
        r = HierGdScheme(cfg(), workload(), events=events).run()
        assert r.messages["client_joins"] == r.messages["client_failures"] == 1
        assert r.extras["live_clients"] == 10


class TestFailure:
    def test_run_completes_and_counts(self):
        events = [
            ChurnEvent(at_request=2000, kind="fail", cluster=0, client=3),
            ChurnEvent(at_request=4000, kind="fail", cluster=0, client=7),
        ]
        scheme = HierGdScheme(cfg(), workload(), events=events)
        r = scheme.run()
        assert r.n_requests == 8000
        assert r.messages["client_failures"] == 2
        assert r.messages["objects_lost"] >= 0
        assert r.extras["live_clients"] == 8

    def test_failure_loses_objects_and_repairs_directory(self):
        events = [ChurnEvent(at_request=4000, kind="fail", cluster=0, client=0)]
        scheme = HierGdScheme(cfg(), workload(seed=2), events=events)
        r = scheme.run()
        # Something was cached on the failed client by mid-run.
        assert r.messages["objects_lost"] > 0
        # Stale directory entries get repaired on subsequent lookups.
        assert r.messages["directory_repairs"] >= 0
        state = scheme.states[0]
        # Post-run consistency: everything the truth-set lists is reachable.
        for obj in list(state.p2p_present):
            assert scheme._locate(state, obj) is not None

    def test_overlay_membership_shrinks(self):
        events = [ChurnEvent(at_request=100, kind="fail", cluster=0, client=5)]
        scheme = HierGdScheme(cfg(), workload(), events=events)
        scheme.run()
        assert len(scheme.states[0].overlay) == 9

    def test_dead_cache_receives_nothing(self):
        events = [ChurnEvent(at_request=100, kind="fail", cluster=0, client=5)]
        scheme = HierGdScheme(cfg(), workload(seed=3), events=events)
        scheme.run()
        assert len(scheme.states[0].clients[5]) == 0

    def test_latency_degrades_gracefully_not_catastrophically(self):
        traces = workload(seed=4)
        baseline = HierGdScheme(cfg(), traces).run()
        half_dead = HierGdScheme(
            cfg(),
            traces,
            events=[
                ChurnEvent(at_request=2000 + 500 * i, kind="fail", cluster=0, client=i)
                for i in range(5)
            ],
        ).run()
        assert half_dead.mean_latency >= baseline.mean_latency * 0.999
        # Losing half the P2P tier must not cost more than the whole
        # P2P benefit (sanity bound: still far below the NC latency).
        assert half_dead.mean_latency < baseline.mean_latency * 2


class TestJoin:
    def test_join_expands_overlay_and_clients(self):
        events = [ChurnEvent(at_request=1000, kind="join", cluster=0)]
        scheme = HierGdScheme(cfg(), workload(), events=events)
        r = scheme.run()
        assert r.messages["client_joins"] == 1
        assert len(scheme.states[0].clients) == 11
        assert len(scheme.states[0].overlay) == 11
        assert r.extras["live_clients"] == 11

    def test_join_shifts_dht_placement_toward_newcomer(self):
        """A join repartitions the id space: some objects' owners move,
        at least one onto the newcomer, and the owner memo — stale
        wholesale after the shift — is invalidated."""
        scheme = HierGdScheme(cfg(), workload(), events=[])
        state = scheme.states[0]
        objs = range(400)
        before = {obj: state.owner(obj) for obj in objs}
        state.join("cluster0/cache10", scheme._make_cache(scheme.sizings[0].client_size))
        assert not state.owner_memo  # memo dropped before any re-query
        after = {obj: state.owner(obj) for obj in objs}
        shifted = [obj for obj in objs if before[obj] != after[obj]]
        assert shifted, "join did not move any ownership"
        newcomer = len(state.clients) - 1
        assert any(after[obj] == newcomer for obj in shifted)
        # Ownership only moved onto the newcomer; unrelated assignments
        # between incumbents are untouched (Pastry moves one arc).
        assert all(after[obj] == newcomer for obj in shifted)

    def test_newcomer_receives_objects(self):
        events = [ChurnEvent(at_request=500, kind="join", cluster=0)]
        scheme = HierGdScheme(cfg(), workload(seed=5), events=events)
        scheme.run()
        newcomer = scheme.states[0].clients[10]
        assert len(newcomer) > 0  # it owns a slice of the id space

    def test_fail_then_join_recovers_capacity(self):
        events = [
            ChurnEvent(at_request=1000, kind="fail", cluster=0, client=2),
            ChurnEvent(at_request=2000, kind="join", cluster=0),
        ]
        scheme = HierGdScheme(cfg(), workload(seed=6), events=events)
        r = scheme.run()
        assert r.extras["live_clients"] == 10
        state = scheme.states[0]
        for obj in list(state.p2p_present):
            assert scheme._locate(state, obj) is not None


    def test_objects_are_hashed_once_however_often_placement_is_dropped(
        self, monkeypatch
    ):
        from repro.overlay.id_space import IdSpace

        hashed = []
        object_id = IdSpace.object_id
        monkeypatch.setattr(
            IdSpace, "object_id",
            lambda space, url: hashed.append(url) or object_id(space, url),
        )
        events = [
            ChurnEvent(at_request=1000, kind="fail", cluster=0, client=2),
            ChurnEvent(at_request=2000, kind="join", cluster=0),
        ]
        scheme = HierGdScheme(cfg(), workload(seed=6), events=events)
        scheme.run()
        state = scheme.states[0]
        # Every membership change empties the owner memo; refilling it
        # reads the run's one objectId table, not SHA-1 again ...
        assert hashed == []
        # ... while every refill still counts as a memo miss (the count
        # is what the hop statistic samples from).
        assert state.owner_memo.misses > len(state.owner_memo) > 0


class TestNoChurnEquivalence:
    def test_empty_schedule_matches_plain_hiergd(self):
        traces = workload(seed=7)
        plain = HierGdScheme(cfg(), traces).run()
        churny = HierGdScheme(cfg(), traces, events=[]).run()
        assert churny.total_latency == plain.total_latency
        assert churny.tier_counts == plain.tier_counts
