"""Presence-index invariants: unit behaviour and full-trace replay.

SC's and Hier-GD's presence indexes are only correct if they mirror the
underlying cache state after *every* mutation.  The replay tests drive a
scheme request by request (the simulator's round-robin order) and, after
each request, compare every index against a brute-force scan of the
actual caches — the strongest form of the equivalence argument in
:mod:`repro.core.presence`.
"""

import dataclasses

from repro.core.hiergd import HierGdScheme
from repro.core.presence import PresenceIndex
from repro.core.run import generate_workloads
from repro.core.schemes.baselines import ScScheme
from repro.experiments.runner import base_config


class TestPresenceIndex:
    def test_add_and_holders(self):
        idx = PresenceIndex()
        idx.add("x", 2)
        idx.add("x", 0)
        idx.add("x", 2)  # already listed: no-op
        assert idx.as_dict() == {"x": frozenset({0, 2})}
        assert "x" in idx
        assert len(idx) == 1

    def test_discard_prunes_empty_sets(self):
        idx = PresenceIndex()
        idx.add("x", 1)
        idx.discard("x", 3)  # not a holder: no-op
        assert idx.as_dict() == {"x": frozenset({1})}
        idx.discard("x", 1)
        assert "x" not in idx
        assert len(idx) == 0
        idx.discard("x", 1)  # absent: no-op
        assert idx.as_dict() == {}

    def test_first_holder_excludes_and_minimises(self):
        idx = PresenceIndex()
        for c in (3, 1, 2):
            idx.add("x", c)
        assert idx.first_holder("x", exclude=0) == 1
        assert idx.first_holder("x", exclude=1) == 2
        assert idx.first_holder("y", exclude=0) is None
        idx.add("z", 0)
        assert idx.first_holder("z", exclude=0) is None

    def test_cluster_ids_past_a_machine_word(self):
        # Holders are an unbounded int bitmask: a shard view's global ids
        # may exceed 63 and must still order like the ascending scan.
        idx = PresenceIndex()
        for c in (200, 64, 65, 3):
            idx.add("x", c)
        assert idx.as_dict() == {"x": frozenset({3, 64, 65, 200})}
        assert idx.first_holder("x", exclude=7) == 3
        idx.discard("x", 3)
        assert idx.first_holder("x", exclude=7) == 64
        assert idx.first_holder("x", exclude=64) == 65
        idx.discard("x", 64)
        idx.discard("x", 65)
        assert idx.first_holder("x", exclude=0) == 200
        assert idx.first_holder("x", exclude=200) is None
        idx.discard("x", 200)
        assert idx.as_dict() == {} and len(idx) == 0

    def test_as_dict_snapshot(self):
        idx = PresenceIndex()
        idx.add("x", 0)
        snap = idx.as_dict()
        idx.add("x", 1)
        assert snap == {"x": frozenset({0})}


def tiny_config(**overrides):
    cfg = base_config()
    wl = dataclasses.replace(
        cfg.workload, n_requests=1_200, n_objects=200, n_clients=12
    )
    return dataclasses.replace(cfg, workload=wl, n_proxies=2, **overrides)


def replay(scheme, traces, check):
    """Drive requests in the simulator's round-robin order, checking
    invariants after every request."""
    length = len(traces[0].object_ids)
    for i in range(length):
        for ci, trace in enumerate(traces):
            scheme.process(ci, int(trace.client_ids[i]), int(trace.object_ids[i]))
            check(scheme)


class TestScReplayInvariant:
    def test_presence_matches_brute_force(self):
        cfg = tiny_config()
        traces = generate_workloads(cfg, seed=0)
        scheme = ScScheme(cfg, traces)

        def check(s):
            expected = {}
            for ci, cache in enumerate(s.caches):
                for obj in cache.keys():
                    expected.setdefault(obj, set()).add(ci)
            assert s._presence.as_dict() == {
                obj: frozenset(cs) for obj, cs in expected.items()
            }

        replay(scheme, traces, check)


class TestHierGdReplayInvariant:
    def test_indexes_match_brute_force(self):
        cfg = tiny_config()
        traces = generate_workloads(cfg, seed=0)
        scheme = HierGdScheme(cfg, traces)

        def check(s):
            # Proxy presence mirrors the proxy caches.
            expected = {}
            for ci, state in enumerate(s.states):
                for obj in state.proxy.keys():
                    expected.setdefault(obj, set()).add(ci)
            assert s._proxy_presence.as_dict() == {
                obj: frozenset(cs) for obj, cs in expected.items()
            }
            for state in s.states:
                # Directory presence and p2p_present mirror the exact
                # directory's backing set.
                assert state.p2p_present == state.directory.members
                # Directory-consistency: everything listed is reachable.
                for obj in state.p2p_present:
                    assert s._locate(state, obj) is not None
                # Free-client set: idx present iff the cache has room.
                assert state.free_clients == {
                    k
                    for k, c in enumerate(state.clients)
                    if c.capacity > 0 and c._used < c.capacity
                }
                # Membership dicts are the caches' own (identity intact).
                for k, cache in enumerate(state.clients):
                    assert set(state.member_maps[k]) == set(cache.keys())
            # Directory-tier index mirrors the per-cluster directories.
            dir_expected = {}
            for ci, state in enumerate(s.states):
                for obj in state.directory.members:
                    dir_expected.setdefault(obj, set()).add(ci)
            assert s._dir_presence.as_dict() == {
                obj: frozenset(cs) for obj, cs in dir_expected.items()
            }

        replay(scheme, traces, check)
