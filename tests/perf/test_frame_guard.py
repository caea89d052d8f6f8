"""Deterministic guards on the request paths: frames and exchanges.

The ledger's 20 % bound would let a 12 % slip through, and needs a quiet
host; these count instead of timing:

* a proxy hit — ~3 of every 4 requests — of a *recorded faulty* run (the
  ``hiergd_faults`` shape: composite plan, Bloom directory) enters one
  Python frame below the simulator's ``map``: the engine's ``process``
  (the recording reads the request index from the request loop, which
  fires membership events between requests).  A wrapper frame per
  request, or a greedy-dual hit that is a method call again, fails here;
* on the same shape an exchange is paid once: a ``transport.attempt``
  that books nothing enters 6 frames, one that books 9, besides the
  latency sink, and a Bloom probe enters the counting filter straight
  from the engine or ``_locate``'s churn repair;
* on the same shape a counting-filter ``__contains__`` / ``add`` /
  ``discard`` of an int key the filter has memoised is one frame: the
  memo is read inline, ``_indices`` is entered only on a first touch;
* a fault-free run on an exact directory, unit or sized, enters no
  ``_size_of`` / ``PresenceIndex.add`` / ``PresenceIndex.discard`` frame
  and asks ``_locate`` only about objects ``p2p_present`` lists: the
  request path that serves every run answers those from the state's
  indexes, not per request;
* on a fault-free unit-size run on an exact directory, an evicting
  greedy-dual insert whose heap head is live makes one heap call (the
  last victim's pop and the new entry's push are one ``heapreplace``),
  a greedy-dual hit none, and both presence indexes hold ``int``
  bitmasks;
* a fault-free run asks the transport for nothing it did not ask for
  before the engine took the faulty runs: no exchange at all on an exact
  directory, and on a Bloom directory only the push protocol's scan —
  one ``PUSH`` per request it ends up serving;
* NC, SC and Squirrel serve every request, unit or sized, in two frames:
  the scheme's ``process`` and one cache call; NC-EC and SC-EC serve a
  local-proxy hit in two as well, and a count-mode miss of theirs enters
  no ``HeapDict`` frame;
* FC and FC-EC serve a local hit in ``process`` alone, and a miss that
  places and drops no copy in ``process`` and ``_consider_copy``;
* Pastry membership is table arithmetic: on a 100-node overlay a join
  enters at most 100 frames (43 measured; 2 728–2 883 under the
  per-node method chain), a failure at most 1 200 and ten of them a
  median of at most 150 (57–435, median 63; 6 778–7 860 under the chain
  — a frame per survivor would add 99);
* after a membership change a first-touch owner miss is one frame: it
  reads the patched owner table and calls no ``owner_of``; every 64th
  also routes;
* on a run with churn every ``_locate`` call enters one ``_locate``
  frame (a churn subclass's override and its ``super()`` call entered
  two on most of them);
* ProWGen's emit loop reads its out-of-stack candidates without a
  Python frame: its frames grow with candidate windows, alias rebuilds
  and syncs (226 for 50 072 candidates, at most 300 allowed).
"""

import dataclasses
import gc
import sys
from collections import Counter

import numpy as np
import pytest

from repro.bloom import CountingBloomFilter
from repro.cache import GreedyDualCache, HeapDict, greedy_dual
from repro.core.churn import ChurnEvent
from repro.core.directory import LookupDirectory
from repro.core.hiergd import HierGdScheme
from repro.core.presence import PresenceIndex
from repro.core.run import generate_workloads, run_scheme
from repro.core.simulator import CachingScheme
from repro.experiments.robustness import robustness_plan
from repro.experiments.runner import base_config
from repro.faults.run import run_scheme_with_faults
from repro.netmodel import (
    TIER_COOP_P2P,
    TIER_COOP_PROXY,
    TIER_LOCAL_P2P,
    TIER_LOCAL_PROXY,
    TIER_SERVER,
)
from repro.overlay import Overlay
from repro.protocol.trace import recording_traces
from repro.protocol.transport import Transport
from repro.workload.prowgen import ProWGenConfig, _assign_counts, _emit_stream_chunks
from repro.workload.rawdraws import _WINDOW
from tests.overlay.helpers import joined
from tests.workload.test_prowgen_model import naive_emit_stream_chunks


def guard_config(sizes="unit", **overrides):
    cfg = base_config()
    wl = dataclasses.replace(
        cfg.workload, n_requests=3_000, n_objects=300, n_clients=16
    )
    if sizes == "sized":
        wl = dataclasses.replace(wl, object_sizes="heavy-tailed")
    overrides = {"proxy_cache_fraction": 0.2, "client_cache_fraction": 0.01, **overrides}
    return dataclasses.replace(cfg, workload=wl, n_proxies=3, **overrides)


def frames_by_tier(monkeypatch, go, counted=None, watch=None):
    """``{served tier: Counter(Python frames entered per request)}`` of the
    run ``go()`` makes, counted from the scheme's ``process`` down, below
    the simulator's ``map``; returns it with ``go()``'s result.

    ``counted(code)``: count only the frames whose code it accepts.
    ``watch(scheme)``: key each request ``(tier, changed)`` instead,
    ``changed`` telling whether ``watch`` reads differently after it."""
    frames = {}
    run = CachingScheme.run

    def profiled_run(scheme):
        per_request = scheme.process.__code__  # outermost frame under ``map``
        depth = entered = 0
        mark = None

        def profile(frame, event, arg):
            nonlocal depth, entered, mark
            if event == "call":
                if depth or frame.f_code is per_request:
                    if not depth and watch is not None:
                        mark = watch(scheme)
                    depth += 1
                    entered += counted is None or counted(frame.f_code)
            elif event == "return" and depth:
                depth -= 1
                if not depth:
                    key = arg if watch is None else (arg, watch(scheme) != mark)
                    frames.setdefault(key, Counter())[entered] += 1
                    entered = 0

        # A collection inside a request would run the GC callbacks (such
        # as hypothesis's timer) and finalizers other tests left behind,
        # and count their frames.
        collecting = gc.isenabled()
        gc.disable()
        sys.setprofile(profile)
        try:
            return run(scheme)
        finally:
            sys.setprofile(None)
            if collecting:
                gc.enable()

    monkeypatch.setattr(CachingScheme, "run", profiled_run)
    return frames, go()


def test_recorded_faulty_proxy_hit_enters_one_frame(monkeypatch, tmp_path):
    """The engine's ``process`` and nothing else: the recording reads the
    request index from the request loop, which also fires the membership
    events between requests.  Measured on the guard shape: all 4 038 hits
    enter 1 frame (2 while a request counter wrapped ``process``, and the
    two that fired membership events 76 and 199)."""
    config = guard_config(directory="bloom")
    traces = generate_workloads(config, seed=0)
    plan = robustness_plan(0.1)
    with recording_traces(tmp_path) as recorder:
        frames, result = frames_by_tier(monkeypatch, lambda: run_scheme_with_faults(
            "hier-gd", config, traces, plan, seed=0
        ))
    assert recorder.written and result.messages["timeouts"] > 0

    hits = frames[TIER_LOCAL_PROXY]
    assert sum(hits.values()) == result.tier_counts[TIER_LOCAL_PROXY] > 1_000
    assert result.messages["client_failures"] + result.messages["client_joins"] > 0
    assert set(hits) == {1}
    # Misses do real work: the guard is not vacuous.
    assert min(min(c) for tier, c in frames.items() if tier != TIER_LOCAL_PROXY) > 1


def test_recorded_faulty_exchange_is_paid_once(monkeypatch, tmp_path):
    """One exchange, paid once: on the ``hiergd_faults`` shape a
    ``transport.attempt`` enters 6 or 9 Python frames besides the
    scheme's latency sink (one per charge), and exactly 6 when it books
    nothing — the attempt, the recording layer's ``draw``, the scheme's
    ``request_index``, the fault layer's ``draw``, the ladder's
    ``decide`` and the outcome; the event line is encoded inside the
    recording's ``draw``, and a delivered ladder over the plain base
    enters neither the base's ``draw`` nor ``then``.  Measured on the
    guard shape: 3 343 attempts enter 6 (316 of them charge one delay)
    and 400 enter 9 (booking: ``_book`` and the fault counters read
    through the recording layer's property).  Before, free attempts
    entered 10 and booking ones 13 (the base's ``draw`` and ``then``,
    the event's fields and frame, and the write); the
    coroutine-per-exchange stack entered 29 and at most 52 (the
    decision's frames below a simulated clock's ``run`` → ``begin`` →
    ``_draw_and_book``, deltas derived twice, ``json.dumps`` per event).

    Step 2, the push scan and ``_locate``'s churn repair probe the
    directory's membership structure itself: a Bloom probe enters the
    counting filter straight from them, never a ``LossyDirectory`` /
    ``BloomDirectory`` frame (three frames a probe before)."""
    config = guard_config(directory="bloom")
    traces = generate_workloads(config, seed=0)
    plan = robustness_plan(0.1)
    sink = CachingScheme.add_extra_latency.__code__
    engine = {
        HierGdScheme.process.__code__,
        HierGdScheme._push_stage.__code__,
        HierGdScheme._locate.__code__,
    }
    wrapper = {
        f.__code__
        for cls in (LookupDirectory, *LookupDirectory.__subclasses__())
        for f in vars(cls).values()
        if hasattr(f, "__code__")
    }
    probe = CountingBloomFilter.__contains__.__code__
    #: (own frames, charges) per attempt; who entered a Bloom probe.
    attempts, probed_from, wrapped = [], Counter(), Counter()
    run = CachingScheme.run

    def profiled_run(scheme):
        outer = type(scheme.transport).attempt.__code__
        depth = entered = charged = 0

        def profile(frame, event, arg):
            nonlocal depth, entered, charged
            if event == "call":
                code = frame.f_code
                caller = frame.f_back.f_code
                if code is probe:
                    probed_from[caller.co_name] += 1
                elif code in wrapper and caller in engine:
                    wrapped[code.co_qualname] += 1
                if depth or code is outer:
                    depth += 1
                    entered += 1
                    charged += code is sink
            elif event == "return" and depth:
                depth -= 1
                if not depth:
                    attempts.append((entered - charged, charged))
                    entered = charged = 0

        # A collection inside an attempt would run finalizers that other
        # tests left behind, and count their frames.
        collecting = gc.isenabled()
        gc.disable()
        sys.setprofile(profile)
        try:
            return run(scheme)
        finally:
            sys.setprofile(None)
            if collecting:
                gc.enable()

    monkeypatch.setattr(CachingScheme, "run", profiled_run)
    with recording_traces(tmp_path):
        result = run_scheme_with_faults(
            "hier-gd", config, traces, plan, seed=0
        )
    assert result.messages["timeouts"] > 0 and result.messages["fallbacks"] > 0
    free = [own for own, charges in attempts if not charges]
    assert len(free) > 1_000 and set(free) == {6}
    assert {own for own, _ in attempts} == {6, 9}
    assert probed_from["process"] > 1_000 and probed_from["_push_stage"] > 0
    assert probed_from["_locate"] > 0
    assert not wrapped


def test_memoised_bloom_operation_enters_one_frame(monkeypatch, tmp_path):
    """On the ``hiergd_faults`` shape a counting-filter ``__contains__`` /
    ``add`` / ``discard`` of an int key already in the filter's memo is
    exactly one Python frame: the memo is read inline, and the slots are
    list elements (no ``_indices`` frame, no unpacking helper).  A key on
    its first touch enters ``_indices`` as well."""
    config = guard_config(directory="bloom")
    traces = generate_workloads(config, seed=0)
    plan = robustness_plan(0.1)
    ops = {
        getattr(CountingBloomFilter, name).__code__: name
        for name in ("__contains__", "add", "discard")
    }
    #: (operation, key memoised on entry) -> Counter(frames entered).
    frames = {}
    run = CachingScheme.run

    def profiled_run(scheme):
        depth = entered = 0
        op = None

        def profile(frame, event, arg):
            nonlocal depth, entered, op
            if event == "call":
                if not depth and frame.f_code in ops:
                    args = frame.f_locals
                    key = args["key"]
                    memoised = type(key) is int and key in args["self"]._memo
                    op = (ops[frame.f_code], memoised)
                if op is not None:
                    depth += 1
                    entered += 1
            elif event == "return" and op is not None:
                depth -= 1
                if not depth:
                    frames.setdefault(op, Counter())[entered] += 1
                    entered, op = 0, None

        # As above: no collection may run finalizers inside an operation.
        collecting = gc.isenabled()
        gc.disable()
        sys.setprofile(profile)
        try:
            return run(scheme)
        finally:
            sys.setprofile(None)
            if collecting:
                gc.enable()

    monkeypatch.setattr(CachingScheme, "run", profiled_run)
    with recording_traces(tmp_path):
        result = run_scheme_with_faults(
            "hier-gd", config, traces, plan, seed=0
        )
    assert result.messages["client_failures"] > 0
    for name in ("__contains__", "add", "discard"):
        hot = frames[name, True]
        assert set(hot) == {1}, (name, hot)
        assert sum(hot.values()) > 100, name
    # First touches hash the key: the guard tells the two paths apart.
    assert min(frames["__contains__", False]) > 1


#: A plain churn schedule for the guard shape (3 clusters x 16 clients):
#: failures, and a join whose newcomer later fails.
CHURN_EVENTS = [
    ChurnEvent(at_request=1_000, kind="fail", cluster=0, client=3),
    ChurnEvent(at_request=3_000, kind="join", cluster=1),
    ChurnEvent(at_request=5_000, kind="fail", cluster=2, client=7),
    ChurnEvent(at_request=7_000, kind="fail", cluster=1, client=16),
]


@pytest.mark.parametrize("schedule", ["composite plan", "churn events"])
def test_churning_locate_enters_one_locate_frame(schedule, monkeypatch):
    """On a run with churn every ``_locate`` call — lookup, eviction
    notice or failure sweep — enters exactly one ``_locate`` frame: the
    directory repair is the function's last branch, not an override
    around ``super()._locate``.  Measured on the Bloom guard shape
    (9 000 requests): under the composite 10 % plan 9 061 calls, of which
    the subclass-and-``super()`` pair made 5 306 enter two; with the four
    events above and no fault layer 8 763 calls, 8 757 of them two."""
    config = guard_config(directory="bloom")
    traces = generate_workloads(config, seed=0)
    per_call = Counter()
    run = CachingScheme.run

    def profiled_run(scheme):
        depth = entered = 0

        def profile(frame, event, arg):
            nonlocal depth, entered
            if frame.f_code.co_name != "_locate":
                return
            if event == "call":
                depth += 1
                entered += 1
            elif event == "return":
                depth -= 1
                if not depth:
                    per_call[entered] += 1
                    entered = 0

        sys.setprofile(profile)
        try:
            return run(scheme)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(CachingScheme, "run", profiled_run)
    if schedule == "composite plan":
        result = run_scheme_with_faults(
            "hier-gd", config, traces, robustness_plan(0.1), seed=0
        )
    else:
        result = HierGdScheme(config, traces, events=CHURN_EVENTS).run()
    assert result.messages["client_failures"] > 0
    assert result.messages["directory_repairs"] > 0
    assert set(per_call) == {1} and per_call[1] > 5_000, per_call


@pytest.mark.parametrize("sizes", ["unit", "sized"])
def test_fault_free_run_answers_from_the_state_indexes(sizes, monkeypatch):
    """One request path serves unit and sized runs alike, so it must not
    pay per request for what the state already indexes: sizes are read
    inline, the presence indexes are updated inline, and ``_locate`` is
    asked only about objects ``p2p_present`` lists (where a fixed
    membership makes it the set of what ``_locate`` can find)."""
    counted = {
        CachingScheme._size_of.__code__: "_size_of",
        PresenceIndex.add.__code__: "PresenceIndex.add",
        PresenceIndex.discard.__code__: "PresenceIndex.discard",
    }
    locate = HierGdScheme._locate.__code__
    entered = Counter()
    run = CachingScheme.run

    def profiled_run(scheme):
        def profile(frame, event, arg):
            if event != "call":
                return
            code = frame.f_code
            if code is locate:
                state, obj = frame.f_locals["state"], frame.f_locals["obj"]
                entered["_locate" if obj in state.p2p_present else "unlisted"] += 1
            elif code in counted:
                entered[counted[code]] += 1

        sys.setprofile(profile)
        try:
            return run(scheme)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(CachingScheme, "run", profiled_run)
    result = run_scheme("hier-gd", guard_config(sizes, directory="exact"), seed=0)
    for counter in ("client_evictions", "diversions", "p2p_lookups", "push_requests"):
        assert result.messages[counter] > 0, counter
    # Diverted objects are found through ``_locate``: the guard bites.
    assert entered.pop("_locate") > 0
    assert not entered


def test_greedy_dual_miss_path_makes_one_heap_call(monkeypatch):
    """Greedy-dual owns one record per key and its own heap: on a
    fault-free unit-size Hier-GD run, an evicting insert whose heap head
    is live makes exactly one heap call (the victim's pop and the new
    entry's push are one ``heapreplace``; ``heappop`` + ``heappush`` made
    two), an insert that evicts nothing one ``heappush``, and a hit —
    ``lookup`` or the engine's inline proxy hit — none.  Both presence
    indexes map each object to an ``int`` bitmask, not a set."""
    calls = Counter()
    for name in ("heappop", "heappush", "heapreplace"):
        def counted(*args, _fn=getattr(greedy_dual, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(greedy_dual, name, counted)

    #: (evicting, head live) -> Counter(heap calls per insert).
    inserts = {}
    #: Served tier or "lookup hit" -> Counter(heap calls per hit).
    hits = {}
    schemes = []
    insert_absent = GreedyDualCache.insert_absent
    lookup = GreedyDualCache.lookup
    process = HierGdScheme.process

    def tally(table, key, before):
        table.setdefault(key, Counter())[calls.total() - before] += 1

    def watched_insert(self, key, cost, size):
        assert size == 1
        head_live = False
        if self._heap:
            _prio, seq, head = self._heap[0]
            rec = self._entries.get(head)
            head_live = rec is not None and rec[3] == seq
        evicting = self._used + size > self.capacity
        before = calls.total()
        evicted = insert_absent(self, key, cost, size)
        tally(inserts, (evicting, head_live), before)
        return evicted

    def watched_lookup(self, key):
        before = calls.total()
        hit = lookup(self, key)
        if hit:
            tally(hits, "lookup hit", before)
        return hit

    def watched_process(self, cluster, client, obj):
        schemes.append(self)
        before = calls.total()
        tier = process(self, cluster, client, obj)
        if tier == TIER_LOCAL_PROXY:
            tally(hits, tier, before)
        return tier

    monkeypatch.setattr(GreedyDualCache, "insert_absent", watched_insert)
    monkeypatch.setattr(GreedyDualCache, "lookup", watched_lookup)
    monkeypatch.setattr(HierGdScheme, "process", watched_process)
    result = run_scheme("hier-gd", guard_config(directory="exact"), seed=0)
    assert result.messages["client_evictions"] > 0

    live_head = inserts[True, True]
    assert set(live_head) == {1} and live_head[1] > 1_000, live_head
    assert set(inserts[False, False]) == set(inserts[False, True]) == {1}
    # Heads that are stale or raised lazily cost a call each: the guard
    # tells the live head apart.
    assert max(inserts[True, False]) > 1
    assert set(hits) == {TIER_LOCAL_PROXY, "lookup hit"}
    for tier, per_hit in hits.items():
        assert set(per_hit) == {0} and per_hit[0] > 100, (tier, per_hit)

    scheme = schemes[0]
    for index in (scheme._proxy_presence, scheme._dir_presence):
        assert len(index) > 50
        assert {type(mask) for mask in index._holders.values()} == {int}


@pytest.mark.parametrize("sizes", ["unit", "sized"])
@pytest.mark.parametrize("name", ["nc", "sc", "squirrel"])
def test_single_cache_request_enters_the_scheme_and_one_cache_call(
    name, sizes, monkeypatch
):
    """NC, SC and Squirrel serve every request, of any tier, in two Python
    frames: the scheme's ``process`` and one cache call (``LfuCache`` /
    ``LruCache.lookup_or_insert``, which admit a miss, victims included, in
    their own frame).  Sizes are read inline, SC's presence index is read
    and written inline (smallest holder, probe count, ``add`` /
    ``discard``) and Squirrel's home-miss charge is added inline.  Through
    the index's and the cache's methods SC entered 5-6 frames on a unit
    miss (``first_holder``, ``probes_to``, ``add``, a ``discard`` per
    victim) and Squirrel 3 on a hit (``_size_of``) and 5 on a miss
    (``_size_of``, ``insert``, ``add_extra_latency``)."""
    config = guard_config(sizes)
    frames, result = frames_by_tier(monkeypatch, lambda: run_scheme(name, config, seed=0))
    assert sum(sum(c.values()) for c in frames.values()) == result.n_requests
    assert {n for c in frames.values() for n in c} == {2}
    # Every tier the scheme serves from is in the count: not vacuous.
    served = {
        "nc": {TIER_LOCAL_PROXY, TIER_SERVER},
        "sc": {TIER_LOCAL_PROXY, TIER_COOP_PROXY, TIER_SERVER},
        "squirrel": {TIER_LOCAL_P2P, TIER_SERVER},
    }[name]
    assert set(frames) == served and min(sum(c.values()) for c in frames.values()) > 100


@pytest.mark.parametrize("name", ["nc-ec", "sc-ec"])
def test_unified_proxy_hit_enters_the_scheme_and_one_cache_call(name, monkeypatch):
    """NC-EC and SC-EC serve a local-proxy hit in two Python frames: the
    scheme's ``process`` and ``TieredCache.request``, whose count-mode
    tracker keeps a proxy-tier hit a dict write.  (Through the methods it
    was 6: ``lookup_tier`` → ``LfuCache.lookup`` → the default value's
    lambda → ``TopKTracker.add`` → ``HeapDict.push``.)  Byte-budget
    placements go to the tracker's methods, so a sized hit is not held to
    two."""
    config = guard_config()
    frames, result = frames_by_tier(monkeypatch, lambda: run_scheme(name, config, seed=0))
    assert sum(sum(c.values()) for c in frames.values()) == result.n_requests
    hits = frames[TIER_LOCAL_PROXY]
    print("HITS", sorted(hits.items()))
    assert sum(hits.values()) > 1_000 and max(hits) <= 2
    # The tracker's moves do real work: not vacuous.
    assert max(max(c) for tier, c in frames.items() if tier != TIER_LOCAL_PROXY) > 2


@pytest.mark.parametrize("name", ["nc-ec", "sc-ec"])
def test_count_mode_unified_miss_enters_no_heapdict_frame(name, monkeypatch):
    """A count-mode NC-EC / SC-EC miss makes the tracker's heap moves by
    friend access: ``TopKTracker.add`` / ``remove`` enter no ``HeapDict``
    method (``_compact``, the amortised rebuild, aside).  SC-EC's probe
    scan reads the other clusters' caches inline too.  Through the
    ``HeapDict`` methods a unit miss entered 1-8 of their frames
    (``push``, ``peek_min`` / ``pop_min``, ``_materialize_min``)."""
    heap_methods = {
        f.__code__
        for attr, f in vars(HeapDict).items()
        if hasattr(f, "__code__") and attr != "_compact"
    }
    config = guard_config()
    frames, result = frames_by_tier(
        monkeypatch, lambda: run_scheme(name, config, seed=0),
        counted=lambda code: code in heap_methods,
    )
    misses = {
        tier: c for tier, c in frames.items() if tier not in (TIER_LOCAL_PROXY, TIER_LOCAL_P2P)
    }
    assert sum(sum(c.values()) for c in misses.values()) > 1_000
    assert {n for c in misses.values() for n in c} == {0}
    if name == "sc-ec":
        assert result.tier_counts[TIER_COOP_PROXY] and result.tier_counts[TIER_COOP_P2P]


@pytest.mark.parametrize("sizes", ["unit", "sized"])
@pytest.mark.parametrize("name", ["fc", "fc-ec"])
def test_coordinated_request_enters_at_most_the_store_frame(name, sizes, monkeypatch):
    """FC and FC-EC serve a local hit in ``process`` alone (FC-EC's tier is
    a read of the tracker's top partition), and a miss that places and
    drops no copy in ``process`` and ``_consider_copy``: sizes, the copy
    value and the store's head are read in that frame.  Through the
    methods an FC-EC local hit entered 3 (``in_top`` →
    ``HeapDict.__contains__``) and such a unit miss up to 6 (``_size_of``,
    ``_value``, ``peek_min`` → ``_materialize_min``)."""
    config = guard_config(sizes)
    frames, result = frames_by_tier(
        monkeypatch, lambda: run_scheme(name, config, seed=0),
        watch=lambda scheme: scheme._placement_updates,
    )
    assert sum(sum(c.values()) for c in frames.values()) == result.n_requests
    hits, unplaced, placed = Counter(), Counter(), Counter()
    for (tier, changed), entered in frames.items():
        if tier in (TIER_LOCAL_PROXY, TIER_LOCAL_P2P):
            assert not changed
            hits.update(entered)
        else:
            (placed if changed else unplaced).update(entered)
    assert set(hits) == {1} and sum(hits.values()) > 1_000
    assert max(unplaced) <= 2 and sum(unplaced.values()) > 500
    if name == "fc-ec":
        assert (TIER_LOCAL_P2P, False) in frames
    # Placements enter the mutation methods: the guard tells them apart.
    assert max(placed) > 2


@pytest.mark.parametrize("sizes", ["unit", "sized"])
@pytest.mark.parametrize("directory", ["exact", "bloom"])
def test_fault_free_run_asks_the_transport_for_no_new_exchange(
    directory, sizes, monkeypatch
):
    attempts = Counter()
    attempt = Transport.attempt

    def counted(self, exchange, force_fail=False):
        attempts[exchange.kind] += 1
        return attempt(self, exchange, force_fail)

    monkeypatch.setattr(Transport, "attempt", counted)
    config = guard_config(sizes, directory=directory)
    result = run_scheme("hier-gd", config, seed=0)
    pushed = result.tier_counts[TIER_COOP_P2P]
    assert pushed > 0 and result.messages["p2p_lookups"] > 0
    if directory == "exact":
        assert not attempts
    else:
        # The scan asks one PUSH per holder it finds, the first answers.
        assert attempts == {"push": pushed}


def frames_entered(call) -> int:
    """Python frames ``call()`` enters, its own excluded."""
    entered = 0

    def profile(frame, event, arg):
        nonlocal entered
        if event == "call":
            entered += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return entered - 1


def test_overlay_membership_enters_few_frames():
    """Joins and failures on a 100-node Pastry overlay cost table
    arithmetic, not a method chain per node."""
    overlay = joined(Overlay, 100)
    joins = [
        frames_entered(lambda: overlay.add_named(f"cache-{i}")) for i in range(100, 110)
    ]
    assert max(joins) <= 100, joins
    victims = overlay.node_ids()[::11][:10]
    failures = sorted(frames_entered(lambda: overlay.fail(v)) for v in victims)
    assert failures[-1] <= 1_200 and failures[len(failures) // 2] <= 150, failures


def test_first_touch_owner_miss_enters_one_frame():
    """After a membership change every object misses the first-touch memo
    once more, and a miss is one frame: it reads the patched owner table,
    asks ``owner_of`` nothing, and every 64th routes for the hop
    statistic.  Measured on the guard shape: 300 misses, 300 memo frames
    and 4 routes.  Through the per-epoch ``Dht`` memo a miss entered
    2.28 frames on average on a 100-node overlay (the memo's and
    ``numerically_closest``, plus the sampled routes)."""
    config = guard_config()
    traces = generate_workloads(config, seed=0)
    # A schedule whose one event never falls due: a run with churn.
    scheme = HierGdScheme(
        config, traces, events=[ChurnEvent(at_request=10**9, kind="join", cluster=0)]
    )
    state = scheme.states[0]
    state.fail(3, scheme._locate)
    state.build_placement()
    memo, n = state.owner_of, len(state.object_keys)
    assert memo is state.owner_memo and not memo and n >= 128
    miss = type(memo).__missing__.__code__
    entered = Counter()  # (caller, callee) per frame

    def profile(frame, event, arg):
        if event == "call":
            entered[frame.f_back.f_code.co_name, frame.f_code.co_name] += 1

    gc.disable()
    sys.setprofile(profile)
    try:
        owners = [memo[obj] for obj in range(n)]
    finally:
        sys.setprofile(None)
        gc.enable()
    assert owners == state.owner_table
    assert entered["<listcomp>", miss.co_name] == n == memo.misses
    from_miss = {callee: k for (caller, callee), k in entered.items() if caller == miss.co_name}
    assert from_miss == {"route": n // 64}
    assert state.overlay.stats.messages == n // 64


def test_prowgen_candidates_enter_no_frame():
    """ProWGen's emit loop enters Python frames per candidate window,
    alias rebuild and sync, none per out-of-stack candidate.

    Measured on this shape (one ``hiergd_scale`` cluster cut to 60 000
    requests, seed 0): 50 072 candidates, 226 frames, 143 of them in 15
    window refills and 63 in 3 alias-table builds (1 up front, 2
    rebuilds); the scalar draws entered 4 per candidate."""
    config = ProWGenConfig(n_requests=60_000, n_objects=2_000, n_clients=100)
    loop = _emit_stream_chunks.__code__
    calls, frames = Counter(), Counter()  # per call the loop makes itself
    depth, callee = 0, None

    def profile(frame, event, arg):
        nonlocal depth, callee
        if frame.f_code is loop:  # the generator's own resumes and yields
            return
        if event == "call":
            if not depth:
                if frame.f_back is None or frame.f_back.f_code is not loop:
                    return
                callee = frame.f_code.co_qualname.rpartition(".")[2]
                calls[callee] += 1
            depth += 1
            frames[callee] += 1
        elif event == "return" and depth:
            depth -= 1

    rng = np.random.default_rng(0)
    counts = _assign_counts(config, rng)
    gc.disable()
    sys.setprofile(profile)
    try:
        emitted = sum(len(chunk) for chunk in _emit_stream_chunks(config, counts, rng, 1 << 15))
    finally:
        sys.setprofile(None)
        gc.enable()
    assert emitted == config.n_requests

    # The scalar-draw model's integers() calls are the candidates.
    model_rng = CountingRng(np.random.default_rng(0))
    model_counts = _assign_counts(config, model_rng)
    for _ in naive_emit_stream_chunks(config, model_counts, model_rng, 1 << 15):
        pass
    candidates = model_rng.integers_calls

    # Every frame is under a call of one of these, each at most this many.
    per_call = {"refill": 12, "build_outside_tables": 25, "resolve": 2, "sync": 1,
                "uniforms": 2}
    setup = {"_sum", "stack_capacity", "__init__", "zipf_weights", "_cumsum_dispatcher",
             "cumsum"}
    assert set(calls) <= setup | set(per_call), calls
    for name, most in per_call.items():
        assert frames[name] <= most * calls[name], (name, frames[name], calls[name])
    assert sum(frames[name] for name in setup) <= 12, frames
    windows, rebuilds = calls["refill"], calls["resolve"]
    assert rebuilds == calls["build_outside_tables"] - 1
    per_window = _WINDOW // 3 * 2  # two candidates a triple of outputs
    assert windows * per_window >= candidates > 40_000
    assert windows < 2 * candidates / per_window + 10  # few end at a sync or rejection
    assert sum(frames.values()) <= 300, (sum(frames.values()), candidates, calls)


class CountingRng:
    """A ``Generator`` that counts its scalar ``integers`` calls."""

    def __init__(self, rng):
        self._rng, self.integers_calls = rng, 0

    def integers(self, *args, **kwargs):
        self.integers_calls += "size" not in kwargs
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)
