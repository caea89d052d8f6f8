"""Unit and stacking tests for the composable transport stack.

The load-bearing contracts:

* **ladder accounting** — the fault layer charges exactly the old
  ``Faulty*`` timeout/retry/fallback arithmetic through the bound
  scheme's latency sink;
* **zero-plan identity** — a ``FaultTransport`` with an all-zero plan is
  a pure pass-through: not faulty, installs nothing, and a full scheme
  run through it is byte-identical to the plain path;
* **stacking-order invariance** — a draw-only watcher layer never charges
  or decides, so placing it inside or outside the fault layer cannot
  change a ``SchemeResult``.
"""

import dataclasses
from collections import Counter

import pytest

from repro.core.config import SimulationConfig
from repro.core.directory import ExactDirectory, LossyDirectory
from repro.core.run import run_scheme
from repro.daemon import DaemonTransport, LocalCluster
from repro.faults import FaultInjector, FaultPlan
from repro.protocol import (
    EVICTION_NOTICE,
    FAULT_COUNTERS,
    P2P_FETCH,
    PASS_DOWN,
    PROXY_FETCH,
    PUSH,
    FaultTransport,
    PolicySet,
    RetryPolicy,
    Transport,
    build_transport,
)
from repro.protocol.replay import ReplayTransport
from repro.workload import ProWGenConfig, generate_cluster_traces
from tests.protocol.test_stack import Spy

TINY = ProWGenConfig(n_requests=3000, n_objects=300, n_clients=10)

PLAN = FaultPlan(
    p2p_loss=0.1,
    proxy_loss=0.1,
    push_loss=0.1,
    delay_rate=0.1,
    stale_rate=0.05,
    unresponsive_fraction=0.1,
    seed=7,
)


def cfg(**kw):
    kw.setdefault("n_proxies", 2)
    kw.setdefault("proxy_cache_fraction", 0.3)
    return SimulationConfig(workload=TINY, **kw)


@pytest.fixture(scope="module")
def traces():
    return generate_cluster_traces(TINY, 2, seed=0)


class _Sink:
    """Stand-in scheme: just the latency seam the transport binds to."""

    def __init__(self):
        self.charged = 0.0

    def add_extra_latency(self, amount):
        self.charged += amount


def _fault(plan, scope=""):
    transport = FaultTransport(Transport(cfg().network), plan, scope=scope)
    sink = _Sink()
    transport.bind(sink)
    return transport, sink


class TestFaultLadder:
    def test_exhausted_ladder_charges_backoff_series(self):
        plan = FaultPlan(p2p_loss=1.0, max_retries=1, seed=3)
        transport, sink = _fault(plan)
        rtt = cfg().network.link_rtts()[P2P_FETCH.link]

        assert transport.attempt(P2P_FETCH) is False
        counters = transport.fault_counters
        assert counters["timeouts"] == 2
        assert counters["retries"] == 1
        assert counters["fallbacks"] == 1
        # One timeout at rtt, one retry at rtt * backoff_base.
        assert sink.charged == pytest.approx(rtt * (1.0 + plan.backoff_base))

    def test_force_fail_pays_the_full_ladder_on_a_lossless_link(self):
        # push_loss stays 0.0: an unresponsive peer fails the exchange
        # anyway, and the caller pays every round of the default budget.
        plan = FaultPlan(p2p_loss=0.1, seed=3)
        transport, sink = _fault(plan)
        rtt = cfg().network.link_rtts()[PUSH.link]

        assert transport.attempt(PUSH, force_fail=True) is False
        counters = transport.fault_counters
        assert counters["timeouts"] == plan.max_retries + 1
        assert counters["retries"] == plan.max_retries
        assert counters["fallbacks"] == 1
        expected = sum(rtt * plan.backoff_base**i for i in range(plan.max_retries + 1))
        assert sink.charged == pytest.approx(expected)

    def test_delay_penalty_charges_extra_rtt_multiples(self):
        plan = FaultPlan(delay_rate=1.0, delay_factor=3.0, seed=3)
        transport, sink = _fault(plan)
        rtt = cfg().network.link_rtts()[PROXY_FETCH.link]

        assert transport.attempt(PROXY_FETCH) is True
        assert sink.charged == pytest.approx((plan.delay_factor - 1.0) * rtt)
        assert transport.fault_counters["timeouts"] == 0

    def test_lan_exchanges_never_enter_the_ladder(self):
        plan = FaultPlan(p2p_loss=1.0, proxy_loss=1.0, push_loss=1.0, seed=3)
        transport, sink = _fault(plan)

        assert transport.attempt(PASS_DOWN) is True
        assert transport.attempt(EVICTION_NOTICE) is True
        assert sink.charged == 0.0
        assert all(n == 0 for n in transport.fault_counters.values())

    def test_install_counters_merges_counts_accrued_before_install(self):
        # Regression: schemes attempt exchanges during construction,
        # *then* install their message dict.  Rebind-and-drop lost those
        # early timeouts/fallbacks from the reported totals.
        plan = FaultPlan(p2p_loss=1.0, max_retries=0, seed=3)
        transport, _ = _fault(plan)
        assert transport.attempt(P2P_FETCH) is False  # before install

        msg = {"timeouts": 0, "p2p_lookups": 5}
        transport.install_counters(msg)
        assert transport.fault_counters is msg
        assert msg["timeouts"] == 1  # pre-install count survived
        assert msg["fallbacks"] == 1
        assert msg["p2p_lookups"] == 5

        # Re-installing the same dict must not double-count.
        transport.install_counters(msg)
        assert msg["timeouts"] == 1

    def test_install_counters_rebinds_the_scheme_dict(self):
        plan = FaultPlan(p2p_loss=1.0, max_retries=0, seed=3)
        transport, _ = _fault(plan)
        msg = {"p2p_lookups": 5}
        transport.install_counters(msg)

        assert transport.attempt(P2P_FETCH) is False
        assert transport.fault_counters is msg
        assert msg["p2p_lookups"] == 5  # existing accounting untouched
        assert msg["timeouts"] == 1
        assert msg["fallbacks"] == 1


class TestNonDefaultPolicyLadders:
    """The fault layer must charge and count whatever policy the plan carries."""

    def test_immediate_policy_charges_one_round(self):
        plan = FaultPlan(
            p2p_loss=1.0,
            seed=3,
            policies=PolicySet(default=RetryPolicy(strategy="immediate")),
        )
        transport, sink = _fault(plan)
        rtt = cfg().network.link_rtts()[P2P_FETCH.link]

        assert transport.attempt(P2P_FETCH) is False
        counters = transport.fault_counters
        assert counters["timeouts"] == 1
        assert counters["retries"] == 0
        assert counters["fallbacks"] == 1
        assert sink.charged == pytest.approx(rtt)

    def test_hedged_policy_charges_max_books_all_rounds(self):
        plan = FaultPlan(
            p2p_loss=1.0,
            seed=3,
            policies=PolicySet(default=RetryPolicy(strategy="hedged")),
        )
        transport, sink = _fault(plan)
        rtt = cfg().network.link_rtts()[P2P_FETCH.link]

        assert transport.attempt(P2P_FETCH) is False
        counters = transport.fault_counters
        assert counters["timeouts"] == plan.max_retries + 1
        assert counters["retries"] == plan.max_retries
        assert sink.charged == pytest.approx(rtt)  # max, not the serial sum

    def test_install_counters_merges_under_a_policy_plan(self):
        # Satellite regression: the merge of pre-install ladder counts
        # into the scheme's dict must survive a non-default policy whose
        # per-ladder deltas differ from the plan's protocol knobs.
        plan = FaultPlan(
            p2p_loss=1.0,
            seed=3,
            policies=PolicySet(
                default=RetryPolicy(strategy="hedged"),
                per_link={"p2p": RetryPolicy(strategy="immediate")},
            ),
        )
        transport, _ = _fault(plan)
        assert transport.attempt(P2P_FETCH) is False  # immediate: 1 timeout
        assert transport.attempt(PUSH, force_fail=True) is False  # hedged ladder

        msg = {"timeouts": 0, "p2p_lookups": 5}
        transport.install_counters(msg)
        assert transport.fault_counters is msg
        assert msg["timeouts"] == 1 + (plan.max_retries + 1)
        assert msg["retries"] == plan.max_retries
        assert msg["fallbacks"] == 2
        assert msg["p2p_lookups"] == 5

        transport.install_counters(msg)  # re-install must not double-count
        assert msg["timeouts"] == 1 + (plan.max_retries + 1)

    @pytest.mark.parametrize("name", ["hier-gd", "fc", "squirrel"])
    def test_stacking_order_still_commutes_under_policy_plan(self, name, traces):
        plan = dataclasses.replace(
            PLAN,
            policies=PolicySet(per_link={"proxy": RetryPolicy(max_retries=4)}),
        )
        watch_outside = Spy(FaultTransport(Transport(cfg().network), plan, scope=name))
        watch_inside = FaultTransport(Spy(Transport(cfg().network)), plan, scope=name)
        outside = run_scheme(name, cfg(), traces, transport=watch_outside)
        inside = run_scheme(name, cfg(), traces, transport=watch_inside)
        assert dataclasses.asdict(outside) == dataclasses.asdict(inside)


class TestCounterAndNoticeHolders:
    """One contract for the three transports that hold fault counters and
    rebuild the lossy-notice channel: the simulated fault layer, the
    replay of a recording, and the driver of live daemons."""

    PLAN = FaultPlan(p2p_loss=1.0, max_retries=0, stale_rate=0.5, seed=3)

    @pytest.fixture(scope="class")
    def cluster(self):
        with LocalCluster(n_clients=1) as running:
            yield running

    @pytest.fixture(params=["fault", "replay", "daemon"])
    def holder(self, request, cluster):
        """A bound holder under ``PLAN`` whose next P2P fetch times out."""
        network, plan = cfg().network, self.PLAN
        if request.param == "fault":
            transport = FaultTransport(Transport(network), plan, scope="s")
        elif request.param == "replay":
            rtt = network.link_rtts()[P2P_FETCH.link]
            lost = ["x", -1, P2P_FETCH.kind, P2P_FETCH.link, False, [rtt],
                    {"timeouts": 1, "fallbacks": 1}, None]
            transport = ReplayTransport(network, [lost], plan=plan, scope="s")
        else:
            transport = DaemonTransport(network, cluster.routes, plan=plan, scope="s")
            request.addfinalizer(transport.close)
        transport.bind(_Sink())
        return transport

    def test_pre_install_counts_survive_the_handover(self, holder):
        assert holder.attempt(P2P_FETCH) is False  # before install

        msg = {"timeouts": 0, "p2p_lookups": 5}
        holder.install_counters(msg)
        assert holder.fault_counters is msg
        assert msg["timeouts"] == 1  # merged, not rebound-and-dropped
        assert msg["fallbacks"] == 1
        assert msg["p2p_lookups"] == 5

        holder.install_counters(msg)  # a re-install must not double-count
        assert msg["timeouts"] == 1

    def test_notice_drops_come_from_the_plans_named_substream(self, holder):
        def survivors(directory):
            for obj in range(200):
                directory.add(obj)
            for obj in range(200):
                directory.remove(obj)
            return [obj for obj in range(200) if obj in directory]

        def expected(cluster):
            rng = FaultInjector(self.PLAN, scope="s").stream("notices", cluster)
            return survivors(
                LossyDirectory(ExactDirectory(), self.PLAN.stale_rate, rng)
            )

        stale = [survivors(holder.wrap_directory(ExactDirectory(), c)) for c in (0, 1)]
        assert stale == [expected(0), expected(1)]
        assert stale[0] and stale[0] != stale[1]  # lossy, and per cluster


class TestBaseTransport:
    def test_attempt_honors_force_fail(self):
        # Regression: the base layer ignored force_fail and reported an
        # unresponsive peer's exchange as delivered.  The *cost* of the
        # failure is the fault layer's business, but the outcome is not.
        transport = Transport(cfg().network)
        assert transport.attempt(PUSH) is True
        assert transport.attempt(PUSH, force_fail=True) is False

    def test_zero_plan_fault_layer_delegates_force_fail(self):
        transport, sink = _fault(FaultPlan())
        assert transport.attempt(PUSH, force_fail=True) is False
        assert sink.charged == 0.0  # zero plan: no ladder, no charges


class TestZeroPlanIdentity:
    def test_zero_plan_layer_is_pure_passthrough(self):
        transport, sink = _fault(FaultPlan())

        assert transport.faulty is False
        assert transport.attempt(P2P_FETCH) is True
        assert transport.unresponsive(0, 0) is False
        assert sink.charged == 0.0

        msg = {}
        transport.install_counters(msg)
        assert msg == {}
        assert transport.fault_counters == {}

        directory = object()
        assert transport.wrap_directory(directory, 0) is directory

    @pytest.mark.parametrize("name", ["hier-gd", "fc", "squirrel"])
    def test_zero_plan_run_byte_identical_to_plain(self, name, traces):
        plain = run_scheme(name, cfg(), traces)
        layered = run_scheme(
            name,
            cfg(),
            traces,
            transport=FaultTransport(Transport(cfg().network), FaultPlan()),
        )
        assert dataclasses.asdict(layered) == dataclasses.asdict(plain)
        assert not any(key in layered.messages for key in FAULT_COUNTERS)


class TestWatcher:
    def test_watched_run_byte_identical_to_plain(self, traces):
        # Under a fault layer every cooperation hop is an exchange, so
        # each one actually crosses the stack.
        plain = run_scheme(
            "hier-gd", cfg(), traces,
            transport=build_transport(cfg().network, PLAN, scope="hier-gd"),
        )
        watcher = Spy(build_transport(cfg().network, PLAN, scope="hier-gd"))
        watched = run_scheme("hier-gd", cfg(), traces, transport=watcher)
        assert dataclasses.asdict(watched) == dataclasses.asdict(plain)
        counted = Counter((x.kind, ok) for x, _, ok in watcher.seen)
        lookups = counted["lookup_query", True] + counted["lookup_query", False]
        assert lookups == watched.messages["p2p_lookups"]
        # Every push that went out and failed, unresponsive holders included.
        assert counted["push", False] == watched.messages["failed_pushes"] > 0


class TestStackingOrder:
    @pytest.mark.parametrize("name", ["hier-gd", "fc", "fc-ec", "squirrel"])
    def test_fault_and_watcher_layers_commute(self, name, traces):
        watch_outside = Spy(FaultTransport(Transport(cfg().network), PLAN, scope=name))
        watch_inside = FaultTransport(Spy(Transport(cfg().network)), PLAN, scope=name)
        outside = run_scheme(name, cfg(), traces, transport=watch_outside)
        inside = run_scheme(name, cfg(), traces, transport=watch_inside)
        assert dataclasses.asdict(outside) == dataclasses.asdict(inside)


class TestBuildTransport:
    def test_default_is_the_bare_base_layer(self):
        transport = build_transport(cfg().network)
        assert type(transport) is Transport
        assert transport.faulty is False

    def test_full_stack_assembly(self):
        transport = build_transport(cfg().network, plan=PLAN, scope="fc")
        assert isinstance(transport, FaultTransport)
        assert type(transport.inner) is Transport
        assert transport.scope == "fc"
        assert transport.faulty is True

    def test_zero_plan_stack_is_not_faulty(self):
        transport = build_transport(cfg().network, plan=FaultPlan())
        assert isinstance(transport, FaultTransport)
        assert transport.faulty is False
