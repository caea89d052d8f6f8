"""One decide, one pay: ``draw`` is the only method a layer overrides.

The transport stack decides an exchange in :meth:`Transport.draw` and
pays it in :meth:`Transport.attempt`.  These tests hold the stack to
what that buys:

* a layer that overrides ``draw`` and nothing else sees every exchange
  exactly once, wherever it is stacked and whatever shape of ladder the
  retry strategy draws;
* every stacking order of {fault, watcher, recording} runs a scheme to
  one ``SchemeResult``, and the recorded bytes depend only on which side
  of the fault layer the recording sits;
* what ``attempt`` charges, books and records is the naive application
  of the outcome ``draw`` returned, for any plan and any strategy.

A cancelled ladder only exists on a daemon; docs/PROTOCOL.md §7.2 is
pinned in ``tests/daemon/test_daemon.py``.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimulationConfig
from repro.core.run import build_scheme, generate_workloads
from repro.experiments.robustness import robustness_plan
from repro.faults import FaultPlan
from repro.faults.run import run_scheme_with_faults
from repro.netmodel import NetworkConfig
from repro.protocol import (
    ALL_EXCHANGES,
    STRATEGIES,
    FaultTransport,
    PolicySet,
    RetryPolicy,
    Transport,
    TransportLayer,
    recording_traces,
)
from repro.protocol.trace import RecordingTransport, TraceRecorder
from repro.protocol.wire import event_frame
from repro.workload import ProWGenConfig

TINY = ProWGenConfig(n_requests=3000, n_objects=300, n_clients=10)

PLAN = FaultPlan(p2p_loss=0.3, proxy_loss=0.3, push_loss=0.3, delay_rate=0.3, seed=7)


def cfg(**kw):
    kw.setdefault("n_proxies", 2)
    kw.setdefault("proxy_cache_fraction", 0.3)
    return SimulationConfig(workload=TINY, **kw)


class _Events:
    """Stand-in trace writer: keeps the event lines in memory."""

    def __init__(self):
        self.events = []

    def write_event(self, event):
        self.events.append(event)


class Spy(TransportLayer):
    """A layer written against the contract: ``draw`` and nothing else.

    Also the suite's watcher: ``seen`` lists every decided exchange as
    ``(exchange, force_fail, ok)``, in the order the stack decided them.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self.seen = []

    def draw(self, exchange, force_fail=False):
        outcome = self.inner.draw(exchange, force_fail)
        self.seen.append((exchange, force_fail, outcome.ok))
        return outcome


PLACEMENTS = {
    "outside recording": lambda f, spy: spy(RecordingTransport(f, _Events())),
    "inside recording": lambda f, spy: RecordingTransport(spy(f), _Events()),
    "outside watcher": lambda f, spy: spy(Spy(f)),
    "inside watcher": lambda f, spy: Spy(spy(f)),
}

#: 60 exchanges over every kind, every fifth one to a peer that never answers.
ASKED = [(ALL_EXCHANGES[i % len(ALL_EXCHANGES)], i % 5 == 0) for i in range(60)]


class TestDrawOnlyLayer:
    """(i) Overriding ``draw`` is enough."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_sees_every_exchange_exactly_once(self, placement, strategy):
        spies = []

        def spy(inner):
            spies.append(Spy(inner))
            return spies[-1]

        plan = dataclasses.replace(
            PLAN, policies=PolicySet(default=RetryPolicy(strategy=strategy))
        )
        fault = FaultTransport(Transport(NetworkConfig()), plan, scope="t")
        stack = PLACEMENTS[placement](fault, spy)
        oks = [stack.attempt(x, ff) for x, ff in ASKED]
        (seen,) = [s.seen for s in spies]
        assert [(x, ff) for x, ff, _ in seen] == ASKED
        assert [ok for _, _, ok in seen] == oks
        # Same plan, same scope, same order of asking: every placement
        # decides the same outcomes.
        reference = FaultTransport(Transport(NetworkConfig()), plan, scope="t")
        assert oks == [reference.draw(x, ff).ok for x, ff in ASKED]


LAYERS = ("fault", "watcher", "recording")


def _run_stacked(name, order, directory, traces):
    """Run ``name`` on base → ``order`` (innermost first)."""
    config, plan = cfg(), robustness_plan(0.1)
    recorder = TraceRecorder(directory)
    stack = Transport(config.network)
    for layer in order:
        if layer == "fault":
            stack = FaultTransport(stack, plan, scope=name)
        elif layer == "watcher":
            stack = Spy(stack)
        else:
            stack = recording = recorder.open(name, config, 0, plan, stack)
    scheme = build_scheme(name, config, traces, plan, transport=stack)
    recording.attach(scheme)
    result = scheme.run()
    recorder.close(recording, result)
    return dataclasses.asdict(result), recorder.written[0].read_bytes()


class TestStackingMatrix:
    """(ii) Every order: one result, placement-only bytes."""

    @pytest.mark.parametrize("name", ["fc", "fc-ec", "squirrel", "hier-gd"])
    def test_every_order_agrees(self, name, tmp_path):
        traces = generate_workloads(cfg(), seed=0)
        with recording_traces(tmp_path / "standard") as recorder:
            standard = run_scheme_with_faults(
                name, cfg(), plan=robustness_plan(0.1), seed=0
            )
        results, ladders, rounds = [], set(), set()
        for i, order in enumerate(itertools.permutations(LAYERS)):
            result, recorded = _run_stacked(name, order, tmp_path / str(i), traces)
            results.append(result)
            outside = order.index("recording") > order.index("fault")
            (ladders if outside else rounds).add(recorded)
        assert all(r == dataclasses.asdict(standard) for r in results)
        # Recording outside the fault layer sees ladders — the bytes every
        # entry point records; inside it sees delivered rounds only.
        assert ladders == {recorder.written[0].read_bytes()}
        assert len(rounds) == 1 and rounds != ladders


def _policies():
    knobs = st.fixed_dictionaries(
        {},
        optional={
            "max_retries": st.integers(0, 4),
            "backoff_base": st.floats(1.0, 3.0),
        },
    )

    def policy(strategy):
        if strategy != "capped":
            return knobs.map(lambda kw: RetryPolicy(strategy=strategy, **kw))
        return st.builds(
            lambda kw, cap, jitter: RetryPolicy(
                strategy=strategy, timeout_cap=cap, jitter=jitter, **kw
            ),
            knobs,
            st.none() | st.floats(1.0, 4.0),
            st.floats(0.0, 1.0),
        )

    return st.sampled_from(STRATEGIES).flatmap(policy)


def _plans():
    rate = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    return st.builds(
        FaultPlan,
        p2p_loss=rate,
        proxy_loss=rate,
        push_loss=rate,
        delay_rate=rate,
        delay_factor=st.floats(1.0, 4.0),
        max_retries=st.integers(0, 4),
        backoff_base=st.floats(1.0, 3.0),
        seed=st.integers(0, 2**32),
        policies=st.none()
        | st.builds(
            PolicySet,
            default=_policies(),
            per_link=st.dictionaries(st.sampled_from(["p2p", "proxy", "push"]), _policies()),
        ),
    )


class TestPayingIsApplyingTheOutcome:
    """(iii) ``attempt`` against the ten-line model of what paying means."""

    @settings(max_examples=150, deadline=None)
    @given(
        plan=_plans(),
        asked=st.lists(st.tuples(st.sampled_from(ALL_EXCHANGES), st.booleans()), max_size=30),
    )
    def test_attempt_charges_books_and_records_what_draw_returned(self, plan, asked):
        network = NetworkConfig()
        decider = FaultTransport(Transport(network), plan, scope="t")
        writer = _Events()
        stack = RecordingTransport(
            FaultTransport(Transport(network), plan, scope="t"), writer
        )
        paid = []
        stack._charge = paid.append

        charged, booked, lines = [], {}, []
        for exchange, force_fail in asked:
            outcome = decider.draw(exchange, force_fail)
            charged.extend(outcome.charges)
            for key, delta in outcome.deltas.items():
                booked[key] = booked.get(key, 0) + delta
            lines.append(event_frame(-1, exchange, *outcome.event_fields()))
            assert stack.attempt(exchange, force_fail) is outcome.ok

        assert paid == charged
        assert {k: n for k, n in stack.fault_counters.items() if n} == booked
        assert writer.events == lines
