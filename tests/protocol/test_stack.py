"""One decide, one pay: ``draw`` is the only method a layer overrides.

The transport stack decides an exchange in :meth:`Transport.draw` and
pays it in :meth:`Transport.attempt` (or :meth:`AsyncTransport.begin`,
the same with the waits awaited).  These tests hold the stack to what
that buys:

* a layer that overrides ``draw`` and nothing else sees every exchange
  exactly once on every execution path, wherever it is stacked;
* every stacking order of {fault, watcher, recording} on either
  backend runs a scheme to one ``SchemeResult``, and the recorded bytes
  depend only on which side of the fault layer the recording sits;
* what ``attempt`` charges, books and records is the naive application
  of the outcome ``draw`` returned, for any plan and any strategy;
* a cancelled ladder under recording leaves its event behind
  (docs/PROTOCOL.md §7.2).
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimulationConfig
from repro.core.run import build_scheme, generate_workloads, with_backend
from repro.experiments.robustness import robustness_plan
from repro.faults import FaultPlan
from repro.faults.run import run_scheme_with_faults
from repro.netmodel import NetworkConfig
from repro.protocol import (
    ALL_EXCHANGES,
    PROXY_FETCH,
    STRATEGIES,
    AsyncTransport,
    FaultTransport,
    PolicySet,
    RetryPolicy,
    TraceIncompleteError,
    Transport,
    TransportLayer,
    load_trace,
    recording_traces,
    replay_trace,
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


def _drive(mode, carrier):
    """Carry ``ASKED`` through ``carrier`` on one execution path."""
    clock = carrier.clock
    if mode == "attempt":
        return [carrier.attempt(x, ff) for x, ff in ASKED]
    if mode == "attempt_async":
        return [clock.run(carrier.attempt_async(x, ff)) for x, ff in ASKED]
    if mode == "begin + await":

        async def finish(ladder):
            return await ladder

        return [clock.run(finish(carrier.begin(x, ff))) for x, ff in ASKED]
    return clock.gather(*(carrier.attempt_async(x, ff) for x, ff in ASKED))


class TestDrawOnlyLayer:
    """(i) Overriding ``draw`` is enough, on every execution path."""

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize(
        "mode", ["sync", "attempt", "attempt_async", "begin + await", "gather"]
    )
    def test_sees_every_exchange_exactly_once(self, placement, mode):
        spies = []

        def spy(inner):
            spies.append(Spy(inner))
            return spies[-1]

        fault = FaultTransport(Transport(NetworkConfig()), PLAN, scope="t")
        stack = PLACEMENTS[placement](fault, spy)
        if mode == "sync":
            oks = [stack.attempt(x, ff) for x, ff in ASKED]
        else:
            oks = _drive(mode, AsyncTransport(stack))
        (seen,) = [s.seen for s in spies]
        assert [(x, ff) for x, ff, _ in seen] == ASKED
        assert [ok for _, _, ok in seen] == oks
        # Same plan, same scope, same order of asking: every path and
        # every placement decides the same outcomes.
        reference = FaultTransport(Transport(NetworkConfig()), PLAN, scope="t")
        assert oks == [reference.draw(x, ff).ok for x, ff in ASKED]


LAYERS = ("fault", "watcher", "recording")


def _run_stacked(name, order, backend, directory, traces):
    """Run ``name`` on base → ``order`` (innermost first) → ``backend``."""
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
    scheme = build_scheme(
        name, config, traces, plan, transport=with_backend(stack, backend)
    )
    recording.attach(scheme)
    result = scheme.run()
    recorder.close(recording, result)
    return dataclasses.asdict(result), recorder.written[0].read_bytes()


class TestStackingMatrix:
    """(ii) Every order × both backends: one result, placement-only bytes."""

    @pytest.mark.parametrize("name", ["fc", "hier-gd"])
    def test_every_order_and_backend_agree(self, name, tmp_path):
        traces = generate_workloads(cfg(), seed=0)
        with recording_traces(tmp_path / "standard") as recorder:
            standard = run_scheme_with_faults(
                name, cfg(), plan=robustness_plan(0.1), seed=0
            )
        results, ladders, rounds = [], set(), set()
        for i, order in enumerate(itertools.permutations(LAYERS)):
            for backend in ("sync", "async"):
                result, recorded = _run_stacked(
                    name, order, backend, tmp_path / f"{i}-{backend}", traces
                )
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
        asynchronous=st.booleans(),
    )
    def test_attempt_charges_books_and_records_what_draw_returned(
        self, plan, asked, asynchronous
    ):
        network = NetworkConfig()
        decider = FaultTransport(Transport(network), plan, scope="t")
        writer = _Events()
        stack = RecordingTransport(
            FaultTransport(Transport(network), plan, scope="t"), writer
        )
        if asynchronous:
            stack = AsyncTransport(stack)
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


class TestCancellationUnderRecording:
    """(iv) The recording layer writes a ladder's event when it is drawn."""

    def test_cancelled_ladder_leaves_its_event_and_an_unreplayable_trace(
        self, tmp_path
    ):
        config, plan = cfg(), FaultPlan(proxy_loss=1.0, seed=1)
        recorder = TraceRecorder(tmp_path)
        recording = recorder.open(
            "fc", config, 0, plan, FaultTransport(Transport(config.network), plan)
        )
        carrier = AsyncTransport(recording)
        paid = []
        carrier._charge = paid.append

        ladder = carrier.begin(PROXY_FETCH)
        ladder.close()  # cancelled in its first wait
        recorder.close(recording, None)  # the run it belonged to never finished

        trace = load_trace(recorder.written[0])
        (event,) = trace.events
        _, _, kind, _, ok, charges, deltas, _ = event
        assert (kind, ok) == (PROXY_FETCH.kind, False)
        # The event is the whole ladder as drawn; the caller paid one wait.
        assert len(charges) == plan.max_retries + 1 and paid == charges[:1]
        assert deltas["timeouts"] == plan.max_retries + 1
        assert not trace.complete
        with pytest.raises(TraceIncompleteError):
            replay_trace(recorder.written[0])
