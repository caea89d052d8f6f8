"""Async backend tests: simulated clock, equivalence, concurrency, cancel.

The async transport's whole claim is "same results, overlapping waits".
These tests pin the three legs of that claim: the simulated clock is a
deterministic event loop, driving a scheme through the async backend is
byte-identical to the synchronous path, and concurrency cannot reorder
the fault-RNG substreams because every ladder draws atomically at start.
"""

import asyncio
import dataclasses

import pytest

from repro.core.config import SimulationConfig
from repro.core.run import generate_workloads, run_scheme, with_backend
from repro.faults import FAULTY_SCHEMES, FaultPlan
from repro.faults.run import run_scheme_with_faults
from repro.netmodel import NetworkConfig
from repro.protocol import (
    PROXY_FETCH,
    PUSH,
    AsyncTransport,
    FaultTransport,
    PolicySet,
    RealClock,
    RetryPolicy,
    SimClock,
    Transport,
)
from repro.workload import ProWGenConfig

TINY = ProWGenConfig(n_requests=2000, n_objects=300, n_clients=10)

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


def faulty_stack(plan=PLAN, scope="t"):
    return FaultTransport(Transport(NetworkConfig()), plan, scope=scope)


class TestSimClock:
    def test_run_advances_time_and_returns_value(self):
        clock = SimClock()

        async def ladder():
            await clock.sleep(1.5)
            await clock.sleep(2.5)
            return "done"

        assert clock.run(ladder()) == "done"
        assert clock.now == 4.0

    def test_gather_overlaps_waits(self):
        # Concurrent ladders finish in max-of-waits, not sum-of-waits.
        clock = SimClock()

        async def wait(amount):
            await clock.sleep(amount)
            return amount

        results = clock.gather(wait(3.0), wait(1.0), wait(2.0))
        assert results == [3.0, 1.0, 2.0]  # submission order
        assert clock.now == 3.0

    def test_gather_interleaving_is_deterministic(self):
        def schedule():
            clock = SimClock()
            order = []

            async def ladder(name, waits):
                for w in waits:
                    await clock.sleep(w)
                    order.append((name, clock.now))

            clock.gather(
                ladder("a", [2.0, 2.0]),
                ladder("b", [1.0, 3.0]),
                ladder("c", [4.0]),
            )
            return order, clock.now

        first = schedule()
        assert first == schedule()
        order, now = first
        assert now == 4.0
        assert order == sorted(order, key=lambda item: item[1])

    def test_foreign_awaitables_are_rejected(self):
        clock = SimClock()

        async def bad():
            await asyncio.sleep(0)

        with pytest.raises(RuntimeError, match="other than SimClock.sleep"):
            clock.run(bad())

    def test_crash_in_gather_propagates_and_closes_siblings(self):
        clock = SimClock()
        cleaned = []

        async def crasher():
            await clock.sleep(1.0)
            raise ValueError("boom")

        async def sibling():
            try:
                await clock.sleep(5.0)
            finally:
                cleaned.append(True)

        with pytest.raises(ValueError, match="boom"):
            clock.gather(crasher(), sibling())
        assert cleaned == [True]


class TestRealClock:
    def test_scale_must_be_non_negative(self):
        with pytest.raises(ValueError):
            RealClock(scale=-1.0)

    def test_zero_scale_still_yields(self):
        clock = RealClock(scale=0.0)
        carrier = AsyncTransport(faulty_stack(), clock=clock)

        async def go():
            return await asyncio.gather(
                carrier.attempt_async(PROXY_FETCH),
                carrier.attempt_async(PROXY_FETCH, force_fail=True),
            )

        ok, failed = asyncio.run(go())
        assert ok is True and failed is False

    def test_sync_attempt_requires_sim_clock(self):
        carrier = AsyncTransport(faulty_stack(), clock=RealClock())
        with pytest.raises(RuntimeError, match="SimClock"):
            carrier.attempt(PROXY_FETCH)


class TestEquivalence:
    """The acceptance bar: async == sync, byte for byte."""

    @pytest.mark.parametrize("name", ["fc", "fc-ec", "hier-gd", "squirrel"])
    def test_plain_runs_match(self, name):
        sync = run_scheme(name, cfg(), seed=3)
        asyn = run_scheme(name, cfg(), seed=3, backend="async")
        assert dataclasses.asdict(sync) == dataclasses.asdict(asyn)

    @pytest.mark.parametrize("name", ["fc", "fc-ec", "hier-gd", "squirrel"])
    def test_faulty_runs_match(self, name):
        sync = run_scheme_with_faults(name, cfg(), plan=PLAN, seed=3)
        asyn = run_scheme_with_faults(
            name, cfg(), plan=PLAN, seed=3, backend="async"
        )
        assert dataclasses.asdict(sync) == dataclasses.asdict(asyn)

        # Equivalence by doing the work, not by skipping it: the waits of
        # a whole faulty scheme run were awaited on the simulated clock.
        carrier = AsyncTransport(faulty_stack(scope=name))
        traces = generate_workloads(cfg(), seed=3)
        ran = FAULTY_SCHEMES[name](cfg(), traces, PLAN, transport=carrier).run()
        assert dataclasses.asdict(ran) == dataclasses.asdict(sync)
        assert carrier.clock.now > 0.0

    def test_unknown_backend_is_refused(self):
        with pytest.raises(ValueError, match="unknown backend"):
            with_backend(Transport(NetworkConfig()), "threads")

    def test_async_clock_advances_during_faulty_run(self):
        carrier = AsyncTransport(faulty_stack())
        for _ in range(50):
            carrier.attempt(PROXY_FETCH, force_fail=True)
        assert carrier.clock.now > 0.0


class TestAtomicDraws:
    """Concurrency must not reorder the per-link fault substreams."""

    def _serial_outcomes(self, n):
        stack = faulty_stack()
        return [stack.draw(PROXY_FETCH) for _ in range(n)]

    def test_gathered_ladders_match_serial_draws(self):
        # Many ladders in flight at once, started in submission order,
        # must consume the loss/delay substream exactly as a serial run.
        stack = faulty_stack()
        carrier = AsyncTransport(stack)
        coros = [carrier.attempt_async(PROXY_FETCH) for _ in range(200)]
        results = carrier.clock.gather(*coros)
        expected = self._serial_outcomes(200)
        assert results == [o.ok for o in expected]
        want = {}
        for o in expected:
            for key, d in o.deltas.items():
                want[key] = want.get(key, 0) + d
        have = {k: v for k, v in stack.fault_counters.items() if v}
        assert have == want

    def test_begin_draws_synchronously(self):
        # All RNG draws happen inside begin(), before any await: two
        # carriers beginning in the same order agree even though one
        # never runs its awaitables.
        stack_a, stack_b = faulty_stack(), faulty_stack()
        a, b = AsyncTransport(stack_a), AsyncTransport(stack_b)
        pending = [a.begin(PUSH) for _ in range(100)]
        for _ in range(100):
            b.attempt(PUSH)
        assert stack_a.fault_counters == stack_b.fault_counters
        for coro in pending:
            coro.close()


class TestCancellation:
    """Cancelled in-flight ladders: draw stands, remaining waits vanish."""

    def _failing_plan(self):
        # Certain loss: every ladder is the full timeout ladder.
        return FaultPlan(proxy_loss=1.0, seed=1)

    def test_cancel_mid_wait_keeps_partial_charges(self):
        stack = FaultTransport(
            Transport(NetworkConfig()), self._failing_plan(), scope="t"
        )
        carrier = AsyncTransport(stack)
        charged = []
        carrier._charge = charged.append

        full = len(stack.draw(PROXY_FETCH).charges)  # draw() books nothing
        ladder = carrier.begin(PROXY_FETCH)  # first wait charged here
        assert len(charged) == 1 < full
        ladder.close()  # cancel mid-flight
        assert len(charged) == 1  # no further waits charged
        # The atomic draw already booked the whole ladder's counters.
        assert stack.fault_counters["timeouts"] == full

    def test_asyncio_cancellation_closes_the_ladder(self):
        stack = FaultTransport(
            Transport(NetworkConfig()), self._failing_plan(), scope="t"
        )
        carrier = AsyncTransport(stack, clock=RealClock(scale=10.0))
        charged = []
        carrier._charge = charged.append

        async def go():
            task = asyncio.ensure_future(carrier.attempt_async(PROXY_FETCH))
            await asyncio.sleep(0)  # let it charge + enter the first wait
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(go())
        assert len(charged) == 1


class TestNonDefaultPolicies:
    """The async ladder must honour the plan's retry policies."""

    def _policy_plan(self, policy):
        return FaultPlan(proxy_loss=1.0, seed=1, policies=PolicySet(default=policy))

    def test_cancel_mid_wait_under_a_widened_ladder(self):
        # A raised retry budget makes the ladder longer than the default;
        # cancelling after the first wait must still leave the whole
        # atomic draw's counters booked and charge nothing further.
        plan = self._policy_plan(RetryPolicy(max_retries=4))
        stack = FaultTransport(Transport(NetworkConfig()), plan, scope="t")
        carrier = AsyncTransport(stack)
        charged = []
        carrier._charge = charged.append

        full = len(stack.draw(PROXY_FETCH).charges)
        assert full == 5  # the policy, not the plan default, sized it
        ladder = carrier.begin(PROXY_FETCH)
        assert len(charged) == 1 < full
        ladder.close()
        assert len(charged) == 1
        assert stack.fault_counters["timeouts"] == full

    def test_hedged_exhaustion_is_a_single_wait_ladder(self):
        # Hedged charges max-not-sum: the in-flight ladder has one wait,
        # so there is no "mid-flight" left to cancel after begin(), but
        # every drawn round's counters are booked atomically up front.
        plan = self._policy_plan(RetryPolicy(strategy="hedged"))
        stack = FaultTransport(Transport(NetworkConfig()), plan, scope="t")
        carrier = AsyncTransport(stack)
        charged = []
        carrier._charge = charged.append

        outcome = stack.draw(PROXY_FETCH)  # draw() books nothing
        assert len(outcome.charges) == 1
        assert outcome.deltas["timeouts"] == plan.max_retries + 1
        ladder = carrier.begin(PROXY_FETCH)  # books the atomic draw
        assert len(charged) == 1
        ladder.close()
        assert stack.fault_counters["timeouts"] == plan.max_retries + 1

    @pytest.mark.parametrize("name", ["fc", "hier-gd"])
    def test_faulty_runs_match_under_policy_plan(self, name):
        # The equivalence gate, re-run with per-link policy overrides in
        # effect: async must stay byte-identical to sync.
        plan = dataclasses.replace(
            PLAN,
            policies=PolicySet(
                default=RetryPolicy(strategy="hedged"),
                per_link={"p2p": RetryPolicy(strategy="immediate")},
            ),
        )
        sync = run_scheme_with_faults(name, cfg(), plan=plan, seed=3)
        asyn = run_scheme_with_faults(name, cfg(), plan=plan, seed=3, backend="async")
        assert dataclasses.asdict(sync) == dataclasses.asdict(asyn)
