"""Async transport backend: cooperation ladders as awaitables.

The synchronous :class:`~repro.protocol.transport.Transport` stack pays
every exchange inline — one :meth:`attempt` call, latency charged
serially, nothing ever overlapping in flight.  This module pays the same
outcome with its waits awaited, behind the same contract:

* :class:`AsyncTransport` wraps any transport stack: :meth:`begin`
  decides an exchange exactly as :meth:`Transport.attempt` does (the
  stack's :meth:`~repro.protocol.transport.Transport.draw`, counters
  booked) and returns an awaitable that charges each amount and awaits
  it on a pluggable clock.  Its synchronous :meth:`attempt` pays the
  same outcome inline on the simulated clock — each amount charged,
  then ``now`` advanced by it — so a scheme carrying an
  ``AsyncTransport`` produces **byte-identical** results to the plain
  stack (the equivalence gate); :meth:`attempt_async` / :meth:`begin`
  are the concurrent forms any asyncio caller uses to keep many ladders
  in flight.
* :class:`SimClock` is a deterministic virtual clock with a miniature
  event loop: no wall time passes, waits advance ``now``, and
  :meth:`SimClock.gather` interleaves many ladders by (deadline, start
  order) — reproducible to the byte, run after run.
* :class:`RealClock` maps simulated waits onto ``asyncio.sleep`` with a
  configurable scale (``scale=0`` still yields to the event loop, so
  concurrency is real while smoke runs stay fast).

The ladder's shape — round count, timeouts, hedged max-not-sum
charging — is whatever the wrapped stack's outcome says: this layer
never re-implements the ladder, so sync, async and daemon paths agree
under any policy by construction.

Determinism under concurrency rests on one invariant: **all RNG draws
of a ladder happen atomically when it is decided**
(:meth:`FaultTransport.draw`), so the per-link fault substreams advance
in ladder start order no matter how the waits later interleave.
Cancelling an in-flight ladder keeps its draw (the substreams advanced,
the fault counters were booked and a recording layer wrote its event
with it) and the waits already charged; the remaining waits are
abandoned — tested behaviour, specified in docs/PROTOCOL.md §7.2.
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Any, Awaitable, Coroutine, Sequence

from .messages import Exchange
from .transport import Transport, TransportLayer

__all__ = ["SimClock", "RealClock", "AsyncTransport"]


class _SimSleep:
    """Awaitable handed out by :meth:`SimClock.sleep`.

    Yields itself exactly once; only a :class:`SimClock` driver knows how
    to resume it (awaiting one under a real asyncio loop is an error —
    simulated waits must never block a wall-clock reactor).
    """

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        self.duration = duration

    def __await__(self):
        """Suspend once, surfacing the wait to the driving clock."""
        yield self


class SimClock:
    """Deterministic virtual clock + miniature event loop.

    Time is a float in the simulator's latency units and advances only
    when a driven coroutine awaits :meth:`sleep` — :meth:`run` drives one
    coroutine inline (the synchronous equivalence mode), and
    :meth:`gather` drives many with deterministic interleaving: ready
    coroutines resume in (deadline, submission order), so two runs of
    the same program observe the same schedule byte for byte.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def sleep(self, duration: float) -> Awaitable[None]:
        """A virtual wait: suspends the ladder, advances no wall clock."""
        return _SimSleep(float(duration))

    @staticmethod
    def _as_sleep(step: Any) -> _SimSleep:
        """Validate that a driven coroutine yielded one of our waits."""
        if not isinstance(step, _SimSleep):
            raise RuntimeError(
                "a coroutine driven by SimClock awaited something other "
                f"than SimClock.sleep: {step!r} (real I/O belongs on "
                "RealClock under asyncio)"
            )
        return step

    def run(self, coro: Coroutine[Any, Any, Any]) -> Any:
        """Drive one coroutine to completion, advancing virtual time."""
        try:
            while True:
                step = self._as_sleep(coro.send(None))
                self.now += step.duration
        except StopIteration as stop:
            return stop.value

    def gather(self, *coros: Coroutine[Any, Any, Any]) -> list[Any]:
        """Drive many coroutines concurrently; results in submission order.

        The deterministic counterpart of ``asyncio.gather``: every
        coroutine takes its first step in submission order (which is when
        a ladder does all its RNG draws), then resumption follows
        (deadline, FIFO-at-equal-deadline).  Virtual time ends at the
        latest deadline reached — overlapping ladders finish in
        max-of-waits, not sum-of-waits, which is the concurrency the
        async backend exists to model.
        """
        heap: list[tuple[float, int, int]] = []
        pending: dict[int, Coroutine[Any, Any, Any]] = {}
        results: list[Any] = [None] * len(coros)
        seq = 0
        for i, coro in enumerate(coros):
            heapq.heappush(heap, (self.now, seq, i))
            pending[i] = coro
            seq += 1
        while heap:
            at, _, i = heapq.heappop(heap)
            if at > self.now:
                self.now = at
            coro = pending[i]
            try:
                step = self._as_sleep(coro.send(None))
            except StopIteration as stop:
                results[i] = stop.value
                del pending[i]
                continue
            except BaseException:
                # A crashed ladder must not strand its siblings' cleanup.
                del pending[i]
                for other in pending.values():
                    other.close()
                raise
            heapq.heappush(heap, (self.now + step.duration, seq, i))
            seq += 1
        return results


class RealClock:
    """Wall-clock adapter: simulated waits become ``asyncio.sleep``.

    ``scale`` converts simulator latency units to seconds.  The default
    of ``0`` still awaits ``asyncio.sleep(0)`` — every wait is a genuine
    suspension point, so ladders interleave on the event loop — without
    making smoke runs wait out simulated timeouts in real time.
    """

    def __init__(self, scale: float = 0.0) -> None:
        if scale < 0:
            raise ValueError("scale must be >= 0")
        self.scale = scale

    def sleep(self, duration: float) -> Awaitable[None]:
        """One simulated wait as real event-loop time."""
        return asyncio.sleep(duration * self.scale)


class AsyncTransport(TransportLayer):
    """Async backend over any transport stack, same ``Transport`` contract.

    Wraps a stack (base, fault, recording — stacking
    preserved, this layer sits outermost) and pays its outcomes on a
    clock:

    * :meth:`begin` — two-phase form: the exchange is decided (all RNG
      draws, counters, the first charge) synchronously *now*, the
      returned awaitable takes the waits later.  Calling ``begin`` in
      arrival order is what pins the fault substreams under concurrency.
    * :meth:`attempt_async` — the same as a coroutine; await many under
      ``asyncio`` (:class:`RealClock`) or :meth:`SimClock.gather` to
      overlap their waits.
    * :meth:`attempt` — the synchronous contract on a :class:`SimClock`:
      what running :meth:`begin`'s awaitable to completion would do,
      paid inline — no coroutine per exchange.  Draws and charges happen
      in the exact serial order, so results are byte-identical to the
      plain stack: the deterministic equivalence mode.

    The layer decides nothing: every form asks the wrapped stack's
    ``draw`` directly.
    """

    def __init__(self, inner: Transport, clock: Any = None) -> None:
        super().__init__(inner)
        #: The wait driver: a :class:`SimClock` (deterministic, default)
        #: or :class:`RealClock` (asyncio).
        self.clock = SimClock() if clock is None else clock

    def attempt(self, exchange: Exchange, force_fail: bool = False) -> bool:
        """Synchronous contract: pay the ladder inline on the simulated clock.

        Draw, book, then charge each amount and advance ``clock.now`` by
        it — :meth:`begin` and :meth:`_take_waits` run to completion on a
        :class:`SimClock`, in the same order, without the coroutine.
        """
        clock = self.clock
        if not isinstance(clock, SimClock):
            raise RuntimeError(
                "AsyncTransport.attempt needs the deterministic SimClock; "
                "under a RealClock, await attempt_async inside an event loop"
            )
        outcome = self.inner.draw(exchange, force_fail)
        if outcome.deltas:
            self._book(outcome.deltas)
        charge = self._charge
        for amount in outcome.charges:
            charge(amount)
            clock.now += amount
        return outcome.ok

    async def attempt_async(
        self, exchange: Exchange, force_fail: bool = False
    ) -> bool:
        """Carry one exchange, awaiting every ladder wait on the clock."""
        return await self.begin(exchange, force_fail)

    def begin(
        self, exchange: Exchange, force_fail: bool = False
    ) -> Coroutine[Any, Any, bool]:
        """Decide a ladder now; return an awaitable that takes its waits.

        :meth:`Transport.attempt` with each charge awaited: the draw,
        the counter booking and the first charge happen synchronously
        inside this call, so a server invoking ``begin`` per request in
        arrival order gets deterministic fault substreams even though
        the returned awaitables run concurrently.  Every later amount is
        charged as the wait before it elapses — a cancelled ladder keeps
        the time it already spent and nothing more.
        """
        outcome = self.inner.draw(exchange, force_fail)
        if outcome.deltas:
            self._book(outcome.deltas)
        charges = outcome.charges
        if charges:
            self._charge(charges[0])
        return self._take_waits(charges, outcome.ok)

    async def _take_waits(self, charges: Sequence[float], ok: bool) -> bool:
        """Await each charged wait; charge the next one when it is due."""
        for n, amount in enumerate(charges):
            if n:
                self._charge(amount)
            await self.clock.sleep(amount)
        return ok
