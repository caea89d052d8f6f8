"""The host-speed calibrator behind every end-to-end timing metric.

The sandbox is a few cores of a shared host.  A neighbour slows whole runs
by 20-50 % for tens of seconds to minutes, in bursts of a tenth of a second
to seconds, so the raw seconds of two runs of the *same* code differ by more
than any bound a regression check could use, and the best of a few repeats
does too.  The hypervisor reports next to no steal time for it; process CPU
time inflates like wall time.  It looks like a busy sibling hardware thread:
a second process of our own on the other core does the same, and slows a
pure-Python loop 1.45-1.75 x depending on what the loop does.

So the harness runs that loop, :meth:`Calibrator.slice`, *inside* every
timed interval: :class:`Sampled` arms an interval timer whose signal
handler, on the main thread between two bytecodes of the program, runs one
slice of a few milliseconds every :data:`PERIOD_S`.  The slices' time is
taken out of the interval, and the interval is reported *as a multiple of
the mean slice*, scaled by :data:`NOMINAL_SLICE_S` so the unit is still a
second: a second of the quiet sandbox.  Program and calibrator share the
core at a granularity finer than the neighbour's bursts, so what slows one
slows the other.  The loop belongs to the benchmark, never calls the
program, and does the kind of work the simulators do (a small cache
simulation: objects, a dict, a heap), so it moves with the host and not
with a change to the program.  It costs every timed interval the same
share of its time (about a tenth) and of its cache.

Only a single-threaded program can be measured so: slices run on the main
thread, so where the work is in worker processes or another thread
(``hiergd_shards2``, ``daemon_live``) they would run beside it, not instead
of it.  Those workloads are timed raw.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
from time import perf_counter, thread_time

#: Mean slice on the quiet 2-core sandbox.  Only fixes the unit: every
#: normalised time is ``raw * NOMINAL_SLICE_S / (mean slice inside it)``.
NOMINAL_SLICE_S = 0.0022
#: One slice runs this often while a :class:`Sampled` block is open.
PERIOD_S = 0.025

#: The loop's little cache simulation: keys, capacity, requests per slice.
KEYS = 4096
CAPACITY = 1024
SLICE_REQUESTS = 1500


class Entry:
    __slots__ = ("key", "priority", "hits")

    def __init__(self, key: int, priority: float) -> None:
        self.key = key
        self.priority = priority
        self.hits = 0


class Calibrator:
    """A fixed pure-Python loop whose time tracks the host's speed.

    A Greedy-Dual-like cache over uniform random keys: instances, method
    calls, a dict, a lazy heap, and some string formatting and sorting.
    What it is was chosen by how it slows when the other hardware thread is
    busy: 1.64 x, against 1.5-1.75 x for the simulators and ProWGen (a loop
    over a 5 MiB dict slows 1.45 x and under-corrects).
    """

    def __init__(self) -> None:
        rng = random.Random(20030901)
        keys = [rng.getrandbits(40) | (1 << 40) for _ in range(KEYS)]
        self.requests = [rng.choice(keys) for _ in range(4 * KEYS)]
        self.at = 0
        self.cache: dict[int, Entry] = {}
        self.heap: list[tuple[float, int]] = []
        self.clock = 0.0
        self.slice()  # fills the cache: every later slice costs the same

    def touch(self, key: int) -> Entry:
        entry = self.cache.get(key)
        if entry is None:
            if len(self.cache) >= CAPACITY:
                self.evict()
            entry = self.cache[key] = Entry(key, self.clock + 1.0)
        else:
            entry.hits += 1
            entry.priority = self.clock + 1.0 + 0.01 * entry.hits
        heapq.heappush(self.heap, (entry.priority, key))
        return entry

    def evict(self) -> None:
        # Every cached entry's latest priority is on the heap, stale ones
        # below it: the heap stays near 1.2 x CAPACITY and never runs dry.
        while True:
            priority, key = heapq.heappop(self.heap)
            entry = self.cache.get(key)
            if entry is not None and entry.priority == priority:
                del self.cache[key]
                self.clock = priority
                return

    def slice(self) -> float:
        """Replay the next requests; returns the wall time it took."""
        start = self.at
        self.at = (start + SLICE_REQUESTS) % (len(self.requests) - SLICE_REQUESTS)
        began = perf_counter()
        notes: list[str] = []
        for i, key in enumerate(self.requests[start:start + SLICE_REQUESTS]):
            entry = self.touch(key)
            if not i & 15:
                notes.append("%d:%0.3f" % (entry.key & 1023, entry.priority))
            if not i & 127:
                notes.sort()
                joined = "|".join(notes)
                notes = [joined[:8]]
                hash((joined, i))
        return perf_counter() - began


class Sampled:
    """``with Sampled(calibrator) as inside:`` -- slices run on a timer.

    One slice before the block, one every :data:`PERIOD_S` inside it (in
    the SIGALRM handler, so on the main thread, which is where the program
    runs) and one after it.  ``inside.wall`` and ``inside.cpu`` are what the
    slices inside the block took of it, to be taken out of its time.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.slices: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0
        self.busy = False

    def tick(self, signum, frame) -> None:
        if self.busy:  # a stall longer than the period: one slice, not two
            return
        self.busy = True
        cpu = thread_time()
        took = self.calibrator.slice()
        self.cpu += thread_time() - cpu
        self.wall += took
        self.slices.append(took)
        self.busy = False

    def __enter__(self) -> "Sampled":
        self.slices.append(self.calibrator.slice())
        self.handler = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self.handler)
        self.slices.append(self.calibrator.slice())


def normalised(raw: float, slices: list[float]) -> float:
    """``raw`` seconds in seconds of the quiet sandbox.

    ``slices`` ran inside the measured interval; their mean is the host's
    speed over it, as the interval's own time is a mean over it.
    """
    return raw * NOMINAL_SLICE_S / statistics.fmean(slices)
