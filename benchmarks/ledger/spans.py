"""Spans, and the timing layers a traced run puts around the program.

Everything here measures the program from outside, through its public
seams: a :class:`TimingTransport` stacked outermost on the transport
stack, a :class:`TimedTrace` proxy around each on-disk trace, and
:class:`Tracer` spans around the public calls.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Iterator

from repro.protocol.transport import Transport, TransportLayer


class Tracer:
    """In-memory span list; a span's parent is the span open around it."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict[str, Any]] = []
        #: What the timing layers of each traced scheme run saw
        #: (filled by ``workloads.wired_run``).
        self.runs: list[dict[str, Any]] = []
        self._open: list[int] = []

    def _record(self, name: str, start_ns: int, end_ns: int | None, **more: Any) -> dict:
        record = {
            "name": name,
            "start_ns": start_ns,
            "end_ns": end_ns,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "repeat": 0,
            **more,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        """Time the block as one span, child of the enclosing span."""
        record = self._record(name, perf_counter_ns(), None)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end_ns"] = perf_counter_ns()
            self._open.pop()

    def add_calls(self, name: str, layer: "CallTimer") -> None:
        """One span standing for many short calls into a layer.

        A span per exchange would cost more than the exchange; the layer
        sums its calls instead, and the span carries ``calls`` and
        ``busy_ns`` (time inside the calls) beside first start / last end.
        """
        if layer.calls:
            self._record(
                name, layer.first_ns, layer.last_ns,
                calls=layer.calls, busy_ns=layer.busy_ns,
            )

    @staticmethod
    def busy_ns(span: dict[str, Any]) -> int:
        """Time the span's layer was busy (its duration unless summed)."""
        return span.get("busy_ns", span["end_ns"] - span["start_ns"])

    def total_ns(self, name: str) -> int:
        """Busy time summed over every span called ``name``."""
        return sum(self.busy_ns(s) for s in self.spans if s["name"] == name)


class CallTimer:
    """Count and total time of the calls a timing layer wraps."""

    def __init__(self, keep_samples: bool = False) -> None:
        self.calls = 0
        self.busy_ns = 0
        self.first_ns = 0
        self.last_ns = 0
        #: Per-call durations (ns), kept only where percentiles are wanted.
        self.samples: list[int] | None = [] if keep_samples else None

    def book(self, start_ns: int) -> None:
        end_ns = perf_counter_ns()
        if not self.calls:
            self.first_ns = start_ns
        self.calls += 1
        self.busy_ns += end_ns - start_ns
        self.last_ns = end_ns
        if self.samples is not None:
            self.samples.append(end_ns - start_ns)


class TimingTransport(TransportLayer):
    """Outermost transport layer: times what the scheme asks of the stack.

    A scheme reaches its transport through ``attempt`` and
    ``unresponsive`` only (``draw`` / ``ladder_steps`` are called by the
    layers below, never by the scheme), so those two are what this layer
    times; everything else is the inherited delegation and results stay
    byte-identical — the digest check proves it on every traced run.
    """

    def __init__(self, inner: Transport, keep_samples: bool = False) -> None:
        super().__init__(inner)
        self.attempts = CallTimer(keep_samples)
        self.probes = CallTimer(keep_samples)

    def attempt(self, exchange: Any, force_fail: bool = False) -> bool:
        start = perf_counter_ns()
        try:
            return self.inner.attempt(exchange, force_fail)
        finally:
            self.attempts.book(start)

    def unresponsive(self, cluster: int, client: int) -> bool:
        start = perf_counter_ns()
        try:
            return self.inner.unresponsive(cluster, client)
        finally:
            self.probes.book(start)

    @property
    def calls(self) -> int:
        return self.attempts.calls + self.probes.calls

    @property
    def busy_ns(self) -> int:
        return self.attempts.busy_ns + self.probes.busy_ns


class TimedTrace:
    """Thin proxy around a trace: times the engine's window reads."""

    def __init__(self, trace: Any) -> None:
        self._trace = trace
        self.reads = CallTimer()
        self.requests_read = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._trace, name)

    def __len__(self) -> int:
        return len(self._trace)

    def object_slice(self, start: int, stop: int) -> Any:
        t0 = perf_counter_ns()
        try:
            window = self._trace.object_slice(start, stop)
        finally:
            self.reads.book(t0)
        self.requests_read += len(window)
        return window

    def client_slice(self, start: int, stop: int) -> Any:
        t0 = perf_counter_ns()
        try:
            return self._trace.client_slice(start, stop)
        finally:
            self.reads.book(t0)


def percentile(samples: list[int], share: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 when there are none)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return float(ordered[max(1, math.ceil(share * len(ordered))) - 1])
