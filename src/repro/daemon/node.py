"""The per-node cache daemon: one asyncio socket server per proxy/client.

A :class:`CacheDaemon` answers the wire protocol of
:mod:`repro.protocol.wire` for one node of the hierarchy.  Its role —
``"proxy"`` or ``"client"`` — decides which of the six exchanges it
serves (:data:`~repro.protocol.wire.SERVED_BY`); everything else arrives
with the connection: the hello carries the network's RTT table and the
fault plan, and the daemon builds **one transport stack per connection**
from them, so every connection is its own deterministic fault universe.

Concurrency vs determinism is the whole design:

* when a request line arrives, its retry ladder is **drawn atomically**
  (:meth:`~repro.protocol.transport.Transport.draw`) in arrival order —
  the per-link fault substreams advance exactly as a serial simulation
  would advance them;
* the drawn waits then run as an asyncio task (each wait is
  ``asyncio.sleep(wait * scale)``), so many ladders (across requests and
  across connections) are in flight concurrently;
* responses are written back **in request order** per connection, which
  is what lets the driver stream them straight into a trace file.

Shutdown cancels every in-flight ladder: a peer mid-exchange sees the
connection drop and must refuse the half-exchange like any truncated
wire message.
"""

from __future__ import annotations

import asyncio
from typing import Any

from ..protocol.messages import ALL_EXCHANGES
from ..protocol.transport import LadderOutcome, Transport, build_transport
from ..protocol.wire import (
    ROLES,
    SERVED_BY,
    WireError,
    ack_frame,
    answer_frame,
    decode_frame,
    encode_frame,
    error_frame,
    event_frame,
    parse_hello,
    parse_probe,
    parse_request,
)

__all__ = ["CacheDaemon"]

_OUTCOMES = ("attempts", "ok", "failed")


class CacheDaemon:
    """One node's socket server: proxy or client-cache role.

    ``scale`` converts a ladder's simulated waits (latency units) into
    wall-clock seconds for every connection; the default ``0`` still
    awaits ``asyncio.sleep(0)`` per wait — a genuine suspension point, so
    ladders interleave — without making smoke runs wait out simulated
    timeouts in real time.  ``node``
    is this daemon's id within its role, echoed in the hello ack so a
    driver can verify its routing table.
    """

    def __init__(
        self,
        role: str,
        node: int = 0,
        scale: float = 0.0,
    ) -> None:
        if role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {role!r}")
        if scale < 0:
            raise ValueError("scale must be >= 0")
        self.role = role
        self.node = node
        self.scale = scale
        #: Per-exchange attempt/outcome counts across every connection
        #: this daemon served (one logical exchange per drawn ladder).
        self.exchanges = {
            e.kind: dict.fromkeys(_OUTCOMES, 0) for e in ALL_EXCHANGES
        }
        #: Simulated latency this node charged across all ladders.
        self.latency_charged = 0.0
        #: Unresponsiveness probes answered (``"u"`` frames).
        self.probes = 0
        #: Fault-counter totals across all connections.
        self.fault_counters: dict[str, int] = {}
        #: Connections accepted / ladders currently sleeping / high-water.
        self.connections = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self.address: tuple[str, int] | None = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("daemon is already serving")
        self._server = await asyncio.start_server(self._accept, host, port)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def stop(self) -> None:
        """Stop serving and cancel every in-flight exchange.

        Peers blocked on a response observe the connection closing
        mid-exchange — the wire-level equivalent of a truncated trace,
        refused by well-behaved drivers.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()

    @property
    def stats(self) -> dict[str, Any]:
        """JSON-safe snapshot of this node's service counters."""
        links: dict[str, dict[str, int]] = {}
        for e in ALL_EXCHANGES:
            dest = links.setdefault(e.link or "lan", dict.fromkeys(_OUTCOMES, 0))
            for field in _OUTCOMES:
                dest[field] += self.exchanges[e.kind][field]
        return {
            "role": self.role,
            "node": self.node,
            "connections": self.connections,
            "probes": self.probes,
            "max_in_flight": self.max_in_flight,
            "latency_charged": self.latency_charged,
            "fault_counters": dict(self.fault_counters),
            "exchanges": {k: dict(v) for k, v in self.exchanges.items()},
            "links": links,
        }

    # -- connection handling -------------------------------------------------

    def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        """Register one connection's handler task (cancellable on stop)."""
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        return task

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        response_queue: asyncio.Queue = asyncio.Queue()
        writer_task: asyncio.Task | None = None
        ladder_tasks: set[asyncio.Task] = set()
        try:
            try:
                hello = decode_frame(await reader.readline())
                scope, network, plan = parse_hello(hello)
            except WireError as exc:
                writer.write(encode_frame(error_frame(str(exc))))
                await writer.drain()
                return
            # One stack per connection, from the hello's fields: the fault
            # layer's substreams are namespaced by the hello's scope, the
            # same scoping a simulated run uses — which is what lets a
            # single-node-per-role live run reproduce a simulation's
            # outcomes draw for draw.
            stack = build_transport(network, plan, scope=scope)
            writer.write(encode_frame(ack_frame(self.role, self.node)))
            await writer.drain()

            # Single writer coroutine: responses leave in request order,
            # whatever order the concurrent ladders finish in.  A None
            # sentinel ends the stream after every admitted response.
            async def write_responses() -> None:
                while True:
                    fut = await response_queue.get()
                    if fut is None:
                        return
                    payload = await fut
                    writer.write(payload)
                    await writer.drain()

            writer_task = asyncio.ensure_future(write_responses())

            while True:
                raw = await reader.readline()
                if not raw:
                    break  # peer closed cleanly between frames
                try:
                    frame = self._admit(stack, decode_frame(raw), ladder_tasks)
                except WireError as exc:
                    writer.write(encode_frame(error_frame(str(exc))))
                    await writer.drain()
                    break
                response_queue.put_nowait(frame)
            # Flush every admitted response, then let the writer retire.
            response_queue.put_nowait(None)
            await writer_task
            writer_task = None
        finally:
            if writer_task is not None:
                writer_task.cancel()
            for task in ladder_tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    def _admit(
        self, stack: Transport, entry: Any, ladder_tasks: set[asyncio.Task]
    ) -> "asyncio.Future[bytes]":
        """Admit one request: draw now, wait later.

        Every RNG draw behind the response happens inside this method, in
        arrival order (the determinism contract); what is returned is a
        future for the encoded response, resolved after the drawn waits
        have elapsed.
        """
        if isinstance(entry, list) and len(entry) == 4 and entry[0] == "u":
            req, cluster, client = parse_probe(entry)
            answer = stack.unresponsive(cluster, client)
            self.probes += 1
            fut: asyncio.Future = asyncio.get_running_loop().create_future()
            fut.set_result(encode_frame(answer_frame(req, cluster, client, answer)))
            return fut
        req, exchange, force_fail = parse_request(entry)
        served_by = SERVED_BY[exchange.kind]
        if served_by != self.role:
            raise WireError(
                f"exchange {exchange.kind!r} is served by {served_by!r} "
                f"nodes; this daemon is a {self.role!r}"
            )
        outcome = stack.draw(exchange, force_fail)
        self._book(exchange, outcome)
        payload = encode_frame(event_frame(req, exchange, *outcome.event_fields()))
        task = asyncio.ensure_future(self._finish(outcome, payload))
        ladder_tasks.add(task)
        task.add_done_callback(ladder_tasks.discard)
        return task

    def _book(self, exchange: Any, outcome: LadderOutcome) -> None:
        """Aggregate one drawn ladder into the node's telemetry."""
        slot = self.exchanges[exchange.kind]
        slot["attempts"] += 1
        slot["ok" if outcome.ok else "failed"] += 1
        for key, delta in outcome.deltas.items():
            self.fault_counters[key] = self.fault_counters.get(key, 0) + delta
        for amount in outcome.charges:
            self.latency_charged += amount

    async def _finish(self, outcome: LadderOutcome, payload: bytes) -> bytes:
        """Sleep out one ladder's scaled waits; yield the ready response."""
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            for wait in outcome.charges:
                await asyncio.sleep(wait * self.scale)
            return payload
        finally:
            self.in_flight -= 1
