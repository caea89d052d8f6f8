"""Live driver: run a real scheme against running cache daemons.

The counterpart of :mod:`repro.protocol.replay` for the live path: a
:class:`DaemonTransport` implements the :class:`~repro.protocol.
transport.Transport` contract but decides :meth:`draw` /
:meth:`unresponsive` **over TCP** — every cooperation exchange becomes a
wire request to the daemon whose role serves it
(:data:`~repro.protocol.wire.SERVED_BY`), and the daemon's response (a
trace event, byte for byte) comes back as the
:class:`~repro.protocol.policy.LadderOutcome` the daemon drew: the exact
latency charges and fault-counter deltas the driver then pays locally,
in recorded order, like any other stack's
(:class:`~repro.protocol.transport.EventFedTransport` is the base it
shares with the replay transport).

:func:`drive_scheme` is the entry point: the run is put together by
:func:`repro.core.run.assemble_run` like every other, carried over a
:class:`DaemonTransport` and optionally recorded — so a **live** run
produces the same JSONL exchange traces as a simulated one, replayable
by the same harness.  With one daemon per role, every fault link's RNG
substream lives whole on one connection and advances in the scheme's
serial call order, which makes the live trace byte-identical to a
simulated recording of the same ``(config, scheme, seed, plan)``.

Determinism fine print: loss, delay and unresponsiveness are the
daemons' business; the one fault decision that never crossed the wire
in the simulator — lossy eviction notices — stays local to the driver.
Multiple daemons per role round-robin per exchange; recorded traces
still round-trip (replay consumes the recording, not the RNG), but
byte-identity *against a simulation* holds only for one daemon per
role.
"""

from __future__ import annotations

import dataclasses
import socket
from pathlib import Path
from typing import Any

from ..protocol.messages import Exchange
from ..protocol.policy import LadderOutcome
from ..protocol.trace import DEFAULT_MAX_EVENTS, TraceRecorder
from ..protocol.transport import EventFedTransport
from ..protocol.wire import (
    ROLE_CLIENT,
    ROLES,
    SERVED_BY,
    WireProtocolError,
    WireRoleError,
    decode_frame,
    encode_frame,
    hello_frame,
    parse_ack,
    parse_answer,
    parse_event,
    probe_frame,
    request_frame,
)

__all__ = ["DaemonTransport", "DriveReport", "drive_scheme"]


class _DaemonLink:
    """One driver ↔ daemon connection: hello'd, role-verified, line-framed."""

    def __init__(
        self,
        address: tuple[str, int],
        scope: str,
        network: Any,
        plan: Any,
    ) -> None:
        self.address = address
        self._sock = socket.create_connection(address)
        self._rfile = self._sock.makefile("rb")
        self.send(hello_frame(scope, network, plan))
        self.role, self.node = parse_ack(self.recv())

    def send(self, frame: Any) -> None:
        self._sock.sendall(encode_frame(frame))

    def recv(self) -> Any:
        """One response line; daemon refusals surface as protocol errors.

        EOF (or a partial line) from a daemon that died mid-exchange
        reaches :func:`~repro.protocol.wire.decode_frame` without its
        newline and is refused as truncation — never half-parsed.
        """
        entry = decode_frame(self._rfile.readline())
        if isinstance(entry, dict) and "error" in entry:
            raise WireProtocolError(
                f"daemon {self.address} refused: {entry['error']}"
            )
        return entry

    def close(self) -> None:
        for closer in (self._rfile.close, self._sock.close):
            try:
                closer()
            except OSError:  # pragma: no cover - teardown race
                pass


class DaemonTransport(EventFedTransport):
    """Answers the transport contract from live daemons over TCP.

    ``routes`` maps role (``"proxy"`` / ``"client"``) to one ``(host,
    port)`` address or a list of them; one connection is opened per
    address, each hello'd with ``(scope, network, plan)`` so the daemon
    builds the matching deterministic fault stack.  Outcomes, charges,
    counter deltas and ladder draws (live traces stay what-if capable)
    all come from the wire.
    """

    def __init__(
        self,
        network: Any,
        routes: dict[str, Any],
        plan: Any = None,
        scope: str = "",
    ) -> None:
        super().__init__(network, plan, scope)
        #: Wire exchanges sent / unresponsiveness probes sent.
        self.exchanges_sent = 0
        self.probes_sent = 0
        self._links: dict[str, list[_DaemonLink]] = {}
        self._rr: dict[str, int] = {}
        try:
            for role, addrs in routes.items():
                if role not in ROLES:
                    raise ValueError(
                        f"routes key must be one of {ROLES}, got {role!r}"
                    )
                if isinstance(addrs, tuple):
                    addrs = [addrs]
                links: list[_DaemonLink] = []
                self._links[role] = links
                self._rr[role] = 0
                for addr in addrs:
                    link = _DaemonLink(tuple(addr), scope, network, plan)
                    links.append(link)
                    if link.role != role:
                        raise WireRoleError(
                            f"daemon at {addr} identifies as {link.role!r}, "
                            f"but is routed as {role!r}"
                        )
            for role in ROLES:
                if not self._links.get(role):
                    raise ValueError(
                        f"routes must name at least one {role!r} daemon"
                    )
        except BaseException:
            self.close()
            raise

    # -- connection management ----------------------------------------------

    def _pick(self, role: str) -> _DaemonLink:
        """Next connection for a role (round-robin, deterministic)."""
        links = self._links[role]
        i = self._rr[role]
        self._rr[role] = (i + 1) % len(links)
        return links[i]

    def close(self) -> None:
        """Close every daemon connection (idempotent)."""
        for links in self._links.values():
            for link in links:
                link.close()
        self._links = {}

    def __enter__(self) -> "DaemonTransport":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- the transport contract, over the wire -------------------------------

    def draw(self, exchange: Exchange, force_fail: bool = False) -> LadderOutcome:
        """Have a daemon decide the exchange; echo-check the response."""
        link = self._pick(SERVED_BY[exchange.kind])
        link.send(request_frame(self._req, exchange, force_fail))
        self.exchanges_sent += 1
        req, kind, ev_link, ok, charges, deltas, draws = parse_event(link.recv())
        if req != self._req or kind != exchange.kind or ev_link != exchange.link:
            raise WireProtocolError(
                f"daemon {link.address} answered a different exchange: sent "
                f"(req={self._req}, {exchange.kind}, {exchange.link}), got "
                f"(req={req}, {kind}, {ev_link})"
            )
        return LadderOutcome.from_event(ok, charges, deltas, draws)

    def unresponsive(self, cluster: int, client: int) -> bool:
        """Probe a client daemon (plain stacks answer False off-wire)."""
        if not self._active:
            # Plain stacks answer a constant False without an exchange;
            # skip the wire exactly as recording skips the event.
            return False
        link = self._pick(ROLE_CLIENT)
        link.send(probe_frame(self._req, cluster, client))
        self.probes_sent += 1
        req, ev_cluster, ev_client, answer = parse_answer(link.recv())
        if (req, ev_cluster, ev_client) != (self._req, cluster, client):
            raise WireProtocolError(
                f"daemon {link.address} answered a different probe: sent "
                f"(req={self._req}, cluster={cluster}, client={client}), "
                f"got (req={req}, cluster={ev_cluster}, client={ev_client})"
            )
        return answer


@dataclasses.dataclass(frozen=True)
class DriveReport:
    """Outcome of one :func:`drive_scheme` run against live daemons."""

    scheme: str
    seed: int
    plan_label: str
    #: Requests the scheme processed.
    n_requests: int
    #: Cooperation exchanges / unresponsiveness probes sent on the wire.
    exchanges: int
    probes: int
    #: The finished :class:`~repro.core.metrics.SchemeResult`.
    result: Any
    #: Recorded trace file (None when recording was off).
    trace_path: Path | None


def drive_scheme(
    name: str,
    config: Any,
    *,
    routes: dict[str, Any],
    plan: Any = None,
    seed: int = 0,
    record_dir: str | Path | None = None,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> DriveReport:
    """Run scheme ``name`` live against the daemons in ``routes``.

    The workload regrows from ``seed`` and the run is put together by
    :func:`repro.core.run.assemble_run` with a :class:`DaemonTransport`
    as its carrier, so a plan changes the run exactly where it would
    change a simulated one.  With ``record_dir`` the live run leaves the
    same JSONL exchange trace a simulated run would, sealed complete
    only if the run finishes; the connections are closed either way.
    """
    from ..core.run import active_plan, assemble_run, generate_workloads

    plan = active_plan(name, plan)
    traces = generate_workloads(config, seed=seed)
    recorder = None
    if record_dir is not None:
        recorder = TraceRecorder(record_dir, max_events=max_events)
    transport = DaemonTransport(config.network, routes, plan=plan, scope=name)
    result = assemble_run(
        name,
        config,
        traces,
        seed=seed,
        plan=plan,
        carrier=transport,
        recorder=recorder,
    )
    return DriveReport(
        scheme=name,
        seed=seed,
        plan_label=plan.label if plan is not None else "none",
        n_requests=sum(len(t) for t in traces),
        exchanges=transport.exchanges_sent,
        probes=transport.probes_sent,
        result=result,
        trace_path=recorder.written[-1] if recorder is not None else None,
    )
