"""Wire serialization: the six cooperation exchanges as a socket protocol.

The live daemon (:mod:`repro.daemon`) and the driver speak newline-
delimited JSON over TCP, and the message format is deliberately **the
exchange-trace schema**: a response line is byte-for-byte a trace event, so
recording a live run is nothing more than writing the response stream
between a trace header and footer — the same JSONL exchange traces a
simulated run produces, replayable by the same harness.  The normative
specification (field tables, framing, role bindings, fault-ladder state
machine, versioning) lives in ``docs/PROTOCOL.md``; this module is its
executable form.

Framing — one JSON value per ``\\n``-terminated UTF-8 line:

==========  =====================================================  =====
direction   line                                                   arity
==========  =====================================================  =====
hello  →    ``{"schema", "kind", "scope", "network", "plan"}``       —
hello  ←    ``{"schema", "kind", "role", "node", "ok"}``             —
request →   ``["x", req, kind, link, force_fail]``                   5
response ←  ``["x", req, kind, link, ok, charges, deltas, draws]``   8
probe  →    ``["u", req, cluster, client]``                          4
answer ←    ``["u", req, cluster, client, unresponsive]``            5
error  ←    ``{"error": reason}``                                    —
==========  =====================================================  =====

Arity is the request/response discriminator: an ``"x"`` line with five
elements asks, one with eight (the last the ladder's raw ``draws``)
answers.  A line that does not end in a
newline is *truncated* and must be refused exactly like a truncated
trace (:class:`WireFormatError`) — a half-written message is never a
message.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from .messages import ALL_EXCHANGES, Exchange

__all__ = [
    "WIRE_SCHEMA",
    "WIRE_KIND",
    "ROLE_PROXY",
    "ROLE_CLIENT",
    "ROLES",
    "SERVED_BY",
    "WireError",
    "WireFormatError",
    "WireSchemaError",
    "WireRoleError",
    "WireProtocolError",
    "encode_frame",
    "decode_frame",
    "hello_frame",
    "parse_hello",
    "ack_frame",
    "parse_ack",
    "request_frame",
    "parse_request",
    "probe_frame",
    "parse_probe",
    "event_frame",
    "parse_event",
    "answer_frame",
    "parse_answer",
    "error_frame",
    "exchange_by_kind",
]

#: Wire format version, and the trace file's
#: (:data:`repro.protocol.trace.TRACE_SCHEMA` is this number): response
#: lines *are* trace events, so the two formats version together — a
#: daemon and a trace reader from different builds refuse each other
#: identically.
WIRE_SCHEMA = 2

#: Header tag identifying a hello as this wire protocol.
WIRE_KIND = "repro-exchange-wire"

ROLE_PROXY = "proxy"
ROLE_CLIENT = "client"
ROLES = (ROLE_PROXY, ROLE_CLIENT)

#: Exchange kind -> daemon role that serves it.  The answering side of
#: each exchange per the paper's flows: client caches answer overlay
#: lookups, P2P fetches, pushes and destages; proxies answer
#: cooperating-proxy fetches and hold the lookup directories the
#: eviction notices update.
SERVED_BY = {
    "lookup_query": ROLE_CLIENT,
    "p2p_fetch": ROLE_CLIENT,
    "push": ROLE_CLIENT,
    "pass_down": ROLE_CLIENT,
    "proxy_fetch": ROLE_PROXY,
    "eviction_notice": ROLE_PROXY,
}

_EXCHANGE_BY_KIND = {e.kind: e for e in ALL_EXCHANGES}


def exchange_by_kind(kind: str) -> Exchange:
    """The typed :class:`Exchange` a wire ``kind`` names."""
    try:
        return _EXCHANGE_BY_KIND[kind]
    except KeyError:
        raise WireProtocolError(
            f"unknown exchange kind {kind!r}; "
            f"have: {', '.join(_EXCHANGE_BY_KIND)}"
        ) from None


class WireError(Exception):
    """Base class for refused wire traffic."""


class WireFormatError(WireError):
    """The bytes are not a well-formed wire message (incl. truncation)."""


class WireSchemaError(WireError):
    """The peer speaks a different wire-format version than this build."""


class WireRoleError(WireError):
    """An exchange was sent to a daemon whose role does not serve it."""


class WireProtocolError(WireError):
    """A well-formed message that violates the protocol's semantics."""


# -- framing ----------------------------------------------------------------


def encode_frame(value: Any) -> bytes:
    """One wire line: compact JSON, UTF-8, newline-terminated."""
    return (json.dumps(value, separators=(",", ":")) + "\n").encode("utf-8")


def decode_frame(raw: bytes) -> Any:
    """Parse one received line, refusing truncation.

    ``raw`` is what a line reader returned; a chunk without its
    terminating newline means the peer vanished mid-message (EOF inside
    a frame), which is refused exactly like a truncated trace file —
    never parsed on a best-effort basis.
    """
    if not raw.endswith(b"\n"):
        raise WireFormatError(
            f"truncated wire message ({len(raw)} bytes, no terminating "
            "newline) — refusing a half-written frame"
        )
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"unparsable wire message: {exc}") from exc


# -- handshake ----------------------------------------------------------------


def hello_frame(scope: str, network: Any, plan: Any = None) -> dict[str, Any]:
    """The connection opener: who is asking, under which fault model.

    ``network`` is the :class:`~repro.netmodel.NetworkConfig` (the RTT
    table both sides must agree on), ``plan`` the
    :class:`~repro.faults.plan.FaultPlan` or ``None`` for a fault-free
    stack.  The daemon builds one transport stack per connection from
    exactly these fields, so every connection is its own deterministic
    fault universe.
    """
    return {
        "schema": WIRE_SCHEMA,
        "kind": WIRE_KIND,
        "scope": scope,
        "network": dataclasses.asdict(network),
        "plan": dataclasses.asdict(plan) if plan is not None else None,
    }


def parse_hello(entry: Any) -> tuple[str, Any, Any]:
    """Validate a hello; return ``(scope, network, plan)`` rebuilt."""
    if not isinstance(entry, dict) or entry.get("kind") != WIRE_KIND:
        raise WireFormatError(f"not a {WIRE_KIND} hello: {entry!r}")
    schema = entry.get("schema")
    if schema != WIRE_SCHEMA:
        raise WireSchemaError(
            f"peer speaks wire schema {schema!r}, this build speaks "
            f"{WIRE_SCHEMA}"
        )
    for fld in ("scope", "network"):
        if fld not in entry:
            raise WireFormatError(f"hello is missing {fld!r}")
    from ..netmodel import NetworkConfig

    network = NetworkConfig(**entry["network"])
    plan = None
    if entry.get("plan") is not None:
        from ..faults.plan import FaultPlan

        plan = FaultPlan(**entry["plan"])
    return str(entry["scope"]), network, plan


def ack_frame(role: str, node: int) -> dict[str, Any]:
    """The daemon's hello answer: its role and node id."""
    return {
        "schema": WIRE_SCHEMA,
        "kind": WIRE_KIND,
        "role": role,
        "node": node,
        "ok": True,
    }


def parse_ack(entry: Any) -> tuple[str, int]:
    """Validate a hello ack; return ``(role, node)``."""
    if not isinstance(entry, dict) or entry.get("kind") != WIRE_KIND:
        raise WireFormatError(f"not a {WIRE_KIND} ack: {entry!r}")
    if entry.get("schema") != WIRE_SCHEMA:
        raise WireSchemaError(
            f"peer speaks wire schema {entry.get('schema')!r}, this build "
            f"speaks {WIRE_SCHEMA}"
        )
    if "error" in entry or not entry.get("ok"):
        raise WireProtocolError(f"daemon refused the hello: {entry!r}")
    if entry.get("role") not in ROLES:
        raise WireFormatError(f"ack names no valid role: {entry!r}")
    return str(entry["role"]), int(entry.get("node", 0))


# -- exchange requests and responses ------------------------------------------


def request_frame(
    req: int, exchange: Exchange, force_fail: bool = False
) -> list[Any]:
    """An ``"x"`` request: carry this exchange for request index ``req``."""
    return ["x", req, exchange.kind, exchange.link, bool(force_fail)]


def parse_request(entry: Any) -> tuple[int, Exchange, bool]:
    """Validate an ``"x"`` request; return ``(req, exchange, force_fail)``."""
    if not (isinstance(entry, list) and len(entry) == 5 and entry[0] == "x"):
        raise WireFormatError(f"not an exchange request: {entry!r}")
    _, req, kind, link, force_fail = entry
    exchange = exchange_by_kind(kind)
    if link != exchange.link:
        raise WireProtocolError(
            f"exchange {kind!r} is bound to link {exchange.link!r}, "
            f"request says {link!r}"
        )
    return int(req), exchange, bool(force_fail)


def probe_frame(req: int, cluster: int, client: int) -> list[Any]:
    """A ``"u"`` probe: will this client cache ever answer a push?"""
    return ["u", req, cluster, client]


def parse_probe(entry: Any) -> tuple[int, int, int]:
    """Validate a ``"u"`` probe; return ``(req, cluster, client)``."""
    if not (isinstance(entry, list) and len(entry) == 4 and entry[0] == "u"):
        raise WireFormatError(f"not an unresponsiveness probe: {entry!r}")
    _, req, cluster, client = entry
    return int(req), int(cluster), int(client)


def event_frame(
    req: int,
    exchange: Exchange,
    ok: bool,
    charges: list[float],
    deltas: dict[str, int],
    draws: dict | None = None,
) -> list[Any]:
    """An ``"x"`` response — byte-for-byte a trace event (schema 2).

    ``draws`` carries the raw uniforms the fault ladder consumed (or
    ``None`` when no ladder ran), so a live recording has the bytes of a
    simulated one; nothing in the package interprets them.
    """
    return [
        "x", req, exchange.kind, exchange.link, bool(ok), charges, deltas, draws,
    ]


def parse_event(
    entry: Any,
) -> tuple[int, str, str | None, bool, list[float], dict, dict | None]:
    """Validate an ``"x"`` response/trace event; return its fields.

    ``(req, kind, link, ok, charges, deltas, draws)`` — the tag dropped,
    every field of the type the frame table gives it (exact types: JSON
    ``true`` is not an index or a count), or :class:`WireFormatError`.
    """
    if not (isinstance(entry, list) and len(entry) == 8 and entry[0] == "x"):
        raise WireFormatError(f"not an exchange response: {entry!r}")
    _, req, kind, link, ok, charges, deltas, draws = entry
    if not (
        type(req) is int
        and isinstance(kind, str)
        and (link is None or isinstance(link, str))
        and isinstance(ok, bool)
        and isinstance(charges, list)
        and all(type(c) in (int, float) for c in charges)
        and isinstance(deltas, dict)
        and all(type(d) is int for d in deltas.values())
        and (draws is None or isinstance(draws, dict))
    ):
        raise WireFormatError(f"malformed exchange response: {entry!r}")
    return req, kind, link, ok, charges, deltas, draws


def answer_frame(req: int, cluster: int, client: int, answer: bool) -> list[Any]:
    """A ``"u"`` response — byte-for-byte a trace ``"u"`` event."""
    return ["u", req, cluster, client, bool(answer)]


def parse_answer(entry: Any) -> tuple[int, int, int, bool]:
    """Validate a ``"u"`` response; return ``(req, cluster, client, answer)``."""
    if not (isinstance(entry, list) and len(entry) == 5 and entry[0] == "u"):
        raise WireFormatError(f"not an unresponsiveness answer: {entry!r}")
    _, req, cluster, client, answer = entry
    if not (
        all(type(v) is int for v in (req, cluster, client)) and type(answer) is bool
    ):
        raise WireFormatError(f"malformed unresponsiveness answer: {entry!r}")
    return req, cluster, client, answer


def error_frame(reason: str) -> dict[str, str]:
    """A refusal the daemon sends before closing the connection."""
    return {"error": reason}
