"""Protocol layer: typed cooperation exchanges over composable transports.

One cooperation-message engine for plain, faulty and recorded runs:

- :mod:`repro.protocol.messages` — the six exchange types every scheme's
  request flow is built from, each bound to its faultable link, plus
  per-exchange traffic derivation for finished results.
- :mod:`repro.protocol.transport` — the :class:`Transport` stack: a base
  layer that always succeeds, a :class:`FaultTransport` adding the
  :class:`~repro.faults.plan.FaultPlan` timeout/retry/fallback ladder
  (a zero plan is the identity).
- :mod:`repro.protocol.trace` — wire-level recording: a
  :class:`RecordingTransport` streaming every exchange (outcome, exact
  latency charges, fault-counter deltas) to a content-addressed JSONL
  trace, armed process-wide via :func:`recording_traces`.
- :mod:`repro.protocol.replay` — the inverse: a :class:`ReplayTransport`
  answering the transport contract from a recorded stream, and
  :func:`replay_trace` re-driving a whole scheme to a byte-identical
  result or a first-divergence report.
- :mod:`repro.protocol.policy` — the retry ladder as data: per-link
  :class:`RetryPolicy` strategies (exponential, immediate, capped,
  hedged) and :class:`LinkLadder` (:func:`run_ladder` for one call),
  the single pure ladder engine every execution path drives.  What a
  policy is worth is measured by simulating it (the ``frontier``
  figure).

Layering: this package imports :mod:`repro.netmodel` only at module
scope (fault-layer internals are imported lazily), so the core layer can
build on it without cycles; :mod:`repro.faults` supplies plans and
injectors, :mod:`repro.core` supplies the schemes that ride the stack.
"""

from .aio import AsyncTransport, RealClock, SimClock
from .messages import (
    ALL_EXCHANGES,
    COOP_EXCHANGES,
    EVICTION_NOTICE,
    FAULT_COUNTERS,
    LOOKUP_QUERY,
    P2P_FETCH,
    PASS_DOWN,
    PROXY_FETCH,
    PUSH,
    Exchange,
    exchange_traffic,
    link_traffic,
)
from .policy import (
    DEFAULT_POLICIES,
    DEFAULT_POLICY,
    STRATEGIES,
    LinkLadder,
    PolicySet,
    RetryPolicy,
    plan_fingerprint,
    run_ladder,
)
from .replay import (
    Divergence,
    RecordedTrace,
    ReplayDivergence,
    ReplayReport,
    ReplayTransport,
    TraceError,
    TraceFormatError,
    TraceIncompleteError,
    TraceSchemaError,
    format_report,
    load_trace,
    replay_trace,
)
from .trace import (
    TRACE_SCHEMA,
    RecordingTransport,
    TraceRecorder,
    TraceWriter,
    active_trace_recorder,
    recording_traces,
    trace_key,
)
from .transport import (
    EventFedTransport,
    FaultTransport,
    LadderOutcome,
    Transport,
    TransportLayer,
    build_transport,
)
from .wire import (
    SERVED_BY,
    WIRE_KIND,
    WIRE_SCHEMA,
    WireFormatError,
    WireProtocolError,
    WireRoleError,
    WireSchemaError,
    decode_frame,
    encode_frame,
    parse_event,
    parse_hello,
    parse_request,
)

__all__ = [
    "ALL_EXCHANGES",
    "COOP_EXCHANGES",
    "DEFAULT_POLICIES",
    "DEFAULT_POLICY",
    "EVICTION_NOTICE",
    "FAULT_COUNTERS",
    "LOOKUP_QUERY",
    "P2P_FETCH",
    "PASS_DOWN",
    "PROXY_FETCH",
    "PUSH",
    "SERVED_BY",
    "STRATEGIES",
    "TRACE_SCHEMA",
    "WIRE_KIND",
    "WIRE_SCHEMA",
    "AsyncTransport",
    "Divergence",
    "EventFedTransport",
    "Exchange",
    "FaultTransport",
    "LadderOutcome",
    "LinkLadder",
    "PolicySet",
    "RealClock",
    "RecordedTrace",
    "RecordingTransport",
    "ReplayDivergence",
    "ReplayReport",
    "ReplayTransport",
    "RetryPolicy",
    "SimClock",
    "TraceError",
    "TraceFormatError",
    "TraceIncompleteError",
    "TraceRecorder",
    "TraceSchemaError",
    "TraceWriter",
    "Transport",
    "TransportLayer",
    "WireFormatError",
    "WireProtocolError",
    "WireRoleError",
    "WireSchemaError",
    "active_trace_recorder",
    "build_transport",
    "decode_frame",
    "encode_frame",
    "parse_event",
    "parse_hello",
    "parse_request",
    "exchange_traffic",
    "format_report",
    "link_traffic",
    "load_trace",
    "plan_fingerprint",
    "recording_traces",
    "replay_trace",
    "run_ladder",
    "trace_key",
]
