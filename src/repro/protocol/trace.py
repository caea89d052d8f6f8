"""Wire-level trace recording: persist every cooperation exchange.

The fault subsystem made cooperation failures *reproducible* (seeded
substreams); this module makes them *replayable*: a
:class:`RecordingTransport` wrapped around any transport stack streams
one event per logical exchange — the stack's
:class:`~repro.protocol.policy.LadderOutcome` as it was decided: kind,
link, outcome, the exact latency charges, the fault-counter deltas and
the uniforms consumed — to a compact JSON-lines file.  A recorded trace
plus the run's ``(config, scheme, seed, plan)`` fingerprint is
everything :mod:`repro.protocol.replay` needs to re-drive the scheme
without the fault injector's RNG and reproduce the
:class:`~repro.core.metrics.SchemeResult` byte-identically.

File format (one JSON value per line; the event lines are
:func:`~repro.protocol.wire.event_frame` / ``answer_frame``)::

    {"schema": 2, "kind": "repro-exchange-trace", "scheme": ...,
     "seed": ..., "key": "<sha256>", "config": {...}, "plan": {...}|null}
    ["x", <request>, <kind>, <link>|null, <ok>, [<charge>, ...], {<counter>: <delta>, ...}, <draws>|null]
    ["u", <request>, <cluster>, <client>, <unresponsive>]
    {"end": true, "events": N, "dropped": D, "complete": true|false,
     "result": {...SchemeResult...}|null}

``<request>`` is the index of the request being served, counted from 0
over the whole run, warmup included: the recording reads it from the
scheme it is attached to (:meth:`~repro.core.simulator.CachingScheme.
request_index`, the request loop's own window iterator), so no frame
wraps a request to count it.

Charges are recorded as the *individual* amounts in ladder order, never
a per-exchange sum: float addition is not associative, and
byte-identical replay of ``total_latency`` requires re-applying the
exact same additions in the exact same order.  JSON round-trips Python
floats exactly (``repr``-based), so nothing is lost on disk.

The eighth element of an ``"x"`` event is the raw uniforms the fault
ladder consumed (``{"l": [...], "d": u, "j": [...], "ff": true}`` — loss
uniforms in attempt order, the delay uniform, jitter uniforms, and a
``force_fail`` marker; absent keys mean no draw of that kind).  ``null``
means no fault ladder ran (plain stack or a LAN exchange); ``{}`` means
a ladder ran but consumed nothing.  Nothing in the package reads them
back (a replay re-applies the recorded outcome and charges); the element
stays in schema 2 while the benchmark ledger's wire probe builds
eight-element events (ROADMAP item 15(b)).

Recording is armed process-wide through :func:`recording_traces` (the
same pattern as :func:`repro.perf.profiling.collecting_op_counters`);
:func:`repro.core.run.run_scheme` and
:func:`repro.faults.run.run_scheme_with_faults` check for an active
recorder once per scheme run and hand it to
:func:`repro.core.run.assemble_run`, which wraps the run's transport —
nothing per-request, nothing when recording is off.

Recording an ``"x"`` line enters two frames, the recording layer's
``draw`` and the scheme's ``request_index``: ``draw`` encodes the line in
place through the writer's C encoder, byte for byte the line
:meth:`TraceWriter.write_event` writes.  A writer past its event bound
counts drops instead of growing without limit, and the closing footer
then carries ``"complete": false`` — a truncated trace can never
masquerade as a full run (the replay harness refuses it).

Layering: this module imports only protocol-internal modules and the
stdlib at module scope (the core layer imports the protocol package).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import contextmanager
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterator

from .messages import Exchange
from .policy import LadderOutcome
from .transport import Transport, TransportLayer, no_request
from .wire import WIRE_SCHEMA, answer_frame

__all__ = [
    "TRACE_SCHEMA",
    "TRACE_KIND",
    "DEFAULT_MAX_EVENTS",
    "trace_key",
    "TraceWriter",
    "RecordingTransport",
    "TraceRecorder",
    "recording_traces",
    "active_trace_recorder",
]

#: Version of the on-disk trace format, written and read: a trace is a
#: byte-exact contract, not a best-effort log, and its event lines are
#: wire frames, so the two formats share one number.
TRACE_SCHEMA = WIRE_SCHEMA

#: Header tag identifying a file as an exchange trace.
TRACE_KIND = "repro-exchange-trace"

#: Default per-trace event bound.  Paper-scale faulty runs emit a few
#: exchanges per request, so this covers ~10^6-request simulations while
#: capping a runaway trace at low hundreds of MB.
DEFAULT_MAX_EVENTS = 1_000_000


def trace_key(
    config: Any, scheme: str, seed: int, plan: Any = None
) -> str:
    """Content hash identifying one recordable run.

    Covers everything the exchange stream depends on — the resolved
    config (workload, network, topology), the scheme, the explicit trace
    seed and the fault plan — under the trace schema version.  Canonical
    JSON keeps the digest stable across processes, mirroring
    :func:`repro.experiments.store.point_key`.
    """
    payload = {
        "v": TRACE_SCHEMA,
        "config": dataclasses.asdict(config),
        "scheme": scheme,
        "seed": int(seed),
        "plan": dataclasses.asdict(plan) if plan is not None else None,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TraceWriter:
    """Streams one trace: header line, bounded event lines, footer line.

    Events go through the file object's block buffer (no flush per
    event), so what a dying process leaves on disk may stop mid-line.  A
    run that *raises* is sealed by :func:`repro.core.run.assemble_run`'s
    ``finally``: the footer lands with ``"complete": false`` and no
    result, and the replay harness refuses the trace.

    An event line is ``json.dumps(event) + "\n"``, byte for byte, but
    written through one C encoder built here with ``json.dumps``'s own
    arguments (ASCII, circular check, NaN allowed) — ``json.dumps``
    builds that encoder anew on every call.
    """

    def __init__(
        self,
        path: str | Path,
        header: dict[str, Any],
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        if max_events < 0:
            raise ValueError("max_events must be >= 0")
        self.path = Path(path)
        self.max_events = max_events
        self.events_written = 0
        #: Events past the bound: nonzero forces ``"complete": false``.
        self.events_dropped = 0
        defaults = json.JSONEncoder()  # what json.dumps encodes with
        #: The circular check's ids in flight: empty between events.
        self._markers: dict[int, Any] = {}
        self._iterencode = c_make_encoder(
            self._markers,
            defaults.default,
            encode_basestring_ascii,
            defaults.indent,
            defaults.key_separator,
            defaults.item_separator,
            defaults.sort_keys,
            defaults.skipkeys,
            defaults.allow_nan,
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")
        self._fh.write(json.dumps(header, sort_keys=True) + "\n")

    def write_event(self, event: list[Any]) -> None:
        """Append one event line (counted as dropped past the bound)."""
        if self._fh is None:
            raise ValueError(f"trace {self.path} is already closed")
        if self.events_written >= self.max_events:
            self.events_dropped += 1
            return
        try:
            line = "".join(self._iterencode(event, 0))
        except BaseException:
            # An event that failed mid-encode leaves its ids behind.
            self._markers.clear()
            raise
        self._fh.write(line + "\n")
        self.events_written += 1

    def close(self, result: Any = None) -> None:
        """Write the footer and seal the file.

        ``result`` is the finished :class:`~repro.core.metrics.
        SchemeResult` (or ``None`` when the run died).  A trace is marked
        complete only when every event landed *and* the run finished —
        a truncated buffer or an aborted simulation never produces a
        replayable recording.
        """
        if self._fh is None:
            return
        footer = {
            "end": True,
            "events": self.events_written,
            "dropped": self.events_dropped,
            "complete": self.events_dropped == 0 and result is not None,
            "result": dataclasses.asdict(result) if result is not None else None,
        }
        self._fh.write(json.dumps(footer, sort_keys=True) + "\n")
        self._fh.close()
        self._fh = None


class RecordingTransport(TransportLayer):
    """Records what the wrapped stack decides, changes nothing.

    Each :meth:`draw` writes the wrapped stack's outcome as one ``"x"``
    event — when it is decided, before anyone pays it;
    :meth:`unresponsive` answers are recorded as ``"u"`` events when a
    fault layer is active (on a plain stack the answer is constant
    ``False`` and recording it would only bloat the trace).  Events carry
    the index of the request being served, read from the scheme
    :meth:`attach` hands over.
    """

    def __init__(self, inner: Transport, writer: TraceWriter) -> None:
        super().__init__(inner)
        self.writer = writer
        #: The index of the request being served (:meth:`attach`).
        self._request_index = no_request

    def attach(self, scheme: Any) -> None:
        """Read request indices from ``scheme`` (call after its construction)."""
        self._request_index = scheme.request_index

    def draw(self, exchange: Exchange, force_fail: bool = False) -> LadderOutcome:
        """Delegate the decision and record it as one event.

        The event is :func:`~repro.protocol.wire.event_frame` of the
        outcome's fields, and its line :meth:`TraceWriter.write_event`'s,
        written here in place: a recorded exchange enters no frame for
        them (the charges tuple encodes as the list it stands for).
        """
        outcome = self.inner.draw(exchange, force_fail)
        writer = self.writer
        if writer._fh is None:
            raise ValueError(f"trace {writer.path} is already closed")
        if writer.events_written >= writer.max_events:
            writer.events_dropped += 1
            return outcome
        event = [
            "x", self._request_index(), exchange.kind, exchange.link,
            outcome.ok, outcome.charges, outcome.deltas, outcome.draws,
        ]
        try:
            line = "".join(writer._iterencode(event, 0))
        except BaseException:
            writer._markers.clear()
            raise
        writer._fh.write(line + "\n")
        writer.events_written += 1
        return outcome

    def unresponsive(self, cluster: int, client: int) -> bool:
        """Record the probe as a ``"u"`` event when a fault layer answers."""
        answer = self.inner.unresponsive(cluster, client)
        if self.inner.faulty:
            self.writer.write_event(
                answer_frame(self._request_index(), cluster, client, answer)
            )
        return answer


class TraceRecorder:
    """Opens content-addressed trace files in one directory.

    One recorder serves many scheme runs (a whole figure sweep):
    :meth:`open` wraps a run's transport, :meth:`close` seals its file
    and remembers the path in :attr:`written`.
    """

    def __init__(
        self, directory: str | Path, max_events: int = DEFAULT_MAX_EVENTS
    ) -> None:
        self.directory = Path(directory)
        self.max_events = max_events
        #: Paths sealed so far, in completion order.
        self.written: list[Path] = []

    def path_for(self, scheme: str, key: str) -> Path:
        """Trace file location: scheme name + content-key prefix."""
        return self.directory / f"{scheme}-{key[:16]}.jsonl"

    def open(
        self,
        name: str,
        config: Any,
        seed: int,
        plan: Any,
        inner: Transport,
    ) -> RecordingTransport:
        """Wrap ``inner`` so the run it carries is recorded."""
        key = trace_key(config, name, seed, plan)
        header = {
            "schema": TRACE_SCHEMA,
            "kind": TRACE_KIND,
            "scheme": name,
            "seed": int(seed),
            "key": key,
            "config": dataclasses.asdict(config),
            "plan": dataclasses.asdict(plan) if plan is not None else None,
        }
        writer = TraceWriter(
            self.path_for(name, key), header, max_events=self.max_events
        )
        return RecordingTransport(inner, writer)

    def close(self, transport: RecordingTransport, result: Any = None) -> None:
        """Seal one run's trace (``result=None`` marks it incomplete)."""
        transport.writer.close(result)
        self.written.append(transport.writer.path)


#: Process-wide active recorder (None = recording off).  Checked once
#: per *scheme run*, never per request, so the hot path is untouched.
_ACTIVE_RECORDER: TraceRecorder | None = None


def active_trace_recorder() -> TraceRecorder | None:
    """The recorder armed by :func:`recording_traces`, if any."""
    return _ACTIVE_RECORDER


@contextmanager
def recording_traces(
    directory: str | Path, max_events: int = DEFAULT_MAX_EVENTS
) -> Iterator[TraceRecorder]:
    """Record every scheme run inside the block into ``directory``."""
    global _ACTIVE_RECORDER
    recorder = TraceRecorder(directory, max_events=max_events)
    previous = _ACTIVE_RECORDER
    _ACTIVE_RECORDER = recorder
    try:
        yield recorder
    finally:
        _ACTIVE_RECORDER = previous
