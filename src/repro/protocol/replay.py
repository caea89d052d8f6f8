"""Replay harness: re-drive a scheme from a recorded exchange stream.

The counterpart of :mod:`repro.protocol.trace`: a
:class:`ReplayTransport` implements the :class:`~repro.protocol.
transport.Transport` contract but decides :meth:`draw` /
:meth:`unresponsive` from the recorded event stream instead of the fault
injector's RNG — each event is handed back as the
:class:`~repro.protocol.policy.LadderOutcome` it recorded, and paying it
(the recorded charges one by one in their original order, the recorded
fault-counter deltas) is the same :meth:`~repro.protocol.transport.
Transport.attempt` every stack runs.  Everything else in a simulation is
already deterministic given the same ``(config, scheme, seed, plan)``:
the workload regrows from the seed, stale-directory notices and Poisson
churn come from named plan substreams the replay rebuilds, and the
caches do what the caches do.

If the scheme under replay ever asks for an exchange the recording did
not contain — different kind, different link, different request index, a
stream that runs dry, or events left over after the run — the transport
raises :class:`ReplayDivergence` and :func:`replay_trace` converts it
into a :class:`Divergence` report: the first mismatched exchange index,
the recorded event, what the scheme actually asked for, and the
surrounding recorded events for context.  That is the debugging story:
a divergence pinpoints *where* two builds of the simulator disagree
without re-simulating anything twice.

Module-scope imports stay protocol-internal (the core layer imports the
protocol package); the core/faults/workload machinery used to rebuild a
run is imported inside functions, after the cycle has resolved.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

from .messages import Exchange
from .policy import LadderOutcome, plan_fingerprint
from .trace import TRACE_KIND, TRACE_SCHEMA
from .transport import EventFedTransport
from .wire import WireFormatError, parse_answer, parse_event

__all__ = [
    "TraceError",
    "TraceFormatError",
    "TraceSchemaError",
    "TraceIncompleteError",
    "ReplayDivergence",
    "RecordedTrace",
    "load_trace",
    "ReplayTransport",
    "Divergence",
    "ReplayReport",
    "replay_trace",
    "format_report",
]


class TraceError(Exception):
    """Base class for unusable trace files."""


class TraceFormatError(TraceError):
    """The file is not a well-formed exchange trace."""


class TraceSchemaError(TraceError):
    """The trace speaks a different format version than this build."""


class TraceIncompleteError(TraceError):
    """The trace is truncated (dropped events or an unfinished run)."""


class ReplayDivergence(Exception):
    """The scheme asked for something the recording does not contain.

    ``index`` is the position in the recorded event stream (equal to the
    stream length when the scheme asked for one exchange too many);
    ``expected`` is the recorded event at that position (``None`` past
    the end); ``observed`` describes what the scheme actually did.
    """

    def __init__(self, index: int, expected: list[Any] | None, observed: str):
        self.index = index
        self.expected = expected
        self.observed = observed
        want = json.dumps(expected) if expected is not None else "<end of stream>"
        super().__init__(
            f"replay diverged at exchange {index}: expected {want}, "
            f"observed {observed}"
        )


@dataclasses.dataclass(frozen=True)
class RecordedTrace:
    """A parsed trace file: header, event list, footer."""

    path: Path
    header: dict[str, Any]
    events: list[list[Any]]
    footer: dict[str, Any]

    @property
    def scheme(self) -> str:
        """The recorded run's scheme name."""
        return self.header["scheme"]

    @property
    def seed(self) -> int:
        """The workload seed the recorded run grew from."""
        return int(self.header["seed"])

    @property
    def complete(self) -> bool:
        """True when every event landed and the run finished."""
        return bool(self.footer.get("complete"))

    @property
    def recorded_result(self) -> dict[str, Any] | None:
        """The recorded ``SchemeResult`` as a dict (None if the run died)."""
        return self.footer.get("result")


def load_trace(path: str | Path) -> RecordedTrace:
    """Parse one trace file, validating format and schema version."""
    path = Path(path)
    lines = [
        line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()
    ]
    if not lines:
        raise TraceFormatError(f"{path}: empty file is not an exchange trace")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}: unparsable header line: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != TRACE_KIND:
        raise TraceFormatError(f"{path}: header does not identify a {TRACE_KIND}")
    schema = header.get("schema")
    if schema != TRACE_SCHEMA:
        raise TraceSchemaError(
            f"{path}: trace schema {schema!r}, this build replays only "
            f"{TRACE_SCHEMA} (recorded by a different version?)"
        )
    for field in ("scheme", "seed", "config"):
        if field not in header:
            raise TraceFormatError(f"{path}: header is missing {field!r}")
    events: list[list[Any]] = []
    footer: dict[str, Any] | None = None
    for i, line in enumerate(lines[1:], start=2):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path}:{i}: unparsable line: {exc}") from exc
        if isinstance(entry, list):
            if footer is not None:
                raise TraceFormatError(f"{path}:{i}: event after the footer")
            if not entry or entry[0] not in ("x", "u"):
                raise TraceFormatError(f"{path}:{i}: unknown event {entry!r}")
            # Shape-checked once, here: the replay unpacks events whole.
            try:
                (parse_event if entry[0] == "x" else parse_answer)(entry)
            except WireFormatError as exc:
                raise TraceFormatError(f"{path}:{i}: {exc}") from exc
            events.append(entry)
        elif isinstance(entry, dict) and entry.get("end"):
            footer = entry
        else:
            raise TraceFormatError(f"{path}:{i}: unexpected line {entry!r}")
    if footer is None:
        # No footer: the recording run died mid-stream.  Loadable enough
        # to inspect, but never complete.
        footer = {"end": True, "events": len(events), "dropped": 0,
                  "complete": False, "result": None}
    return RecordedTrace(path=path, header=header, events=events, footer=footer)


class ReplayTransport(EventFedTransport):
    """Answers the transport contract from a recorded event stream.

    Every wire decision (loss, delay, unresponsiveness) comes from the
    recording, so the injector's loss/delay streams are never drawn from
    at all; what the stream and a live socket share is
    :class:`~repro.protocol.transport.EventFedTransport`.
    """

    def __init__(
        self,
        network: Any,
        events: list[list[Any]],
        plan: Any = None,
        scope: str = "",
    ) -> None:
        super().__init__(network, plan, scope)
        self.events = events
        self.pos = 0

    @property
    def remaining(self) -> int:
        """Recorded events not yet consumed."""
        return len(self.events) - self.pos

    def _pop(self, tag: str, observed: str) -> list[Any]:
        if self.pos >= len(self.events):
            raise ReplayDivergence(self.pos, None, observed)
        event = self.events[self.pos]
        self.pos += 1
        if event[0] != tag:
            raise ReplayDivergence(self.pos - 1, event, observed)
        return event

    def draw(self, exchange: Exchange, force_fail: bool = False) -> LadderOutcome:
        """Decide from the recording; diverge loudly on any mismatch."""
        at = self._request_index()
        observed = (
            f"attempt({exchange.kind}, link={exchange.link}, "
            f"force_fail={force_fail}) at request {at}"
        )
        event = self._pop("x", observed)
        _, req, kind, link, ok, charges, deltas, draws = event
        if kind != exchange.kind or link != exchange.link or req != at:
            raise ReplayDivergence(self.pos - 1, event, observed)
        return LadderOutcome.from_event(ok, charges, deltas, draws)

    def unresponsive(self, cluster: int, client: int) -> bool:
        """Answer a probe from the recorded ``"u"`` stream."""
        if not self._active:
            # Recording skips "u" events on plain stacks (the answer is
            # the base transport's constant False); mirror that.
            return False
        at = self._request_index()
        observed = (
            f"unresponsive(cluster={cluster}, client={client}) at request {at}"
        )
        event = self._pop("u", observed)
        _, req, ev_cluster, ev_client, answer = event
        if ev_cluster != cluster or ev_client != client or req != at:
            raise ReplayDivergence(self.pos - 1, event, observed)
        return answer


@dataclasses.dataclass(frozen=True)
class Divergence:
    """First point where the replayed run left the recording."""

    #: Index into the recorded event stream (== stream length when the
    #: replay asked for an exchange past the end).
    index: int
    #: The recorded event at that index (None past the end).
    expected: list[Any] | None
    #: What the replayed scheme actually did.
    observed: str
    #: ``(index, event)`` pairs around the mismatch.
    context: list[tuple[int, list[Any]]]


@dataclasses.dataclass(frozen=True)
class ReplayReport:
    """Outcome of one :func:`replay_trace` run."""

    path: str
    scheme: str
    seed: int
    plan_label: str
    #: Fingerprint of the plan in effect (:func:`~repro.protocol.policy.
    #: plan_fingerprint`) — covers probabilities *and* retry policies, so
    #: a policy-mismatch replay is attributable at a glance.
    plan_fingerprint: str
    n_events: int
    events_replayed: int
    #: None for a clean replay.
    divergence: Divergence | None
    #: Replayed result == recorded result, field for field, byte for byte.
    identical: bool
    result: Any | None
    recorded: dict[str, Any] | None


def _config_from_fingerprint(fingerprint: dict[str, Any], path: Path) -> Any:
    from ..core.config import SimulationConfig
    from ..netmodel import NetworkConfig
    from ..workload import ProWGenConfig

    rest = {
        key: value
        for key, value in fingerprint.items()
        if key not in ("workload", "network")
    }
    known = {f.name for f in dataclasses.fields(SimulationConfig)}
    for key in rest:
        if key not in known:
            raise TraceSchemaError(
                f"{path}: recorded config field {key!r}={rest[key]!r} is not "
                "one this build knows (recorded by a different version?)"
            )
    return SimulationConfig(
        workload=ProWGenConfig(**fingerprint["workload"]),
        network=NetworkConfig(**fingerprint["network"]),
        **rest,
    )


def _context(events: list[list[Any]], index: int, radius: int = 3):
    lo = max(0, index - radius)
    hi = min(len(events), index + radius + 1)
    return [(i, events[i]) for i in range(lo, hi)]


def replay_trace(path: str | Path) -> ReplayReport:
    """Re-drive the recorded run and compare against the recording.

    Raises the :class:`TraceError` family for unusable files (including
    incomplete recordings — a truncated stream cannot round-trip); a
    *divergent* replay is not an error but a finding, returned in the
    report.
    """
    trace = load_trace(path)
    if not trace.complete:
        raise TraceIncompleteError(
            f"{trace.path}: trace is incomplete "
            f"({trace.footer.get('dropped', 0)} dropped events, "
            f"result={'present' if trace.recorded_result else 'missing'}) — "
            "refusing to replay a truncated recording"
        )
    config = _config_from_fingerprint(trace.header["config"], trace.path)
    plan = None
    if trace.header.get("plan") is not None:
        from ..faults.plan import FaultPlan

        plan = FaultPlan(**trace.header["plan"])
    from ..core.run import assemble_run, available_schemes

    name = trace.scheme
    if name not in available_schemes():
        raise TraceFormatError(
            f"{trace.path}: unknown scheme {name!r} "
            f"(have: {', '.join(available_schemes())})"
        )
    transport = ReplayTransport(config.network, trace.events, plan=plan, scope=name)
    divergence: Divergence | None = None
    result = None
    try:
        result = assemble_run(
            name, config, seed=trace.seed, plan=plan, carrier=transport
        )
        if transport.remaining:
            raise ReplayDivergence(
                transport.pos,
                trace.events[transport.pos],
                f"run finished with {transport.remaining} recorded "
                "exchanges left unconsumed",
            )
    except ReplayDivergence as exc:
        divergence = Divergence(
            index=exc.index,
            expected=exc.expected,
            observed=exc.observed,
            context=_context(trace.events, exc.index),
        )
    identical = (
        divergence is None
        and result is not None
        and dataclasses.asdict(result) == trace.recorded_result
    )
    return ReplayReport(
        path=str(trace.path),
        scheme=name,
        seed=trace.seed,
        plan_label=plan.label if plan is not None else "none",
        plan_fingerprint=plan_fingerprint(plan),
        n_events=len(trace.events),
        events_replayed=transport.pos,
        divergence=divergence,
        identical=identical,
        result=result,
        recorded=trace.recorded_result,
    )


def format_report(report: ReplayReport) -> str:
    """Human-readable replay verdict (CLI ``--replay``, the CI gate)."""
    lines = [
        f"replay {report.path}",
        f"  scheme={report.scheme} seed={report.seed} "
        f"plan={report.plan_label} "
        f"fingerprint={report.plan_fingerprint} events={report.n_events}",
    ]
    if report.divergence is None:
        lines.append(
            f"  clean replay: {report.events_replayed}/{report.n_events} "
            "recorded exchanges consumed"
        )
        if report.identical:
            lines.append("  result: byte-identical to the recording")
        else:
            lines.append("  result: DIFFERS from the recording")
            if report.result is not None and report.recorded is not None:
                replayed = dataclasses.asdict(report.result)
                for field in sorted(set(replayed) | set(report.recorded)):
                    if replayed.get(field) != report.recorded.get(field):
                        lines.append(
                            f"    {field}: replayed {replayed.get(field)!r} "
                            f"vs recorded {report.recorded.get(field)!r}"
                        )
    else:
        d = report.divergence
        expected = (
            json.dumps(d.expected)
            if d.expected is not None
            else "<end of recorded stream>"
        )
        lines.append(f"  DIVERGENCE at exchange {d.index}:")
        lines.append(f"    expected: {expected}")
        lines.append(f"    observed: {d.observed}")
        lines.append(
            f"    plan/policy fingerprint in effect: {report.plan_fingerprint} "
            f"(plan={report.plan_label})"
        )
        lines.append(
            "    if this build's FaultPlan or retry policies differ from the "
            "recording's, the divergence is a policy mismatch, not a "
            "simulator bug — compare fingerprints first"
        )
        if d.context:
            lines.append("    context:")
            for idx, event in d.context:
                marker = ">" if idx == d.index else " "
                lines.append(f"    {marker} {idx:>6}: {json.dumps(event)}")
    return "\n".join(lines)
