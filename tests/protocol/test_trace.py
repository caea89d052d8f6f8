"""Recording contract: transparent capture, bounded writer, stable keys.

The recording layer's one promise is that it changes *nothing*: a run
with a :class:`~repro.protocol.trace.RecordingTransport` in the stack
produces a byte-identical :class:`~repro.core.metrics.SchemeResult`, and
the trace it leaves behind round-trips through
:func:`~repro.protocol.replay.replay_trace` to the same bytes again.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimulationConfig
from repro.core.hiergd import HierGdScheme
from repro.core.run import generate_workloads, run_scheme
from repro.faults import FaultPlan
from repro.faults.run import run_scheme_with_faults
from repro.protocol import (
    ALL_EXCHANGES,
    TraceIncompleteError,
    recording_traces,
    replay_trace,
    trace_key,
)
from repro.protocol.replay import ReplayTransport, load_trace
from repro.protocol.messages import PUSH
from repro.protocol.trace import RecordingTransport, TraceRecorder, TraceWriter
from repro.protocol.transport import Transport
from repro.protocol.wire import answer_frame, event_frame
from repro.workload import ProWGenConfig

TINY = ProWGenConfig(n_requests=3000, n_objects=300, n_clients=10)

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


class TestRecordingIsTransparent:
    def test_chain_run_unperturbed_and_round_trips(self, tmp_path):
        # The zero-event churn scheme is served by the engine's general
        # functions: the push protocol's scan crosses the transport stack
        # even without a fault plan, so the trace is non-trivial.  No
        # registry entry builds that scheme, so the round trip is driven
        # by hand.
        config = cfg()
        traces = generate_workloads(config, seed=0)
        plain = HierGdScheme(config, traces, events=[]).run()

        recorder = TraceRecorder(tmp_path)
        recording = recorder.open(
            "hier-gd", config, 0, None, Transport(config.network)
        )
        scheme = HierGdScheme(config, traces, transport=recording, events=[])
        recording.attach(scheme)
        recorded = scheme.run()
        recorder.close(recording, recorded)
        assert dataclasses.asdict(recorded) == dataclasses.asdict(plain)

        trace = load_trace(recorder.written[0])
        assert trace.complete and len(trace.events) > 0
        replaying = ReplayTransport(config.network, trace.events)
        scheme = HierGdScheme(config, traces, transport=replaying, events=[])
        replaying.attach(scheme)
        replayed = scheme.run()
        assert replaying.remaining == 0
        assert dataclasses.asdict(replayed) == trace.recorded_result

    @pytest.mark.parametrize("name", ["fc", "hier-gd"])
    def test_faulty_run_unperturbed_and_round_trips(self, name, tmp_path):
        config = cfg()
        bare = run_scheme_with_faults(name, config, plan=PLAN, seed=0)
        with recording_traces(tmp_path) as recorder:
            recorded = run_scheme_with_faults(name, config, plan=PLAN, seed=0)
        assert dataclasses.asdict(recorded) == dataclasses.asdict(bare)

        report = replay_trace(recorder.written[0])
        assert report.divergence is None
        assert report.identical
        assert report.result.total_latency == bare.total_latency

    def test_plain_fast_path_records_an_empty_but_replayable_trace(self, tmp_path):
        # Fast-path engines serve exchanges inline: zero transport calls
        # is a valid recording, and it must still round-trip.
        with recording_traces(tmp_path) as recorder:
            run_scheme("fc", cfg(), seed=0)
        report = replay_trace(recorder.written[0])
        assert report.n_events == 0
        assert report.divergence is None
        assert report.identical

    def test_run_scheme_records_the_seed_it_ran(self, tmp_path):
        # Regression: the seed once stopped short of the run, every header
        # said seed 0 and the replay regrew the wrong workload.
        with recording_traces(tmp_path) as recorder:
            run_scheme("hier-gd", cfg(), seed=3)
        assert load_trace(recorder.written[0]).seed == 3
        assert replay_trace(recorder.written[0]).identical


class TestBoundedWriter:
    def test_dropped_events_mark_the_trace_incomplete(self, tmp_path):
        with recording_traces(tmp_path, max_events=5) as recorder:
            run_scheme_with_faults("fc", cfg(), plan=PLAN, seed=0)
        trace_path = recorder.written[0]
        footer = load_trace(trace_path).footer
        assert footer["events"] == 5 and footer["dropped"] > 0
        with pytest.raises(TraceIncompleteError):
            replay_trace(trace_path)

    def test_recording_into_a_sealed_writer_raises(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.jsonl", {"kind": "x"})
        recording = RecordingTransport(Transport(cfg().network), writer)
        writer.close(None)
        with pytest.raises(ValueError, match="already closed"):
            recording.attempt(PUSH)

    def test_writer_counts_drops_past_the_bound(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.jsonl", {"kind": "x"}, max_events=2)
        for _ in range(5):
            writer.write_event(["x", 0, "push", "wan", True, [], {}])
        assert writer.events_written == 2
        assert writer.events_dropped == 3
        writer.close(None)


def _events():
    """Event lines as the recorder writes them: ``"x"`` and ``"u"`` frames
    with every field shape a ladder, a replay or a daemon can produce."""
    floats = (
        st.floats()
        | st.sampled_from([5e-324, 1e16, 0.1 + 0.2, -0.0, 1e-7, 2.0**53])
    )
    count = st.integers(0, 2**31)
    deltas = st.fixed_dictionaries(
        {}, optional={"timeouts": count, "retries": count, "fallbacks": count}
    )
    draws = st.none() | st.fixed_dictionaries(
        {},
        optional={
            "ff": st.just(True),
            "d": floats,
            "l": st.lists(floats, max_size=5),
            "j": st.lists(floats, max_size=5),
        },
    )
    exchange = st.builds(
        event_frame,
        st.integers(-1, 2**40),
        st.sampled_from(ALL_EXCHANGES),
        st.booleans(),
        st.lists(floats | st.integers(0, 2**60), max_size=6),
        deltas,
        draws,
    )
    probe = st.builds(
        answer_frame, count, count, count, st.booleans()
    )
    return st.lists(exchange | probe, max_size=20)


class TestEventLines:
    """An event line is ``json.dumps(event) + "\\n"``, whatever encoder
    writes it: the trace's bytes are the replay and what-if contract."""

    @settings(max_examples=200, deadline=None)
    @given(events=_events())
    def test_line_is_json_dumps(self, events):
        with tempfile.TemporaryDirectory() as tmp:
            writer = TraceWriter(Path(tmp) / "t.jsonl", {"kind": "x"})
            for event in events:
                writer.write_event(event)
            writer.close(None)
            lines = writer.path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[1:-1] == [json.dumps(event) + "\n" for event in events]

    def test_a_failed_event_does_not_poison_the_next(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.jsonl", {"kind": "x"})
        event = ["x", 0, "push", "push", True, [object()], {}, None]
        with pytest.raises(TypeError):
            writer.write_event(event)
        event[5] = [1.5]  # the same list objects, encodable now
        writer.write_event(event)
        writer.close(None)
        lines = writer.path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[1:-1] == [json.dumps(event) + "\n"]


class TestTraceKey:
    def test_same_run_same_key_different_run_different_key(self):
        k1 = trace_key(cfg(), "fc", 0, PLAN)
        assert k1 == trace_key(cfg(), "fc", 0, PLAN)
        assert k1 != trace_key(cfg(), "fc-ec", 0, PLAN)
        assert k1 != trace_key(cfg(), "fc", 1, PLAN)
        assert k1 != trace_key(cfg(), "fc", 0, None)
        assert k1 != trace_key(cfg(proxy_cache_fraction=0.1), "fc", 0, PLAN)
