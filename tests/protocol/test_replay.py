"""Replay harness edge cases: unusable files, divergences, exact counters.

A trace is a byte-exact contract.  These tests pin down how the harness
refuses files that cannot honour it (empty, truncated, wrong schema) and
how it *reports* — rather than hides — recordings that disagree with the
scheme replaying them.
"""

import dataclasses
import json

import pytest

from repro.core.config import SimulationConfig
from repro.experiments.robustness import robustness_plan
from repro.faults import FaultPlan
from repro.faults.run import run_scheme_with_faults
from repro.protocol import (
    FAULT_COUNTERS,
    PolicySet,
    RetryPolicy,
    TraceFormatError,
    TraceIncompleteError,
    TraceSchemaError,
    load_trace,
    plan_fingerprint,
    recording_traces,
    replay_trace,
)
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


@pytest.fixture(scope="module")
def faulty_trace(tmp_path_factory):
    """One recorded faulty hier-gd run, shared (read-only) by the tests."""
    directory = tmp_path_factory.mktemp("traces")
    with recording_traces(directory) as recorder:
        result = run_scheme_with_faults("hier-gd", cfg(), plan=PLAN, seed=0)
    return recorder.written[0], result


def _rewrite(src, dst, *, header=None, drop_events=0):
    """Copy a trace, optionally patching the header / truncating events."""
    lines = src.read_text(encoding="utf-8").splitlines()
    head = json.loads(lines[0])
    if header:
        head.update(header)
    events = [ln for ln in lines[1:] if ln.lstrip().startswith("[")]
    footer = [ln for ln in lines[1:] if not ln.lstrip().startswith("[")]
    if drop_events:
        events = events[:-drop_events]
    dst.write_text(
        "\n".join([json.dumps(head), *events, *footer]) + "\n", encoding="utf-8"
    )
    return dst


class TestUnusableFiles:
    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_non_trace_json_is_rejected(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"schema": 2, "key": "abc"}\n', encoding="utf-8")
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_schema_skew_is_rejected(self, faulty_trace, tmp_path):
        src, _ = faulty_trace
        skewed = _rewrite(src, tmp_path / "skew.jsonl", header={"schema": 999})
        with pytest.raises(TraceSchemaError):
            load_trace(skewed)

    def test_schema1_is_refused_naming_its_version(self, faulty_trace, tmp_path):
        # Nothing writes the draws-free schema any more; its reader went
        # with it, and the refusal says which version the file speaks.
        src, _ = faulty_trace
        old = _rewrite(src, tmp_path / "schema1.jsonl", header={"schema": 1})
        with pytest.raises(TraceSchemaError, match="trace schema 1,"):
            load_trace(old)

    def test_missing_footer_means_incomplete(self, faulty_trace, tmp_path):
        src, _ = faulty_trace
        lines = src.read_text(encoding="utf-8").splitlines()
        crashed = tmp_path / "crashed.jsonl"
        crashed.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        trace = load_trace(crashed)  # loadable for inspection...
        assert not trace.complete
        with pytest.raises(TraceIncompleteError):  # ...but never replayable
            replay_trace(crashed)

    def test_unknown_scheme_in_header_is_rejected(self, faulty_trace, tmp_path):
        src, _ = faulty_trace
        bogus = _rewrite(src, tmp_path / "bogus.jsonl", header={"scheme": "nope"})
        with pytest.raises(TraceFormatError):
            replay_trace(bogus)


class TestMalformedEvents:
    """One bad event inside an otherwise valid trace: the reader's named
    error with path and line, never an unpacking ``ValueError`` halfway
    through a replay (ROADMAP item 10(b), for this one reader)."""

    @staticmethod
    def _doctor(src, dst, tag, mutate):
        """Rewrite the first ``tag`` event through ``mutate``; its line number."""
        lines = src.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            if line.startswith(f'["{tag}"'):
                lines[i] = json.dumps(mutate(json.loads(line)))
                dst.write_text("\n".join(lines) + "\n", encoding="utf-8")
                return i + 1
        raise AssertionError(f"no {tag!r} event in {src}")

    @pytest.mark.parametrize(
        "tag, mutate",
        [
            ("x", lambda e: e[:4]),  # the crash this class was written for
            ("x", lambda e: e[:7]),  # the schema-1 shape
            ("x", lambda e: e + [None]),
            ("x", lambda e: [*e[:5], "1.5", *e[6:]]),
            ("x", lambda e: [*e[:6], ["timeouts"], e[7]]),
            ("x", lambda e: [e[0], str(e[1]), *e[2:]]),
            ("u", lambda e: e[:4]),
            ("u", lambda e: e + [0]),
            ("u", lambda e: [*e[:4], "no"]),
        ],
    )
    def test_bad_event_raises_the_named_error(
        self, faulty_trace, tmp_path, tag, mutate
    ):
        src, _ = faulty_trace
        bad = tmp_path / "bad.jsonl"
        line = self._doctor(src, bad, tag, mutate)
        for reader in (load_trace, replay_trace):
            with pytest.raises(TraceFormatError, match=f"bad.jsonl:{line}: "):
                reader(bad)


class TestRecordedConfigFields:
    """Headers are ``asdict(config)`` of the recording build, whose
    ``SimulationConfig`` may have had other fields than this one's."""

    @staticmethod
    def _with_config_field(src, dst, key, value):
        config = json.loads(src.read_text(encoding="utf-8").splitlines()[0])["config"]
        return _rewrite(src, dst, header={"config": {**config, key: value}})

    def test_recorded_fast_hot_path_still_replays(self, faulty_trace, tmp_path):
        src, result = faulty_trace
        old = self._with_config_field(src, tmp_path / "old.jsonl", "hot_path", "fast")
        report = replay_trace(old)
        assert report.divergence is None and report.identical
        assert dataclasses.asdict(report.result) == dataclasses.asdict(result)

    @pytest.mark.parametrize(
        "key, value", [("hot_path", "reference"), ("no_such_knob", 3)]
    )
    def test_unknown_config_field_is_named(self, faulty_trace, tmp_path, key, value):
        src, _ = faulty_trace
        doctored = self._with_config_field(src, tmp_path / "x.jsonl", key, value)
        with pytest.raises(TraceSchemaError, match=key):
            replay_trace(doctored)


class TestDivergences:
    def test_scheme_mismatch_diverges_instead_of_lying(self, faulty_trace, tmp_path):
        # A hier-gd recording replayed as squirrel: the first exchange
        # squirrel asks for is not the one on the wire.
        src, _ = faulty_trace
        wrong = _rewrite(src, tmp_path / "wrong.jsonl", header={"scheme": "squirrel"})
        report = replay_trace(wrong)
        assert report.divergence is not None
        assert not report.identical

    def test_truncated_stream_diverges(self, faulty_trace, tmp_path):
        src, _ = faulty_trace
        short = _rewrite(src, tmp_path / "short.jsonl", drop_events=10)
        report = replay_trace(short)
        assert report.divergence is not None
        # The scheme asked for the first exchange past the shortened end.
        assert report.divergence.index == report.n_events
        assert report.divergence.expected is None

    def test_corrupted_kind_names_the_first_mismatched_exchange(
        self, faulty_trace, tmp_path
    ):
        src, _ = faulty_trace
        lines = src.read_text(encoding="utf-8").splitlines()
        corrupt_index = None
        event_index = -1
        for i, line in enumerate(lines):
            entry = json.loads(line) if line.lstrip().startswith("[") else None
            if entry is None:
                continue
            event_index += 1
            if entry[0] == "x" and corrupt_index is None:
                entry[2] = "proxy_fetch" if entry[2] != "proxy_fetch" else "push"
                lines[i] = json.dumps(entry)
                corrupt_index = event_index
        assert corrupt_index is not None
        corrupted = tmp_path / "corrupted.jsonl"
        corrupted.write_text("\n".join(lines) + "\n", encoding="utf-8")

        report = replay_trace(corrupted)
        assert report.divergence is not None
        assert report.divergence.index == corrupt_index
        assert report.divergence.expected is not None
        assert any(idx == corrupt_index for idx, _ in report.divergence.context)


class TestExactReproduction:
    def test_faulty_replay_reproduces_fault_counters_exactly(self, faulty_trace):
        src, recorded = faulty_trace
        report = replay_trace(src)
        assert report.divergence is None
        assert report.identical
        replayed = report.result
        for key in FAULT_COUNTERS:
            assert replayed.messages.get(key, 0) == recorded.messages.get(key, 0)
        assert dataclasses.asdict(replayed) == dataclasses.asdict(recorded)

    @pytest.mark.parametrize("plan", ["zero", "robustness-0.1"])
    @pytest.mark.parametrize("scheme", ["fc", "fc-ec", "hier-gd", "squirrel"])
    def test_every_faultable_scheme_replays_byte_identically(
        self, scheme, plan, tmp_path
    ):
        plan_ = FaultPlan() if plan == "zero" else robustness_plan(0.1)
        with recording_traces(tmp_path) as recorder:
            result = run_scheme_with_faults(scheme, cfg(), plan=plan_, seed=0)
        (path,) = recorder.written
        report = replay_trace(path)
        assert report.divergence is None and report.identical
        if plan != "zero":
            assert report.n_events > 0  # the check is not vacuous
        assert dataclasses.asdict(report.result) == dataclasses.asdict(result)


class TestRecordedPolicies:
    """A recording made under a non-default policy set carries the set in
    its header, and the replay runs under the set it reads back."""

    POLICIES = PolicySet(
        default=RetryPolicy(strategy="hedged"),
        per_link={"p2p": RetryPolicy(strategy="capped", timeout_cap=2.0, jitter=0.25)},
    )

    @pytest.mark.parametrize("scheme", ["fc", "fc-ec", "hier-gd", "squirrel"])
    def test_non_default_policies_replay_byte_identically(self, scheme, tmp_path):
        plan = dataclasses.replace(PLAN, policies=self.POLICIES)
        with recording_traces(tmp_path) as recorder:
            result = run_scheme_with_faults(scheme, cfg(), plan=plan, seed=0)
        (path,) = recorder.written
        assert FaultPlan(**load_trace(path).header["plan"]) == plan
        report = replay_trace(path)
        assert report.divergence is None and report.identical
        assert report.plan_fingerprint == plan_fingerprint(plan)
        assert report.plan_fingerprint != plan_fingerprint(PLAN)
        assert dataclasses.asdict(report.result) == dataclasses.asdict(result)
