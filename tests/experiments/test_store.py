"""Tests for the content-addressed JSONL result store."""

import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import SchemeResult
from repro.experiments.executor import ExperimentEngine
from repro.experiments.instrument import RunInstrumentation
from repro.experiments.runner import base_config, cache_size_sweep
from repro.experiments.store import (
    ResultStore,
    deserialize_result,
    point_key,
    serialize_result,
)
from repro.workload import ProWGenConfig

TINY = ProWGenConfig(n_requests=4000, n_objects=300, n_clients=10)
SCHEMES = ("sc", "hier-gd")


def tiny_config(**overrides):
    return base_config(workload=overrides.pop("workload", TINY), **overrides)


def sample_result(scheme="sc"):
    return SchemeResult(
        scheme=scheme,
        n_requests=100,
        total_latency=1234.5,
        tier_counts={"local_proxy": 40, "server": 60},
        extras={"mean_hops": 1.5},
    )


class TestPointKey:
    def test_stable(self):
        cfg = tiny_config()
        assert point_key(cfg, "sc", 0.2, 1) == point_key(cfg, "sc", 0.2, 1)

    def test_equal_configs_equal_keys(self):
        # Two structurally identical configs hash identically (content
        # addressing, not object identity).
        assert point_key(tiny_config(), "sc", 0.2, 1) == point_key(
            tiny_config(), "sc", 0.2, 1
        )

    @pytest.mark.parametrize(
        "other",
        [
            lambda cfg: point_key(cfg, "fc", 0.2, 1),  # scheme
            lambda cfg: point_key(cfg, "sc", 0.3, 1),  # fraction
            lambda cfg: point_key(cfg, "sc", 0.2, 2),  # seed
            lambda cfg: point_key(cfg.with_changes(n_proxies=3), "sc", 0.2, 1),
            lambda cfg: point_key(
                cfg.with_changes(workload=ProWGenConfig(
                    n_requests=4000, n_objects=300, n_clients=10, alpha=0.9
                )),
                "sc", 0.2, 1,
            ),
        ],
    )
    def test_any_ingredient_changes_key(self, other):
        cfg = tiny_config()
        assert other(cfg) != point_key(cfg, "sc", 0.2, 1)


class TestSerialization:
    def test_roundtrip(self):
        result = sample_result()
        assert deserialize_result(serialize_result(result)) == result

    def test_json_roundtrip_exact(self):
        payload = serialize_result(sample_result())
        rehydrated = json.loads(json.dumps(payload))
        assert deserialize_result(rehydrated) == sample_result()


class TestResultStore:
    def test_put_get(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        key = point_key(tiny_config(), "sc", 0.2, 1)
        assert store.get(key) is None and key not in store
        store.put(key, sample_result(), label="sc@S=0.2")
        assert key in store
        assert store.get(key) == sample_result()

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "s.jsonl"
        key = point_key(tiny_config(), "sc", 0.2, 1)
        ResultStore(path).put(key, sample_result())
        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert reloaded.get(key) == sample_result()

    def test_torn_trailing_line_ignored(self, tmp_path):
        """A killed run can leave a half-written last line; reload skips it."""
        path = tmp_path / "s.jsonl"
        key = point_key(tiny_config(), "sc", 0.2, 1)
        ResultStore(path).put(key, sample_result())
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"key": "deadbeef", "result": {"sch')  # torn write
        store = ResultStore(path)
        assert len(store) == 1
        assert store.skipped_lines == 1
        assert store.get(key) == sample_result()

    def test_row_after_a_torn_line_starts_its_own_line(self, tmp_path):
        """The first row a resumed run appends behind a torn line is not
        glued onto it (and lost on the next load)."""
        path = tmp_path / "s.jsonl"
        ResultStore(path).put("first", sample_result())
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"key": "deadbeef", "result": {"sch')  # torn write
        ResultStore(path).put("second", sample_result())
        store = ResultStore(path)
        assert store.skipped_lines == 1
        assert store.get("first") == store.get("second") == sample_result()

    @pytest.mark.parametrize(
        "result",
        [
            {"n_requests": 3},  # no "scheme"
            [],
            {"scheme": "sc", "n_requests": 3, "total_latency": 1.0,
             "tier_counts": {"server": 2}},  # tiers do not sum to n_requests
        ],
        ids=["missing-field", "list", "tiers-off"],
    )
    def test_unparsable_result_row_is_skipped_and_resimulated(self, tmp_path, result):
        path = tmp_path / "s.jsonl"
        first = ExperimentEngine(store=ResultStore(path), instrument=RunInstrumentation())
        cache_size_sweep(
            tiny_config(), schemes=("sc",), fractions=(0.2,), seed=1, engine=first
        )
        rows = path.read_text().splitlines()
        key = json.loads(rows[0])["key"]
        bad = json.dumps({"key": key, "result": result})
        path.write_text("\n".join([bad, *rows[1:]]) + "\n")
        store = ResultStore(path)
        assert store.skipped_lines == 1
        assert key not in store and store.get(key) is None
        resumed = ExperimentEngine(store=store, instrument=RunInstrumentation())
        cache_size_sweep(
            tiny_config(), schemes=("sc",), fractions=(0.2,), seed=1, engine=resumed
        )
        assert resumed.instrument.executed == 1  # only the bad row's point
        assert resumed.instrument.skipped == len(rows) - 1

    def test_latest_record_wins(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        key = point_key(tiny_config(), "sc", 0.2, 1)
        store.put(key, sample_result())
        newer = sample_result()
        newer.extras["mean_hops"] = 9.0
        store.put(key, newer)
        assert ResultStore(path).get(key).extras["mean_hops"] == 9.0


class TestRowSchema:
    def test_rows_carry_the_schema_version(self, tmp_path):
        from repro.experiments.store import ROW_SCHEMA

        path = tmp_path / "s.jsonl"
        ResultStore(path).put("k", sample_result())
        row = json.loads(path.read_text().strip())
        assert row["schema"] == ROW_SCHEMA

    def test_legacy_row_without_schema_loads(self, tmp_path):
        """Rows written before the schema field existed read as v1."""
        path = tmp_path / "s.jsonl"
        legacy = {"key": "old", "label": "", "meta": {},
                  "result": serialize_result(sample_result())}
        path.write_text(json.dumps(legacy) + "\n")
        store = ResultStore(path)
        assert store.get("old") == sample_result()
        assert store.skipped_lines == 0

    def test_unknown_newer_schema_skipped_with_warning(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.put("ok", sample_result())
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"schema": 99, "key": "future",
                                 "result": {"from": "the future"}}) + "\n")
        with pytest.warns(UserWarning, match="unknown schema"):
            reloaded = ResultStore(path)
        assert reloaded.get("ok") == sample_result()
        assert reloaded.get("future") is None
        assert reloaded.skipped_lines == 1

    def test_string_schema_warning_names_its_type(self, tmp_path):
        path = tmp_path / "s.jsonl"
        row = {"schema": "2", "key": "k", "result": serialize_result(sample_result())}
        path.write_text(json.dumps(row) + "\n")
        with pytest.warns(UserWarning, match="unknown schema '2' of type str"):
            store = ResultStore(path)
        assert store.skipped_lines == 1 and "k" not in store


class TestMalformedRows:
    """Unparsable rows are skipped and counted; loading never raises."""

    @pytest.mark.parametrize("key", [["a"], {"a": 1}, 7, None], ids=repr)
    def test_row_whose_key_is_not_a_string_is_skipped(self, tmp_path, key):
        path = tmp_path / "s.jsonl"
        good = {"schema": 2, "key": "ok", "result": serialize_result(sample_result())}
        path.write_text(json.dumps({**good, "key": key}) + "\n" + json.dumps(good) + "\n")
        store = ResultStore(path)
        assert store.skipped_lines == 1
        assert len(store) == 1 and store.get("ok") == sample_result()

    def test_row_that_is_not_utf8_is_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        ResultStore(path).put("ok", sample_result())
        with path.open("ab") as fh:
            fh.write(b'{"key": "\xff\xfe"}\n')
        store = ResultStore(path)
        assert store.skipped_lines == 1 and store.get("ok") == sample_result()

    @pytest.mark.parametrize("failure_first", [True, False], ids=["before", "after"])
    def test_failure_row_never_hides_a_result(self, tmp_path, failure_first):
        """A resultless ``"failed"`` row, as older builds wrote for a
        quarantined point, is skipped whether it precedes or follows the
        point's result, so the result is what ``get`` answers."""
        path = tmp_path / "s.jsonl"
        good = {"schema": 2, "key": "k", "label": "sc@S=0.2", "meta": {},
                "result": serialize_result(sample_result())}
        failed = {"schema": 2, "key": "k", "label": "sc@S=0.2", "meta": {},
                  "failed": {"error": "RuntimeError('boom')", "attempts": 3}}
        rows = [failed, good] if failure_first else [good, failed]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        store = ResultStore(path)
        assert store.skipped_lines == 1
        assert store.get("k") == sample_result()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(st.integers(min_value=0), st.integers(0, 255)), max_size=6
        ),
        cut=st.integers(min_value=0),
    )
    def test_mutated_store_bytes_keep_or_skip_every_row(self, edits, cut):
        """Overwrite some bytes of a valid three-row store and truncate it:
        every row is kept or skipped, and a row left intact is kept."""
        rows = [
            json.dumps({"schema": 2, "key": f"k{i}", "label": f"sc@S=0.{i}",
                        "result": serialize_result(sample_result()), "meta": {}},
                       sort_keys=True).encode()
            for i in range(3)
        ]
        data = bytearray(b"\n".join(rows) + b"\n")
        for at, byte in edits:
            data[at % len(data)] = byte
        del data[len(data) - cut % len(data):]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.jsonl"
            path.write_bytes(bytes(data))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                store = ResultStore(path)
            lines = [line for line in bytes(data).splitlines() if line.strip()]
            assert len(store) + store.skipped_lines <= len(lines)
            for line in lines:
                if line in rows:
                    assert json.loads(line)["key"] in store
            for key in ("k0", "k1", "k2"):
                if key in store:
                    assert isinstance(store.get(key), SchemeResult)


class TestResume:
    def _engine(self, path):
        return ExperimentEngine(
            store=ResultStore(path), instrument=RunInstrumentation()
        )

    def test_rerun_executes_nothing(self, tmp_path):
        path = tmp_path / "s.jsonl"
        first = self._engine(path)
        sweep1 = cache_size_sweep(
            tiny_config(), schemes=SCHEMES, fractions=(0.2, 0.8), seed=1,
            engine=first,
        )
        n_points = first.instrument.executed
        assert n_points == 2 * (len(SCHEMES) + 1)  # + NC baseline per fraction

        second = self._engine(path)
        sweep2 = cache_size_sweep(
            tiny_config(), schemes=SCHEMES, fractions=(0.2, 0.8), seed=1,
            engine=second,
        )
        assert second.instrument.executed == 0
        assert second.instrument.skipped == n_points
        assert sweep1.to_csv() == sweep2.to_csv()

    def test_interrupted_suite_resumes_from_prefix(self, tmp_path):
        """Killing a suite mid-run == having completed only some points;
        the re-invocation computes exactly the remainder."""
        path = tmp_path / "s.jsonl"
        partial = self._engine(path)
        cache_size_sweep(
            tiny_config(), schemes=SCHEMES, fractions=(0.2,), seed=1,
            engine=partial,
        )
        done = partial.instrument.executed

        resumed = self._engine(path)
        full = cache_size_sweep(
            tiny_config(), schemes=SCHEMES, fractions=(0.2, 0.8), seed=1,
            engine=resumed,
        )
        assert resumed.instrument.skipped == done
        assert resumed.instrument.executed == len(SCHEMES) + 1  # new fraction only

        fresh = cache_size_sweep(
            tiny_config(), schemes=SCHEMES, fractions=(0.2, 0.8), seed=1
        )
        assert full.to_csv() == fresh.to_csv()

    def test_different_seed_does_not_reuse_store(self, tmp_path):
        path = tmp_path / "s.jsonl"
        cache_size_sweep(
            tiny_config(), schemes=("sc",), fractions=(0.2,), seed=1,
            engine=self._engine(path),
        )
        other = self._engine(path)
        cache_size_sweep(
            tiny_config(), schemes=("sc",), fractions=(0.2,), seed=2,
            engine=other,
        )
        assert other.instrument.skipped == 0
        assert other.instrument.executed == 2
