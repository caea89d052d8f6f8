"""Tests for the chunked on-disk trace container and chunked ProWGen."""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import (
    ProWGenConfig,
    cluster_trace_seed,
    generate_cluster_traces,
    generate_cluster_traces_streaming,
    generate_trace,
)
from repro.workload.prowgen import generate_trace_streaming
from repro.workload.stream import (
    HEADER_BYTES,
    ChunkedTraceWriter,
    CorruptTraceError,
    StreamingTrace,
    TruncatedTraceError,
)
from repro.workload.trace import Trace
from tests.workload.test_trace import head


def write_trace(path, objs, clients, n_objects=None, n_clients=None, chunk=3):
    objs = np.asarray(objs, dtype=np.int64)
    clients = np.asarray(clients, dtype=np.int32)
    writer = ChunkedTraceWriter(
        path,
        n_requests=len(objs),
        n_objects=n_objects or (int(objs.max()) + 1 if len(objs) else 1),
        n_clients=n_clients or (int(clients.max()) + 1 if len(clients) else 1),
        name="t",
    )
    for a in range(0, len(objs), chunk):
        writer.append_objects(objs[a : a + chunk])
    for a in range(0, len(clients), chunk):
        writer.append_clients(clients[a : a + chunk])
    return writer.close()


class TestRoundTrip:
    def test_writer_reader_round_trip(self, tmp_path):
        objs = [3, 1, 4, 1, 5, 9, 2, 6]
        clients = [0, 1, 2, 0, 1, 2, 0, 1]
        path = write_trace(tmp_path / "t.ctrace", objs, clients)
        back = StreamingTrace(path)
        assert len(back) == 8
        assert back.chunked is True
        assert list(back.object_slice(0, 8)) == objs
        assert list(back.client_slice(0, 8)) == clients
        assert back.name == "t"

    def test_matches_in_memory_trace_statistics(self, tmp_path):
        rng = np.random.default_rng(7)
        objs = rng.integers(0, 40, size=500)
        clients = rng.integers(0, 6, size=500).astype(np.int32)
        mem = Trace(objs.astype(np.int64), clients, n_objects=40, n_clients=6)
        disk = StreamingTrace(
            write_trace(tmp_path / "t.ctrace", objs, clients, 40, 6),
            chunk_requests=64,
        )
        assert np.array_equal(disk.reference_counts(), mem.reference_counts())
        assert disk.infinite_cache_size == mem.infinite_cache_size
        assert disk.distinct_objects == mem.distinct_objects
        assert disk.one_timer_fraction == pytest.approx(mem.one_timer_fraction)
        assert disk.frequency_table() == mem.frequency_table()

    def test_head_materializes_a_prefix(self, tmp_path):
        path = write_trace(tmp_path / "t.ctrace", [5, 6, 7, 5], [0, 1, 0, 1])
        disk = StreamingTrace(path)
        full = head(disk, len(disk))
        assert list(full.object_ids) == [5, 6, 7, 5]
        assert list(head(disk, 2).object_ids) == [5, 6]

    def test_empty_trace(self, tmp_path):
        path = write_trace(tmp_path / "e.ctrace", [], [])
        back = StreamingTrace(path)
        assert len(back) == 0
        assert back.one_timer_fraction == 0.0

    def test_sized_round_trip_is_version_2(self, tmp_path):
        sizes = np.array([100, 2000, 64, 7], dtype=np.int64)
        writer = ChunkedTraceWriter(
            tmp_path / "s.ctrace", n_requests=5, n_objects=4, n_clients=2,
            name="sized", sizes=sizes,
        )
        writer.append_objects(np.array([0, 1, 2, 3, 1]))
        writer.append_clients(np.array([0, 1, 0, 1, 0], dtype=np.int32))
        back = StreamingTrace(writer.close())
        assert back.has_sizes is True
        assert np.array_equal(back.sizes, sizes)
        assert back.infinite_cache_bytes == 2000  # only object 1 repeats
        assert np.array_equal(head(back, len(back)).sizes, sizes)
        assert np.array_equal(head(back, 3).sizes, sizes)

    def test_size_free_file_stays_version_1(self, tmp_path):
        path = write_trace(tmp_path / "v1.ctrace", [0, 1], [0, 0])
        header = json.loads(path.read_bytes()[:HEADER_BYTES].decode("ascii"))
        assert header["version"] == 1
        assert "sizes" not in header
        back = StreamingTrace(path)
        assert back.has_sizes is False and back.sizes is None

    def test_sized_writer_validates_table_length(self, tmp_path):
        with pytest.raises(ValueError):
            ChunkedTraceWriter(
                tmp_path / "bad.ctrace", n_requests=2, n_objects=3,
                n_clients=1, sizes=np.array([1, 2]),
            )

    def test_truncated_sized_trace_refused(self, tmp_path):
        writer = ChunkedTraceWriter(
            tmp_path / "t.ctrace", n_requests=2, n_objects=2, n_clients=1,
            sizes=np.array([10, 20]),
        )
        writer.append_objects(np.array([0, 1]))
        writer.append_clients(np.array([0, 0], dtype=np.int32))
        path = writer.close()
        # Chop off the appended size table: the header's promised length
        # no longer matches and the reader must refuse.
        with path.open("r+b") as fh:
            fh.truncate(path.stat().st_size - 8)
        with pytest.raises(TruncatedTraceError):
            StreamingTrace(path)


class TestChunkBoundaries:
    def test_iter_chunks_covers_exactly_once(self, tmp_path):
        objs = list(range(10))
        path = write_trace(tmp_path / "t.ctrace", objs, [0] * 10, n_objects=10)
        disk = StreamingTrace(path, chunk_requests=4)  # 4 + 4 + 2
        windows = list(disk.iter_chunks())
        assert [w[0] for w in windows] == [0, 4, 8]
        assert [len(w[1]) for w in windows] == [4, 4, 2]
        assert list(np.concatenate([w[1] for w in windows])) == objs

    def test_slices_across_chunk_boundary(self, tmp_path):
        objs = list(range(20))
        path = write_trace(tmp_path / "t.ctrace", objs, [0] * 20, n_objects=20)
        disk = StreamingTrace(path, chunk_requests=7)
        assert list(disk.object_slice(5, 16)) == objs[5:16]
        assert list(disk.object_slice(18, 99)) == objs[18:]  # clamped

    def test_memmap_views_match(self, tmp_path):
        objs = [2, 4, 6, 8]
        clients = [1, 0, 1, 0]
        disk = StreamingTrace(
            write_trace(tmp_path / "t.ctrace", objs, clients)
        )
        assert list(disk.object_ids) == objs
        assert list(disk.client_ids) == clients


class TestRefusal:
    """Truncated/half-written traces are refused, never guessed at
    (mirrors the exchange-trace reader's PR-5 policy)."""

    def test_truncated_body_refused(self, tmp_path):
        path = write_trace(tmp_path / "t.ctrace", [1, 2, 3, 4], [0, 0, 0, 0])
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(TruncatedTraceError, match="truncated"):
            StreamingTrace(path)

    def test_truncated_header_refused(self, tmp_path):
        path = write_trace(tmp_path / "t.ctrace", [1], [0])
        path.write_bytes(path.read_bytes()[: HEADER_BYTES // 2])
        with pytest.raises(TruncatedTraceError):
            StreamingTrace(path)

    def test_unsealed_file_refused(self, tmp_path):
        writer = ChunkedTraceWriter(tmp_path / "t.ctrace", 2, 2, 1)
        writer.append_objects([0, 1])
        writer.append_clients([0, 0])
        # no close(): the writer "crashed" before sealing
        with pytest.raises(TruncatedTraceError, match="sealed"):
            StreamingTrace(tmp_path / "t.ctrace")

    def test_incomplete_writer_refuses_to_seal(self, tmp_path):
        writer = ChunkedTraceWriter(tmp_path / "t.ctrace", 3, 2, 1)
        writer.append_objects([0, 1, 1])
        writer.append_clients([0])  # one of three
        with pytest.raises(ValueError, match="incomplete"):
            writer.close()

    def test_overfull_append_refused(self, tmp_path):
        writer = ChunkedTraceWriter(tmp_path / "t.ctrace", 2, 2, 1)
        with pytest.raises(ValueError, match="more object ids"):
            writer.append_objects([0, 1, 0])

    def test_foreign_file_refused(self, tmp_path):
        path = tmp_path / "x.ctrace"
        path.write_bytes(b"not a trace" + b" " * 300)
        with pytest.raises(ValueError):
            StreamingTrace(path)

    @pytest.mark.parametrize("field", ["n_requests", "n_objects", "n_clients"])
    @pytest.mark.parametrize("value", ["missing", None, "4", 4.0, True, -1])
    def test_bad_count_field_refused(self, tmp_path, field, value):
        # A sealed header whose request / object / client count is missing,
        # null or not a non-negative int is no trace of ours: the reader's
        # own ValueError, never a KeyError or TypeError out of int().
        path = write_trace(tmp_path / "t.ctrace", [1, 2, 3, 4], [0, 1, 0, 1])
        data = path.read_bytes()
        meta = json.loads(data[:HEADER_BYTES].decode("ascii"))
        if value == "missing":
            del meta[field]
        else:
            meta[field] = value
        raw = json.dumps(meta).encode("ascii")
        path.write_bytes(
            raw + b" " * (HEADER_BYTES - len(raw) - 1) + b"\n" + data[HEADER_BYTES:]
        )
        with pytest.raises(ValueError, match="is not a chunked repro trace"):
            StreamingTrace(path)


def _overwrite(path, offset, value, dtype):
    data = bytearray(path.read_bytes())
    data[offset : offset + np.dtype(dtype).itemsize] = np.array([value], dtype).tobytes()
    path.write_bytes(bytes(data))


class TestBodyRanges:
    """Ids outside the header's ranges are refused by name, with the
    file and the request index — not numpy's error or a GiB bincount."""

    @pytest.mark.parametrize("value", [4, -1, 1 << 60])
    def test_object_id_out_of_range_refused(self, tmp_path, value):
        path = write_trace(tmp_path / "t.ctrace", [1, 2, 3, 0, 1], [0, 1, 0, 1, 0])
        _overwrite(path, HEADER_BYTES + 3 * 8, value, "<i8")
        trace = StreamingTrace(path, chunk_requests=2)
        with pytest.raises(CorruptTraceError, match=rf"t\.ctrace: request 3 has object id"):
            trace.reference_counts()

    @pytest.mark.parametrize("value", [2, -7])
    def test_client_id_out_of_range_refused(self, tmp_path, value):
        path = write_trace(tmp_path / "t.ctrace", [1, 2, 3, 0, 1], [0, 1, 0, 1, 0])
        _overwrite(path, HEADER_BYTES + 5 * 8 + 4 * 4, value, "<i4")
        with pytest.raises(CorruptTraceError, match="request 4 has client id"):
            StreamingTrace(path, chunk_requests=2).reference_counts()


    def test_non_positive_size_refused(self, tmp_path):
        cfg = ProWGenConfig(n_requests=20, n_objects=6, n_clients=2, object_sizes="heavy-tailed")
        path = tmp_path / "t.ctrace"
        generate_trace_streaming(cfg, 1, path)
        _overwrite(path, HEADER_BYTES + 20 * 12 + 2 * 8, 0, "<i8")
        with pytest.raises(CorruptTraceError, match="object 2 has size 0"):
            StreamingTrace(path).sizes


def _sample_files() -> dict[str, bytes]:
    """A small v1 and v2 trace, as bytes."""
    cfg = ProWGenConfig(n_requests=40, n_objects=12, n_clients=3)
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        for version, sizes in (("v1", "off"), ("v2", "heavy-tailed")):
            path = Path(tmp) / f"{version}.ctrace"
            generate_trace_streaming(replace(cfg, object_sizes=sizes), 3, path)
            files[version] = path.read_bytes()
    return files


SAMPLE_FILES = _sample_files()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    version=st.sampled_from(sorted(SAMPLE_FILES)),
    edits=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)), max_size=6),
    cut=st.integers(0, 16),
)
def test_mutated_trace_bytes_parse_or_raise_the_named_errors(version, edits, cut):
    """Overwrite some bytes of a valid trace and maybe truncate it: the
    reader either reads it whole or refuses it with its own errors."""
    data = bytearray(SAMPLE_FILES[version])
    for at, byte in edits:
        data[at % len(data)] = byte
    del data[len(data) - cut :]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.ctrace"
        path.write_bytes(bytes(data))
        try:
            trace = StreamingTrace(path)
            counts = trace.reference_counts()
            trace.sizes
        except (TruncatedTraceError, CorruptTraceError):
            return
        assert counts.sum() == len(trace)
        assert len(trace.client_slice(0, len(trace))) == len(trace)


class TestChunkedProWGen:
    CFG = ProWGenConfig(n_requests=3000, n_objects=150, n_clients=8)

    def test_chunked_matches_monolithic_bytes(self, tmp_path):
        mono = generate_trace(self.CFG, seed=42)
        disk = generate_trace_streaming(
            self.CFG, 42, tmp_path / "t.ctrace", chunk_requests=257
        )
        assert np.array_equal(disk.object_ids, mono.object_ids)
        assert np.array_equal(disk.client_ids, mono.client_ids)
        assert disk.n_objects == mono.n_objects
        assert disk.n_clients == mono.n_clients

    def test_chunk_size_never_changes_bytes(self, tmp_path):
        a = generate_trace_streaming(
            self.CFG, 9, tmp_path / "a.ctrace", chunk_requests=101
        )
        b = generate_trace_streaming(
            self.CFG, 9, tmp_path / "b.ctrace", chunk_requests=2048
        )
        assert np.array_equal(a.object_ids, b.object_ids)
        assert np.array_equal(a.client_ids, b.client_ids)

    def test_cluster_streaming_matches_in_memory(self, tmp_path):
        mem = generate_cluster_traces(self.CFG, 3, seed=5)
        disk = generate_cluster_traces_streaming(
            self.CFG, range(3), tmp_path, seed=5
        )
        assert len(disk) == 3
        for m, d in zip(mem, disk):
            assert np.array_equal(d.object_ids, m.object_ids)
            assert np.array_equal(d.client_ids, m.client_ids)

    def test_cluster_files_reused_when_sealed(self, tmp_path):
        first = generate_cluster_traces_streaming(
            self.CFG, range(2), tmp_path, seed=1
        )
        stamps = [t.path.stat().st_mtime_ns for t in first]
        second = generate_cluster_traces_streaming(
            self.CFG, range(2), tmp_path, seed=1
        )
        assert [t.path.stat().st_mtime_ns for t in second] == stamps

    @pytest.mark.parametrize(
        "sizes, offset, value",
        [
            ("off", HEADER_BYTES + 7 * 8, 150),  # object id == n_objects
            ("off", HEADER_BYTES + 2_999 * 8, -1),  # the last request's
            ("heavy-tailed", HEADER_BYTES + 3000 * 12 + 4 * 8, 0),  # object 4's size
        ],
    )
    def test_corrupt_cached_body_regenerated(self, tmp_path, sizes, offset, value):
        # A sealed file whose body fails the range checks is not reused:
        # the call writes the stream a fresh directory would get.
        cfg = replace(self.CFG, object_sizes=sizes)
        [first] = generate_cluster_traces_streaming(cfg, [0], tmp_path / "a", seed=2)
        _overwrite(first.path, offset, value, "<i8")
        [again] = generate_cluster_traces_streaming(cfg, [0], tmp_path / "a", seed=2)
        [fresh] = generate_cluster_traces_streaming(cfg, [0], tmp_path / "b", seed=2)
        assert again.path == first.path
        assert again.path.read_bytes() == fresh.path.read_bytes()
        assert np.array_equal(again.reference_counts(), fresh.reference_counts())

    def test_cluster_files_written_are_not_read_back(self, tmp_path, monkeypatch):
        # Only reuse pays the body checks: a fresh directory's set-up
        # reads nothing it has just written.
        calls = []
        counts = StreamingTrace.reference_counts
        monkeypatch.setattr(
            StreamingTrace, "reference_counts", lambda t: calls.append(t.path) or counts(t)
        )
        traces = generate_cluster_traces_streaming(self.CFG, range(2), tmp_path, seed=1)
        assert calls == []
        generate_cluster_traces_streaming(self.CFG, range(2), tmp_path, seed=1)
        assert calls == [t.path for t in traces]

    def test_cluster_files_not_reused_across_shapes(self, tmp_path):
        # Same directory, seed and scale; only the popularity skew differs.
        # Reuse used to be keyed on scale alone and replayed the first shape.
        flat, steep = replace(self.CFG, alpha=0.7), replace(self.CFG, alpha=1.0)
        [first] = generate_cluster_traces_streaming(flat, [0], tmp_path, seed=3)
        [second] = generate_cluster_traces_streaming(steep, [0], tmp_path, seed=3)
        assert not np.array_equal(second.object_ids, first.object_ids)
        want = generate_trace(steep, seed=cluster_trace_seed(3, 0), counts_seed=3)
        assert np.array_equal(second.object_ids, want.object_ids)
        assert np.array_equal(second.client_ids, want.client_ids)
        # ... and every other shape field keys the file too, while the
        # first shape's file is still there to be reused.
        for change in (
            {"stack_fraction": 0.6},
            {"stack_skew": 0.5},
            {"one_timer_fraction": 0.2},
        ):
            [other] = generate_cluster_traces_streaming(
                replace(flat, **change), [0], tmp_path, seed=3
            )
            assert other.path != first.path
            assert not np.array_equal(other.object_ids, first.object_ids)
        stamp = first.path.stat().st_mtime_ns
        [again] = generate_cluster_traces_streaming(flat, [0], tmp_path, seed=3)
        assert again.path == first.path and again.path.stat().st_mtime_ns == stamp

    def test_cluster_seeds_are_stable(self):
        assert cluster_trace_seed(0, 0) == 1000
        assert cluster_trace_seed(7, 2) == 7 + 3000
