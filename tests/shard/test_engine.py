"""End-to-end tests for the sharded run coordinator.

The contract under test:

* ``shards=1`` is byte-identical to the single-process engine — same
  ``SchemeResult`` — for every scheme in the registry;
* multi-shard runs are deterministic for a fixed ``(seed, shards,
  round_requests)``;
* NC has no inter-cluster cooperation, so sharding it is pure data
  parallelism and must match the base engine *exactly*; SC and Hier-GD
  see bounded-staleness remote presence and may legitimately differ
  within documented semantics (their determinism is gated here, their
  bytes by ``test_golden_shards.py``);
* an unsupported combination is refused by name before anything forks.

The library is the only way to run sharded, so the capability matrix
(``tests/integration/test_run_assembly.py``) is run here too: every
cell without a fault plan at two shards, gated or refused by name, and
at one shard on streaming traces, equal to its anchor.
"""

import json
import multiprocessing.process

import pytest

from repro.core.config import SimulationConfig
from repro.core.run import SCHEME_REGISTRY, generate_workloads, run_scheme
from repro.shard import UnsupportedConfiguration, run_scheme_sharded
from repro.workload import ProWGenConfig
from repro.experiments.store import serialize_result
from repro.protocol.trace import recording_traces
from tests.integration.test_run_assembly import CELLS, CONFIG, Cell, anchor
from tests.shard.test_golden_shards import GOLDEN

WORKLOAD = ProWGenConfig(n_requests=1500, n_objects=100, n_clients=8)

#: The schemes that declare a cooperative surface.
SHARDABLE = ("hier-gd", "nc", "sc")

#: Matrix cells whose two-shard bytes ``GOLDEN_shards.json`` pins (on its
#: own config): (scheme, variant, sized) -> case.
GOLDEN_CASE = {
    ("nc", "", False): "nc-s2-r200",
    ("nc", "", True): "nc-sized",
    ("sc", "", False): "sc-s2-r200",
    ("sc", "", True): "sc-sized",
    ("hier-gd", "", False): "hier-gd-s2-r200",
    ("hier-gd", "", True): "hier-gd-sized",
    ("hier-gd", "gd_cost_model=gd", True): "hier-gd-sized-gd",
    ("hier-gd", "overlay=chord", False): "hier-gd-chord",
    ("hier-gd", "hiergd_policy=lru", False): "hier-gd-lru",
}


def cfg(**kw):
    kw.setdefault("workload", WORKLOAD)
    kw.setdefault("n_proxies", 4)
    kw.setdefault("warmup_fraction", 0.1)
    return SimulationConfig(**kw)


class TestSingleShardIdentity:
    @pytest.mark.parametrize("name", sorted(SCHEME_REGISTRY))
    def test_shards1_matches_base_engine(self, name):
        config = cfg()
        traces = generate_workloads(config, seed=3)
        base = run_scheme(name, config, traces=traces)
        assert run_scheme_sharded(name, config, seed=3, shards=1) == base

    @pytest.mark.parametrize("name", SHARDABLE)
    def test_shards1_streaming_traces_match(self, name, tmp_path):
        config = cfg()
        base = run_scheme(name, config, generate_workloads(config, seed=1))
        sharded = run_scheme_sharded(
            name, config, seed=1, shards=1, trace_dir=str(tmp_path)
        )
        assert sharded == base


class TestMultiShard:
    @pytest.mark.parametrize("name", SHARDABLE)
    def test_two_shard_run_is_deterministic(self, name):
        config = cfg()
        first = run_scheme_sharded(name, config, seed=0, shards=2, round_requests=200)
        second = run_scheme_sharded(name, config, seed=0, shards=2, round_requests=200)
        assert first == second

    def test_nc_sharding_is_exact(self):
        # No inter-cluster cooperation -> sharding must not move a byte
        # (modulo the extras that record the decomposition itself).
        config = cfg()
        base = run_scheme("nc", config, generate_workloads(config, seed=0))
        sharded = run_scheme_sharded("nc", config, seed=0, shards=2)
        assert sharded.n_requests == base.n_requests
        assert sharded.tier_counts == base.tier_counts
        assert sharded.total_latency == base.total_latency
        assert sharded.messages == base.messages

    @pytest.mark.parametrize("name", SHARDABLE)
    def test_request_accounting_is_conserved(self, name):
        config = cfg()
        base = run_scheme(name, config, generate_workloads(config, seed=0))
        sharded = run_scheme_sharded(name, config, seed=0, shards=2)
        assert sharded.n_requests == base.n_requests
        assert sum(sharded.tier_counts.values()) == sum(base.tier_counts.values())

    def test_lfu_policy_hier_gd_runs_sharded(self):
        # An LFU proxy keeps its members in ``_sizes``, not ``_entries``:
        # the surface must read membership through ``_member_map``.
        config = cfg(hiergd_policy="lfu")
        base = run_scheme("hier-gd", config, generate_workloads(config, seed=0))
        first = run_scheme_sharded("hier-gd", config, seed=0, shards=2, round_requests=200)
        second = run_scheme_sharded("hier-gd", config, seed=0, shards=2, round_requests=200)
        assert first == second
        assert first.n_requests == base.n_requests
        assert sum(first.tier_counts.values()) == sum(base.tier_counts.values())

    def test_extras_record_the_decomposition(self):
        config = cfg()
        result = run_scheme_sharded(
            "hier-gd", config, seed=0, shards=2, round_requests=500
        )
        assert result.extras["shards"] == 2.0
        assert result.extras["round_requests"] == 500.0
        assert result.extras["sync_rounds"] == 3.0  # ceil(1500 / 500)

    def test_stats_out_reports_worker_rss(self):
        config = cfg()
        stats = {}
        run_scheme_sharded("nc", config, seed=0, shards=2, stats_out=stats)
        assert stats["worker_max_rss_kb"] > 0
        assert len(stats["worker_rss_kb"]) == 2

    def test_shards_clamped_to_cluster_count(self):
        config = cfg(n_proxies=2)
        first = run_scheme_sharded("nc", config, seed=0, shards=8)
        second = run_scheme_sharded("nc", config, seed=0, shards=2)
        assert first == second


def _no_fork(self):
    raise AssertionError("a worker was started")


def refusal(cell: Cell) -> str | None:
    """The words a two-shard run of ``cell`` is refused with, or ``None``
    when it runs; first obstacle wins, as in ``check_shardable``."""
    if cell.name not in SHARDABLE:
        return "cannot run sharded"
    if cell.recorded:
        return "record with shards=1"
    if cell.variant == "directory=bloom":
        return "directory='exact'"
    return None


#: The capability matrix's cells a sharded run can express: a fault plan
#: is not an input of ``run_scheme_sharded``.
SHARDED_CELLS = [cell for cell in CELLS if not cell.faulty]


class TestMatrixCells:
    @pytest.mark.parametrize("cell", SHARDED_CELLS, ids=lambda cell: cell.id)
    def test_two_shard_cell(self, cell, monkeypatch, tmp_path):
        """A two-shard run of every cell is deterministic and conserves
        requests, or is refused by name before a worker forks."""
        why = refusal(cell)
        if why is None:
            result = run_scheme_sharded(cell.name, cell.config, seed=1, shards=2)
            assert result == run_scheme_sharded(cell.name, cell.config, seed=1, shards=2)
            assert result.n_requests == anchor(cell).n_requests
            assert sum(result.tier_counts.values()) == result.n_requests
            return
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _no_fork)
        with pytest.raises(UnsupportedConfiguration, match=why):
            if cell.recorded:
                with recording_traces(tmp_path / "traces"):
                    run_scheme_sharded(cell.name, cell.config, seed=1, shards=2)
            else:
                run_scheme_sharded(
                    cell.name, cell.config, seed=1, shards=2,
                    trace_dir=str(tmp_path / "traces"),
                )
        assert not any(tmp_path.rglob("*"))

    @pytest.mark.parametrize(
        "cell", [cell for cell in SHARDED_CELLS if not cell.recorded],
        ids=lambda cell: cell.id,
    )
    def test_one_shard_streaming_cell_is_its_anchor(self, cell, tmp_path):
        """One shard reading the cell's traces back from disk is the
        single-process run, byte for byte, for every scheme and axis."""
        result = run_scheme_sharded(
            cell.name, cell.config, seed=1, shards=1, trace_dir=str(tmp_path)
        )
        assert serialize_result(result) == serialize_result(anchor(cell))

    def test_golden_cases_are_matrix_cells_and_pinned(self):
        runs = {(c.name, c.variant, c.sized) for c in SHARDED_CELLS if refusal(c) is None}
        assert set(GOLDEN_CASE) <= runs
        assert set(GOLDEN_CASE.values()) <= set(json.loads(GOLDEN.read_text()))


class TestValidation:
    def test_unsupported_scheme_rejected(self):
        with pytest.raises(ValueError, match="cannot run sharded"):
            run_scheme_sharded("fc", cfg(), shards=2)

    def test_bloom_directory_hier_gd_rejected(self):
        config = cfg(directory="bloom")
        with pytest.raises(ValueError, match="exact"):
            run_scheme_sharded("hier-gd", config, shards=2)

    def test_recording_rejected(self, tmp_path):
        from repro.protocol.trace import recording_traces

        with recording_traces(tmp_path):
            with pytest.raises(ValueError, match="record"):
                run_scheme_sharded("nc", cfg(), shards=2)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            run_scheme_sharded("nc", cfg(), shards=0)

    def test_bloom_hier_gd_refused_before_forking(self, tmp_path, monkeypatch):
        # A refusal inside a worker would surface as RuntimeError("shard 0
        # failed: ...") after every worker had generated its traces.
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _no_fork)
        with pytest.raises(UnsupportedConfiguration, match="directory='exact'") as info:
            run_scheme_sharded(
                "hier-gd", cfg(directory="bloom"), shards=2, trace_dir=str(tmp_path)
            )
        assert isinstance(info.value, ValueError)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.slow
@pytest.mark.scale
class TestAtScale:
    """Downsized cousin of benchmarks/scale_gate.py --mode full; the
    10^7 measurement itself lives in the gate, not the test suite."""

    def test_million_request_sharded_run(self, tmp_path):
        workload = ProWGenConfig(n_requests=125_000, n_objects=2_500, n_clients=100)
        config = SimulationConfig(
            workload=workload, n_proxies=8, warmup_fraction=0.1
        )
        stats = {}
        result = run_scheme_sharded(
            "hier-gd",
            config,
            seed=0,
            shards=4,
            trace_dir=str(tmp_path),
            stats_out=stats,
        )
        assert result.n_requests == 900_000  # 10^6 minus the warmup prefix
        assert result.extras["shards"] == 4.0
        assert stats["worker_max_rss_kb"] > 0
