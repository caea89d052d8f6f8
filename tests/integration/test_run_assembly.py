"""Every entry point builds the same scheme for the same ``(name, plan)``.

A run is simulated (``run_scheme`` / ``run_scheme_with_faults``),
replayed from its recording (``replay_trace``) or driven against live
daemons (``drive_scheme``); a replay or a live trace is only comparable
to the simulation if all of them constructed the same scheme class, on
the same Hier-GD engine, reporting under the same name.

The second half is the **capability matrix**: every combination of
scheme x sizes x fault plan x recording (plus the config axes only some
schemes read), run through the entry point that takes its axes, equals
its plain single-process anchor, and a recorded one also replays to
itself byte for byte.  README's "Status" table is :func:`render_matrix`
of the same data (``PYTHONPATH=src python -m
tests.integration.test_run_assembly`` prints it).  Multi-shard runs are
gated in ``tests/shard/``.
"""

import dataclasses
import importlib
import itertools
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.core.config import SimulationConfig
from repro.core.hiergd import HierGdScheme
from repro.core.run import (
    assemble_run,
    available_schemes,
    build_scheme,
    generate_workloads,
    run_scheme,
    with_backend,
)
from repro.core.schemes import SCHEME_REGISTRY
from repro.core.simulator import CachingScheme
from repro.daemon import LocalCluster, drive_scheme
from repro.experiments.executor import SweepPoint, run_point
from repro.experiments.store import deserialize_result, serialize_result
from repro.faults import NO_FAULTS, FaultPlan, run_scheme_with_faults
from repro.netmodel import TIER_COOP_P2P, TIER_COOP_PROXY
from repro.protocol import recording_traces, replay_trace
from repro.protocol.transport import Transport
from repro.shard import ShardView
from repro.workload import ProWGenConfig

CONFIG = SimulationConfig(
    workload=ProWGenConfig(n_requests=600, n_objects=120, n_clients=8),
    n_proxies=2,
    proxy_cache_fraction=0.3,
)

PLANS = {
    "none": None,
    "zero": NO_FAULTS,
    "active": FaultPlan(
        p2p_loss=0.1, proxy_loss=0.1, push_loss=0.1, stale_rate=0.05,
        unresponsive_fraction=0.1, churn_rate=2e-3, seed=7,
    ),
}

#: Schemes an active plan changes; ``nc`` stands for those it does not.
FAULTABLE = {"fc", "fc-ec", "squirrel", "hier-gd"}


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(n_clients=1) as running:
        yield running


@pytest.fixture
def built(monkeypatch):
    """``(class, proxy insert, reported name)`` of every scheme that runs
    (the insert: which function Hier-GD's ``_proxy_insert`` is)."""
    seen = []
    run = CachingScheme.run

    def spy(self):
        insert = getattr(self, "_proxy_insert", None)
        seen.append((type(self), insert and insert.__func__.__name__, self.name))
        return run(self)

    monkeypatch.setattr(CachingScheme, "run", spy)
    return seen


@pytest.mark.parametrize("plan_kind", list(PLANS))
@pytest.mark.parametrize("name", available_schemes())
def test_all_entry_points_build_the_same_scheme(name, plan_kind, built, cluster, tmp_path):
    plan = PLANS[plan_kind]
    bites = plan_kind == "active" and name in FAULTABLE
    with recording_traces(tmp_path) as recorder:
        run_scheme_with_faults(name, CONFIG, plan=plan, seed=1)
    replay_trace(recorder.written[0])
    drive_scheme(name, CONFIG, routes=cluster.routes, plan=plan, seed=1)
    if not bites:
        run_scheme(name, CONFIG, seed=1)

    insert = "_proxy_insert" if name == "hier-gd" else None
    expected = (SCHEME_REGISTRY[name], insert, name)
    assert built == [expected] * len(built) and len(built) >= 3


@pytest.mark.parametrize("plan_kind", list(PLANS))
@pytest.mark.parametrize("name", available_schemes())
def test_construction_never_shadows_process(name, plan_kind):
    """One serving method per scheme: whatever the plan, the built scheme
    is the registry class itself — no execution-mode subclass — and
    serves through its ``process`` (only a layer's ``attach`` wraps it,
    after construction)."""
    traces = generate_workloads(CONFIG, seed=1)
    scheme = build_scheme(name, CONFIG, traces, PLANS[plan_kind])
    assert type(scheme) is SCHEME_REGISTRY[name]
    assert "process" not in vars(scheme)


def test_hier_gd_is_one_class():
    """No class in the package subclasses ``HierGdScheme``: churn, faults
    and sizes are what a run carries, not a class it is built as."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    pending, found = [HierGdScheme], []
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if sub.__module__.split(".")[0] == "repro":
                found.append(sub)
    assert found == []


class RefusingTransport(Transport):
    """A plain stack that fails the run if the scheme asks it anything."""

    def draw(self, exchange, force_fail=False):
        raise AssertionError(f"a plain run asked the transport about {exchange}")


@pytest.mark.parametrize("name", ["fc", "fc-ec", "squirrel"])
def test_plain_runs_never_ask_the_transport(name):
    """The fault-only exchange stays behind the ``_faulty`` guard, so a
    plain run completes on a stack whose ``draw`` raises."""
    traces = generate_workloads(CONFIG, seed=1)
    scheme = SCHEME_REGISTRY[name](CONFIG, traces, transport=RefusingTransport(CONFIG.network))
    result = scheme.run()
    assert serialize_result(result) == serialize_result(run_scheme(name, CONFIG, traces))
    # Squirrel would ask on every request; FC / FC-EC whenever a remote copy serves.
    assert name == "squirrel" or {TIER_COOP_PROXY, TIER_COOP_P2P} & set(result.tier_counts)


# -- the capability matrix ---------------------------------------------------

REPO = Path(__file__).resolve().parents[2]
SIZED = dataclasses.replace(CONFIG.workload, object_sizes="heavy-tailed")

#: Config axes only some schemes read, varied one at a time.
VARIANTS = {
    "hier-gd": [
        {},
        {"directory": "bloom"},
        {"overlay": "chord"},
        {"hiergd_policy": "lru"},
        {"hiergd_policy": "lfu"},
        {"gd_cost_model": "gd"},
    ],
    "squirrel": [{}, {"overlay": "chord"}],
}


@dataclasses.dataclass(frozen=True)
class Cell:
    """One combination, and what must happen when it is run."""

    name: str
    overrides: tuple
    sized: bool
    faulty: bool
    recorded: bool

    @property
    def variant(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.overrides)

    @property
    def id(self) -> str:
        tags = [self.name, self.variant]
        tags += ["sized"] * self.sized + ["plan"] * self.faulty
        tags += ["recorded"] * self.recorded
        return "-".join(t for t in tags if t)

    @property
    def config(self) -> SimulationConfig:
        changes = dict(self.overrides)
        if self.sized:
            changes["workload"] = SIZED
        return CONFIG.with_changes(**changes)

    @property
    def plan(self) -> FaultPlan | None:
        return PLANS["active"] if self.faulty else None

    @property
    def expected(self) -> str:
        """What the cell is held to: its anchor, and a recorded cell
        also its own replay."""
        return "anchor, replayed" if self.recorded else "anchor"


CELLS = [
    Cell(name, tuple(variant.items()), sized, faulty, recorded)
    for name in SCHEME_REGISTRY
    for variant in VARIANTS.get(name, [{}])
    for sized, faulty, recorded in itertools.product(
        (False, True), (False, True), (False, True)
    )
]


def run_cell(cell: Cell):
    """Through the entry point that takes the cell's axes: ``run_scheme``
    without a plan, the experiment engine's ``run_point`` with one."""
    if cell.plan is None:
        return run_scheme(cell.name, cell.config, seed=1)
    point = SweepPoint(
        cell.name, cell.config.proxy_cache_fraction, cell.config, seed=1,
        faults=cell.plan,
    )
    return deserialize_result(run_point(point)["result"])


_ANCHORS: dict = {}


def anchor(cell: Cell):
    """The plain single-process run of the cell's (scheme, config, plan):
    ``run_scheme`` itself when there is no plan."""
    key = (cell.name, cell.config, cell.plan)
    if key not in _ANCHORS:
        _ANCHORS[key] = run_scheme_with_faults(
            cell.name, cell.config, plan=cell.plan, seed=1
        )
    return _ANCHORS[key]


def run_recorded(cell: Cell, directory: Path):
    """``run_cell`` inside a recording block, and the one trace it wrote."""
    with recording_traces(directory) as recorder:
        result = run_cell(cell)
    (written,) = recorder.written
    return result, written


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.id)
def test_capability_matrix(cell, tmp_path):
    if cell.recorded:
        # A recording changes no byte of the run, and replays to it.
        result, written = run_recorded(cell, tmp_path)
        report = replay_trace(written)
        assert report.divergence is None and report.identical
        assert serialize_result(report.result) == serialize_result(result)
    else:
        result = run_cell(cell)
    assert serialize_result(result) == serialize_result(anchor(cell))


def test_ledger_backend_names_run_one_stack():
    """The performance ledger still spells a backend: ``"async"`` runs
    the very stack ``"sync"`` does, byte for byte, and any other name is
    refused."""
    plan = PLANS["active"]
    sync = run_scheme_with_faults("hier-gd", CONFIG, plan=plan, seed=1)
    named = run_scheme_with_faults("hier-gd", CONFIG, plan=plan, seed=1, backend="async")
    assert serialize_result(named) == serialize_result(sync)
    stack = Transport(CONFIG.network)
    assert with_backend(stack, "async") is with_backend(stack, "sync") is stack
    with pytest.raises(ValueError, match="unknown backend 'threads'"):
        with_backend(stack, "threads")
    with pytest.raises(ValueError, match="unknown backend 'threads'"):
        run_scheme_with_faults("hier-gd", CONFIG, plan=plan, seed=1, backend="threads")


@pytest.mark.parametrize("name", ["nc", "sc", "hier-gd"])
def test_view_owning_every_cluster_is_an_identity(name, built):
    """The structural form of "``shards=1`` is an identity": no remote
    peers, one round — and the scheme under the view is the registry's."""
    traces = generate_workloads(CONFIG, seed=1)
    plain = run_scheme(name, CONFIG, traces, seed=1)
    n = CONFIG.n_proxies
    view = ShardView(
        list(range(n)), n,
        warmup=int(CONFIG.warmup_fraction * n * len(traces[0])),
        round_requests=len(traces[0]),
        exchange=lambda round_index, deltas, pushes: (deltas, pushes),
    )
    viewed = assemble_run(name, CONFIG, traces, seed=1, view=view)
    assert serialize_result(viewed) == serialize_result(plain)
    assert view.rounds == 1
    assert type(view.scheme) is SCHEME_REGISTRY[name]
    assert built[0] == built[1] and built[1][0] is SCHEME_REGISTRY[name]


# -- README's table ----------------------------------------------------------

#: Column -> the cells it summarises.
COLUMNS = {
    "plain": lambda c: (c.sized, c.faulty, c.recorded) == (0, 0, 0),
    "sized": lambda c: (c.sized, c.faulty, c.recorded) == (1, 0, 0),
    "fault plan (any sizes)": lambda c: (c.faulty, c.recorded) == (1, 0),
    "recorded (any sizes / plan)": lambda c: c.recorded,
}
BEGIN, END = "<!-- capability-matrix:begin -->", "<!-- capability-matrix:end -->"


def render_matrix() -> str:
    """The matrix as the markdown table README publishes."""
    lines = [
        "| scheme | " + " | ".join(COLUMNS) + " |",
        "|---|" + "---|" * len(COLUMNS),
    ]
    rows = dict.fromkeys((c.name, c.variant) for c in CELLS)
    for name, variant in rows:
        row = [f"`{name}`" + (f" `{variant}`" if variant else "")]
        for picks in COLUMNS.values():
            outcomes = dict.fromkeys(
                c.expected
                for c in CELLS
                if (c.name, c.variant) == (name, variant) and picks(c)
            )
            row.append(" / ".join(outcomes))
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def test_readme_publishes_the_matrix():
    readme = (REPO / "README.md").read_text()
    published = readme.split(BEGIN)[1].split(END)[0].strip()
    assert published == render_matrix()


if __name__ == "__main__":
    print(render_matrix())
