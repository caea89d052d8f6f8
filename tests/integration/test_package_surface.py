"""``src/repro`` ships what the system runs.

Every module-level public function or class in the package must be
referenced from somewhere the system reaches: the package itself (its
CLIs, ``FIGURES``, the daemon, registries), ``examples/`` or
``benchmarks/`` (the gates and the ledger).  Tests do not count — a
symbol only tests reach is a reference model (it belongs under
``tests/models/``) or dead code.

A reference is a ``Name`` or ``Attribute`` use anywhere outside the
symbol's own definition.  ``__all__`` strings and ``from … import``
re-export lines are not uses; a registry value such as
``SCHEME_REGISTRY``'s classes is.  The few exemptions are listed in
:data:`ALLOWLIST`, each with its reason, and an entry whose symbol is
now reached, or gone, fails the test too.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: ``module path (relative to src/) :: symbol`` -> why it may stay unreached.
ALLOWLIST = {
    "repro/analysis/models.py::lru_hit_rate_che": (
        "pending model: ROADMAP item 6 gives analysis/models.py a FIGURES caller"
    ),
    "repro/analysis/models.py::predicted_nc_latency": (
        "pending model: ROADMAP item 6 gives analysis/models.py a FIGURES caller"
    ),
    "repro/analysis/models.py::predicted_fc_latency": (
        "pending model: ROADMAP item 6 gives analysis/models.py a FIGURES caller"
    ),
    "repro/experiments/report.py::render_status_table": (
        "README API: renders README's 'Reproduction status' table"
    ),
    "repro/workload/adapters.py::from_common_log": (
        "README API: the Common Log Format half of the Squid/CLF log adapters"
    ),
    "repro/workload/ucb.py::generate_ucb_like_trace": (
        "README API: the UCB-like substitute trace for one cluster"
    ),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules(base: Path, relative_to: Path):
    for path in sorted(base.rglob("*.py")):
        yield path.relative_to(relative_to).as_posix(), ast.parse(
            path.read_text(encoding="utf-8")
        )


def _public_definitions(root: Path) -> set[str]:
    return {
        f"{module}::{stmt.name}"
        for module, tree in _modules(root / "src" / "repro", root / "src")
        for stmt in tree.body
        if isinstance(stmt, _DEFS) and not stmt.name.startswith("_")
    }


def _references(root: Path) -> dict[str, set[str]]:
    """Referenced name -> the ``module::top-level owner`` of every use."""
    trees = [
        *_modules(root / "src" / "repro", root / "src"),
        *_modules(root / "examples", root),
        *_modules(root / "benchmarks", root),
    ]
    uses: dict[str, set[str]] = {}
    for module, tree in trees:
        for stmt in tree.body:
            owner = f"{module}::{stmt.name}" if isinstance(stmt, _DEFS) else module
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    uses.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    uses.setdefault(node.attr, set()).add(owner)
    return uses


def unreached_symbols(root: Path = ROOT) -> set[str]:
    """Public package symbols nothing but their own definition mentions."""
    uses = _references(root)
    return {
        symbol
        for symbol in _public_definitions(root)
        if not uses.get(symbol.split("::")[1], set()) - {symbol}
    }


def test_every_public_symbol_is_reached():
    unreached = sorted(unreached_symbols() - set(ALLOWLIST))
    assert not unreached, (
        "public symbols in src/repro that no entry point, example or "
        "benchmark references (move a reference model to tests/models/, "
        f"delete a helper): {unreached}"
    )


def test_allowlist_is_not_stale():
    defined = _public_definitions(ROOT)
    gone = sorted(set(ALLOWLIST) - defined)
    assert not gone, f"allowlisted symbols that no longer exist: {gone}"
    reached = sorted(set(ALLOWLIST) - unreached_symbols())
    assert not reached, f"allowlisted symbols that are now referenced: {reached}"


def test_allowlist_gives_a_reason_per_entry():
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_an_unreferenced_helper_is_caught(tmp_path):
    # The scan itself: a planted public function that only its own body
    # and an ``__all__`` / import line mention is flagged; one a
    # benchmark calls, or another function calls, is not.
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return helper\n\n\n"
        "def orphan():\n    return orphan()\n",
        encoding="utf-8",
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench.py").write_text(
        "from repro.mod import orphan, used\n\n__all__ = ['orphan']\nused()\n",
        encoding="utf-8",
    )
    assert unreached_symbols(tmp_path) == {"repro/mod.py::orphan"}
