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
``SCHEME_REGISTRY``'s classes is.

The same holds for the public methods and properties of the package's
classes, judged by name alone: a method is reached when its name appears
as an ``Attribute`` or a string constant (``getattr``) anywhere in those
trees outside its own body, or is aliased in its class body
(``owner_of = numerically_closest``).  Any receiver counts, so the rule
needs no types; a bare ``Name`` does not, since a local variable that
shares a method's name says nothing about the method.

The few exemptions are listed in :data:`ALLOWLIST`, each with its
reason, and an entry whose symbol or method is now reached, or gone,
fails the test too.
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
    "repro/cache/tiered.py::TieredCache.tier_of": (
        "inspection: test_hotpath_equivalence.py and test_presence.py read the "
        "fused request path's tier placement through it"
    ),
    "repro/core/metrics.py::SchemeResult.percentile": (
        "extension API (DESIGN.md 'Latency percentiles'): the tail latency of "
        "a result, beyond the paper's mean; test_metrics_extensions.py holds it"
    ),
    "repro/core/presence.py::PresenceIndex.as_dict": (
        "invariant snapshot: test_presence.py and test_hiergd.py compare every "
        "presence index against a brute-force scan through it"
    ),
    "repro/overlay/contract.py::RouteStats.mean_stretch": (
        "measurement: the route stretch of Pastry's locality heuristic, which "
        "test_proximity.py compares with and without proximity"
    ),
    "repro/overlay/id_space.py::IdSpace.digit": (
        "contract method the reference model tests/models/pastry_chain.py drives"
    ),
    "repro/protocol/aio.py::AsyncTransport.attempt_async": (
        "async API: the coroutine form of attempt (draw when awaited) that "
        "test_stack.py's carrier matrix holds equal to attempt and begin"
    ),
    "repro/workload/lru_stack.py::LruStack.pop_at": (
        "the naive ProWGen model in test_prowgen_model.py drives the stack "
        "through it; the generator's loop inlines it"
    ),
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCS, ast.ClassDef)


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


def _public_methods(root: Path) -> set[str]:
    return {
        f"{module}::{cls.name}.{member.name}"
        for module, tree in _modules(root / "src" / "repro", root / "src")
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, _FUNCS) and not member.name.startswith("_")
    }


def _references(root: Path) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """``(symbol uses, method uses)``: referenced name -> owners of its uses.

    A symbol use is a ``Name`` / ``Attribute`` and its owner the
    ``module::top-level definition``; a method use also counts string
    constants, and its owner is ``module::Class.method`` inside a method.
    """
    trees = [
        *_modules(root / "src" / "repro", root / "src"),
        *_modules(root / "examples", root),
        *_modules(root / "benchmarks", root),
    ]
    symbol_uses: dict[str, set[str]] = {}
    method_uses: dict[str, set[str]] = {}

    def scan(node: ast.AST, owner: str, method_owner: str) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                symbol_uses.setdefault(sub.id, set()).add(owner)
            elif isinstance(sub, ast.Attribute):
                symbol_uses.setdefault(sub.attr, set()).add(owner)
                method_uses.setdefault(sub.attr, set()).add(method_owner)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                method_uses.setdefault(sub.value, set()).add(method_owner)

    for module, tree in trees:
        for stmt in tree.body:
            owner = f"{module}::{stmt.name}" if isinstance(stmt, _DEFS) else module
            if not isinstance(stmt, ast.ClassDef):
                scan(stmt, owner, owner)
                continue
            for node in (*stmt.bases, *stmt.keywords, *stmt.decorator_list):
                scan(node, owner, owner)
            for member in stmt.body:
                if isinstance(member, ast.Assign) and isinstance(member.value, ast.Name):
                    method_uses.setdefault(member.value.id, set()).add(owner)
                inner = f"{owner}.{member.name}" if isinstance(member, _FUNCS) else owner
                scan(member, owner, inner)
    return symbol_uses, method_uses


def unreached_symbols(root: Path = ROOT) -> set[str]:
    """Public package symbols nothing but their own definition mentions."""
    uses, _ = _references(root)
    return {
        symbol
        for symbol in _public_definitions(root)
        if not uses.get(symbol.split("::")[1], set()) - {symbol}
    }


def unreached_methods(root: Path = ROOT) -> set[str]:
    """Public methods whose name nothing but their own body mentions."""
    _, uses = _references(root)
    return {
        method
        for method in _public_methods(root)
        if not uses.get(method.rsplit(".", 1)[1], set()) - {method}
    }


def test_every_public_symbol_is_reached():
    unreached = sorted(unreached_symbols() - set(ALLOWLIST))
    assert not unreached, (
        "public symbols in src/repro that no entry point, example or "
        "benchmark references (move a reference model to tests/models/, "
        f"delete a helper): {unreached}"
    )


def test_every_public_method_is_reached():
    unreached = sorted(unreached_methods() - set(ALLOWLIST))
    assert not unreached, (
        "public methods of src/repro classes whose name no entry point, "
        "example or benchmark mentions (delete the method, or move what "
        f"only tests need into the tests): {unreached}"
    )


def test_allowlist_is_not_stale():
    defined = _public_definitions(ROOT) | _public_methods(ROOT)
    gone = sorted(set(ALLOWLIST) - defined)
    assert not gone, f"allowlisted symbols that no longer exist: {gone}"
    reached = sorted(set(ALLOWLIST) - unreached_symbols() - unreached_methods())
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


def test_an_unreferenced_method_is_caught(tmp_path):
    # A method only its own body names is flagged, and so is one whose
    # name only a local variable shares; one another method calls, one a
    # string constant names (``getattr``), one a class-body alias names
    # and a private one are not, whatever the receiver.
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class Thing:\n"
        "    def used(self):\n        shadowed = self.helper()\n"
        "        return self.alias() + shadowed\n\n"
        "    def helper(self):\n        return getattr(self, 'named')\n\n"
        "    def named(self):\n        return 1\n\n"
        "    def aliased(self):\n        return 1\n\n"
        "    alias = aliased\n\n"
        "    def shadowed(self):\n        return 1\n\n"
        "    def orphan(self):\n        return self.orphan()\n\n"
        "    def _private(self):\n        return 2\n",
        encoding="utf-8",
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench.py").write_text(
        "from repro.mod import Thing\n\nThing().used()\n", encoding="utf-8"
    )
    assert unreached_methods(tmp_path) == {
        "repro/mod.py::Thing.orphan",
        "repro/mod.py::Thing.shadowed",
    }
    assert unreached_symbols(tmp_path) == set()
