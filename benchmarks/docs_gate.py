"""Docs gate: docstring coverage, link integrity, change-log length; stdlib-only.

CI's docs-lint step.  Three checks, all deliberately dependency-free (the
toolchain bakes in no pydocstyle/interrogate, and the gate must run
anywhere the test suite runs):

* **Docstring coverage** — every module, public class and public
  function/method in the audited packages (default: ``repro.protocol``
  and ``repro.daemon``, the packages whose API the protocol spec
  documents) must carry a docstring.  Audited via ``ast``, so nothing is
  imported.
* **Markdown link integrity** — every relative link target in the
  audited documents (default: README.md, EXPERIMENTS.md,
  docs/PROTOCOL.md) must exist on disk; anchors and external URLs are
  not checked.
* **Change-log length** — every ``- PR n`` entry of CHANGES.md is one
  line of at most 400 characters: the log says what each PR did, the
  tables live in EXPERIMENTS.md and ``git log``.

Usage::

    PYTHONPATH=src python benchmarks/docs_gate.py
    python benchmarks/docs_gate.py --package src/repro/protocol --doc README.md
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

DEFAULT_PACKAGES = ("src/repro/protocol", "src/repro/daemon")
DEFAULT_DOCS = ("README.md", "EXPERIMENTS.md", "docs/PROTOCOL.md")
CHANGELOG = "CHANGES.md"
MAX_ENTRY_CHARS = 400

#: ``[text](target)`` — good enough for the repo's plain markdown.
_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")


def _public_defs(tree: ast.Module):
    """Yield (node, qualname) for the module's public classes/functions."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield node, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if sub.name.startswith("_"):
                            continue
                        yield sub, f"{node.name}.{sub.name}"


def check_docstrings(package: Path) -> list[str]:
    """Missing-docstring findings for one package directory."""
    findings: list[str] = []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(REPO)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if ast.get_docstring(tree) is None:
            findings.append(f"{rel}: module has no docstring")
        for node, qualname in _public_defs(tree):
            if ast.get_docstring(node) is None:
                findings.append(
                    f"{rel}:{node.lineno}: {qualname} has no docstring"
                )
    return findings


def check_links(doc: Path) -> list[str]:
    """Broken relative-link findings for one markdown document."""
    findings: list[str] = []
    text = doc.read_text(encoding="utf-8")
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (doc.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            findings.append(
                f"{doc.relative_to(REPO)}: broken link -> {target}"
            )
    return findings


def check_changelog(path: Path) -> list[str]:
    """Over-long ``- PR n`` entries of the change log."""
    return [
        f"{path.relative_to(REPO)}:{i}: entry is {len(line)} characters "
        f"(limit {MAX_ENTRY_CHARS}): {line[:60]}..."
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if line.startswith("- PR") and len(line) > MAX_ENTRY_CHARS
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--package", action="append", default=None, metavar="DIR",
        help=f"package dir to audit (default: {', '.join(DEFAULT_PACKAGES)})",
    )
    parser.add_argument(
        "--doc", action="append", default=None, metavar="FILE",
        help=f"markdown file to audit (default: {', '.join(DEFAULT_DOCS)})",
    )
    args = parser.parse_args(argv)
    packages = args.package or DEFAULT_PACKAGES
    docs = args.doc or DEFAULT_DOCS

    findings: list[str] = []
    audited = 0
    for pkg in packages:
        path = (REPO / pkg) if not Path(pkg).is_absolute() else Path(pkg)
        if not path.is_dir():
            findings.append(f"{pkg}: package directory does not exist")
            continue
        audited += len(list(path.rglob("*.py")))
        findings.extend(check_docstrings(path))
    for doc in docs:
        path = (REPO / doc) if not Path(doc).is_absolute() else Path(doc)
        if not path.is_file():
            findings.append(f"{doc}: document does not exist")
            continue
        findings.extend(check_links(path))
    findings.extend(check_changelog(REPO / CHANGELOG))

    if findings:
        print("DOCS GATE FAILED:")
        for finding in findings:
            print(f"  - {finding}")
        return 1
    print(
        f"docs gate passed: {audited} modules fully docstringed, "
        f"{len(docs)} documents link-clean, {CHANGELOG} entries "
        f"<= {MAX_ENTRY_CHARS} characters"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
