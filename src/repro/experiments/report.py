"""Markdown experiment report generator.

Runs the complete figure suite — every id in
:data:`~repro.experiments.figures.FIGURES` — and renders a self-contained
markdown report: one section per figure with the measured data tables,
the claims the table declares for it, and a ✓/✗ verdict per claim (a
claim that names a documented deviation says so next to its verdict).
``EXPERIMENTS.md`` in this repository is the curated form of this
output; the generator lets anyone re-derive it at any scale::

    python -m repro.experiments.report --scale smoke --out report.md

:func:`render_status_table` renders the same table without running
anything — README's "Reproduction status" (held in sync by
``tests/experiments/test_report.py``).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from ..analysis.results import SweepResult
from ..protocol.trace import recording_traces
from .cli import add_engine_arguments, engine_from_args
from .executor import ExperimentEngine
from .figures import FIGURES, Claim, run_figure
from .runner import Scale, current_scale

__all__ = [
    "evaluate_claims",
    "generate_report",
    "main",
    "render_markdown",
    "render_status_table",
]

#: The harness that asserts every claim without a deviation.
BENCH = "benchmarks/test_bench_figures.py"


def evaluate_claims(name: str, sweeps: dict[str, SweepResult]) -> list[tuple[Claim, bool]]:
    """(claim, verdict) pairs for one figure."""
    return [(c, bool(c.check(sweeps))) for c in FIGURES[name].claims]


def render_markdown(
    all_sweeps: dict[str, dict[str, SweepResult]], scale: Scale | None = None
) -> str:
    """Render figures + claim verdicts as a markdown document."""
    scale = scale or current_scale()
    lines = [
        "# Experiment report",
        "",
        f"Scale: **{scale.label}** ({scale.n_requests} requests, "
        f"{scale.n_objects} objects, {scale.n_clients} clients per cluster).",
        "",
    ]
    for name, sweeps in all_sweeps.items():
        lines.append(f"## {name}")
        lines.append("")
        for sweep in sweeps.values():
            lines.append(f"### {sweep.title}")
            lines.append("")
            lines.append("```")
            lines.append(sweep.to_table())
            lines.append("```")
            lines.append("")
        verdicts = evaluate_claims(name, sweeps)
        if verdicts:
            lines.append("Paper claims:")
            lines.append("")
            for claim, ok in verdicts:
                known = f" (known deviation: {claim.deviation})" if claim.deviation else ""
                lines.append(f"- {'✅' if ok else '❌'} {claim.text}{known}")
            lines.append("")
    return "\n".join(lines)


def render_status_table() -> str:
    """README's per-figure status table: one row per declared claim."""
    rows = [
        f"| figure | claim | status (✅ = asserted by `{BENCH}`) |",
        "|---|---|---|",
    ]
    for name, figure in FIGURES.items():
        for claim in figure.claims:
            status = f"❌ known deviation: {claim.deviation}" if claim.deviation else "✅"
            rows.append(f"| {figure.title} (`{name}`) | {claim.text} | {status} |")
    return "\n".join(rows)


def generate_report(
    seed: int = 0,
    engine: ExperimentEngine | None = None,
    scale: Scale | None = None,
) -> str:
    """Run every figure of the table and render the audit."""
    scale = scale or current_scale()
    return render_markdown(
        {
            name: run_figure(name, scale=scale, seed=seed, engine=engine)
            for name in FIGURES
        },
        scale,
    )


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - thin CLI
    parser = argparse.ArgumentParser(description=__doc__)
    add_engine_arguments(parser)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    engine, record_dir = engine_from_args(args, args.out.parent if args.out else None)
    record_ctx = (
        recording_traces(record_dir) if record_dir is not None else nullcontext()
    )
    with record_ctx:
        report = generate_report(
            seed=args.seed, engine=engine, scale=current_scale(args.scale)
        )
    if args.out:
        args.out.write_text(report, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
