"""Experiment result containers: series, sweeps, tables.

A paper figure is a set of *series* (one per scheme or per parameter
value) over a common x-axis (usually proxy cache size as % of the
infinite cache size).  :class:`SweepResult` holds that structure plus
enough metadata to regenerate it, and renders itself as aligned text
tables (the benchmark harness prints the same rows the paper plots) and
CSV for external plotting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

__all__ = ["Series", "SweepResult"]


@dataclass
class Series:
    """One labelled curve: y-values aligned with the sweep's x-axis."""

    label: str
    values: list[float]

    def __post_init__(self) -> None:
        self.values = [float(v) for v in self.values]


@dataclass
class SweepResult:
    """A figure's worth of data: x-axis + named series + metadata."""

    title: str
    x_label: str
    x_values: list[float]
    y_label: str = "latency gain (%)"
    series: list[Series] = field(default_factory=list)
    notes: str = ""

    def add(self, label: str, values: Iterable[float]) -> None:
        values = list(values)
        if len(values) != len(self.x_values):
            raise ValueError(
                f"series {label!r} has {len(values)} points, x-axis has "
                f"{len(self.x_values)}"
            )
        self.series.append(Series(label, values))

    def get(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)

    # -- rendering ------------------------------------------------------------

    def to_table(self, width: int = 9, precision: int = 1) -> str:
        """Aligned text table: one row per x value, one column per series."""
        head = f"{self.x_label:>{width}} " + " ".join(
            f"{s.label:>{width}}" for s in self.series
        )
        lines = [self.title, "=" * len(head), head, "-" * len(head)]
        for i, x in enumerate(self.x_values):
            row = f"{x:>{width}g} " + " ".join(
                f"{s.values[i]:>{width}.{precision}f}" for s in self.series
            )
            lines.append(row)
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        header = ",".join([self.x_label] + [s.label for s in self.series])
        rows = [header]
        for i, x in enumerate(self.x_values):
            rows.append(
                ",".join([f"{x:g}"] + [f"{s.values[i]:.6g}" for s in self.series])
            )
        return "\n".join(rows) + "\n"

    def save_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv(), encoding="ascii")
