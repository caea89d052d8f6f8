"""Tests for the markdown report generator and the table's claim predicates."""

from pathlib import Path

import pytest

from repro.analysis.results import SweepResult
from repro.experiments.figures import FIGURES
from repro.experiments.report import (
    evaluate_claims,
    render_markdown,
    render_status_table,
)
from repro.experiments.runner import SCALES

REPO = Path(__file__).resolve().parents[2]
BEGIN, END = "<!-- figure-status:begin -->", "<!-- figure-status:end -->"


def sweep_with(labels_values, title="t", x=(10.0, 100.0)):
    s = SweepResult(title=title, x_label="cache size (%)", x_values=list(x))
    for label, values in labels_values.items():
        s.add(label, values)
    return s


def fig2_like(hier_first=40.0):
    return sweep_with(
        {
            "sc": [10, 20],
            "fc": [38, 20],
            "nc-ec": [8, 5],
            "sc-ec": [25, 22],
            "fc-ec": [45, 44],
            "hier-gd": [hier_first, 30],
        }
    )


def sensitivity_like(first, last, hier_gd_reversed=True):
    """Figs 3 / 4 panels: series in ascending order of the varied knob."""
    normal = sweep_with({first: [30, 20], "mid": [25, 15], last: [20, 10]})
    flipped = sweep_with({first: [20, 10], "mid": [25, 15], last: [30, 20]})
    panels = {scheme: normal for scheme in ("fc", "sc-ec", "fc-ec")}
    panels["hier-gd"] = flipped if hier_gd_reversed else normal
    return panels


class TestClaimPredicates:
    def test_fig2a_claims_pass_on_paper_shape(self):
        verdicts = evaluate_claims("fig2a", {"fig2a": fig2_like()})
        assert len(verdicts) == 5
        assert all(ok for _, ok in verdicts)

    def test_fig2a_hier_vs_fc_claim_fails_when_violated(self):
        verdicts = dict(
            (claim.text, ok)
            for claim, ok in evaluate_claims("fig2a", {"fig2a": fig2_like(hier_first=5.0)})
        )
        assert verdicts["Hier-GD > FC at the smallest proxy cache"] is False

    def test_fig2a_decay_claim_fails_on_rising_gains(self):
        rising = fig2_like()
        rising.get("fc").values[:] = [20.0, 40.0]
        verdicts = evaluate_claims("fig2a", {"fig2a": rising})
        assert [ok for claim, ok in verdicts if "shrink" in claim.text] == [False]

    def test_fig3_claim(self):
        panels = sensitivity_like("alpha=0.5", "alpha=1")
        by_text = {c.text: (c, ok) for c, ok in evaluate_claims("fig3", panels)}
        for claim, ok in by_text.values():
            # Deviation 1: the paper's Hier-GD direction is computed, and
            # comes out false on the reversed panel.
            assert ok is (claim.deviation is None)
        paper = sensitivity_like("alpha=0.5", "alpha=1", hier_gd_reversed=False)
        assert all(ok for _, ok in evaluate_claims("fig3", paper))

    def test_fig4_claims(self):
        panels = sensitivity_like("stack=5%", "stack=60%")
        # SC-EC: the larger stack wins at the smallest cache only.
        panels["sc-ec"] = sweep_with({"stack=5%": [10, 20], "stack=60%": [15, 12]})
        assert [(ok, c.deviation) for c, ok in evaluate_claims("fig4", panels)] == [
            (True, None), (True, None), (False, "Deviation 1"),
        ]

    def test_fig5a_claim_direction(self):
        good = {"fig5a": sweep_with({"Ts/Tc=2": [5, 5], "Ts/Tc=5": [10, 10],
                                     "Ts/Tc=10": [15, 15]})}
        bad = {"fig5a": sweep_with({"Ts/Tc=2": [15, 15], "Ts/Tc=5": [10, 10],
                                    "Ts/Tc=10": [5, 5]})}
        assert evaluate_claims("fig5a", good)[0][1] is True
        assert evaluate_claims("fig5a", bad)[0][1] is False

    def test_fig5c_small_cache_gap(self):
        sweep = sweep_with({"sc": [5, 5], "fc": [9, 9],
                            "hier-gd (100)": [20, 10], "hier-gd (400)": [40, 12]})
        assert all(ok for _, ok in evaluate_claims("fig5c", {"fig5c": sweep}))
        sweep.get("hier-gd (400)").values[:] = [22.0, 30.0]
        assert [ok for _, ok in evaluate_claims("fig5c", {"fig5c": sweep})] == [
            True, False,
        ]

    def test_sizes_claims(self):
        def panel(gds, gd):
            return sweep_with({"sc": [14, 14], "fc": [58, 58], "nc-ec": [5, 5],
                               "sc-ec": [20, 20], "fc-ec": [62, 62],
                               "hier-gd": gds, "hier-gd (gd)": gd})

        sweeps = {
            "gain": panel([58, 58], [40, 40]),
            "byte_hit": panel([73, 73], [82, 82]),
            "byte_gain": panel([4, 4], [29, 29]),
        }
        assert all(ok for _, ok in evaluate_claims("sizes", sweeps))
        sweeps["byte_hit"] = panel([90, 90], [82, 82])
        assert [ok for _, ok in evaluate_claims("sizes", sweeps)] == [
            True, False, True,
        ]

    def test_unknown_figure_is_an_error(self):
        with pytest.raises(KeyError):
            evaluate_claims("fig99", {})

    def test_every_registered_figure_has_claims(self):
        """Every id in the table carries a stated (possibly empty) claim
        tuple; a deviation is a name, never a silent omission."""
        for name, figure in FIGURES.items():
            assert isinstance(figure.claims, tuple), name
            for claim in figure.claims:
                assert claim.text and callable(claim.check)
        deviations = {
            (name, claim.deviation)
            for name, figure in FIGURES.items()
            for claim in figure.claims
            if claim.deviation
        }
        assert deviations == {
            ("fig3", "Deviation 1"), ("fig4", "Deviation 1"), ("ablations", "Deviation 3"),
        }


class TestRendering:
    def test_markdown_contains_tables_and_verdicts(self):
        doc = render_markdown({"fig2a": {"fig2a": fig2_like()}}, SCALES["smoke"])
        assert "# Experiment report" in doc
        assert "Scale: **smoke**" in doc
        assert "## fig2a" in doc
        assert "cache size (%)" in doc
        assert "✅" in doc

    def test_failed_claim_rendered_as_cross(self):
        doc = render_markdown(
            {"fig2a": {"fig2a": fig2_like(hier_first=5.0)}}, SCALES["smoke"]
        )
        assert "❌" in doc

    def test_deviation_is_computed_and_named(self):
        doc = render_markdown(
            {"fig3": sensitivity_like("alpha=0.5", "alpha=1")}, SCALES["smoke"]
        )
        assert (
            "- ❌ smaller alpha gives larger gains for Hier-GD, at the smallest "
            "proxy cache as over the whole sweep (known deviation: Deviation 1)" in doc
        )

    def test_report_renders_every_figure_of_the_table(self, monkeypatch):
        """No id is skipped (``sizes`` used to be): the report runs the
        table, here with the runs stubbed out."""
        from repro.experiments import report

        ran = []

        def stub(name, **kwargs):
            ran.append(name)
            return {}

        monkeypatch.setattr(report, "run_figure", stub)
        monkeypatch.setattr(report, "evaluate_claims", lambda name, sweeps: [])
        doc = report.generate_report(scale=SCALES["smoke"])
        assert ran == list(FIGURES)
        for name in FIGURES:
            assert f"## {name}" in doc


def test_readme_publishes_the_status_table():
    """README "Reproduction status" is rendered from FIGURES
    (``PYTHONPATH=src python -m tests.experiments.test_report`` prints it)."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    published = readme.split(BEGIN)[1].split(END)[0].strip()
    assert published == render_status_table()


if __name__ == "__main__":
    print(render_status_table())
