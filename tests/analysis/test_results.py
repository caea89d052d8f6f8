"""Tests for sweep containers, tables and CSV round-trips."""

import pytest

from repro.analysis.results import Series, SweepResult


def mk_sweep():
    s = SweepResult(
        title="demo",
        x_label="cache size (%)",
        x_values=[10, 50, 100],
    )
    s.add("fc", [5.0, 10.0, 7.5])
    s.add("hier-gd", [8.0, 12.0, 9.0])
    return s


class TestSweepResult:
    def test_add_and_get(self):
        s = mk_sweep()
        assert s.labels == ["fc", "hier-gd"]
        assert s.get("fc").values == [5.0, 10.0, 7.5]
        with pytest.raises(KeyError):
            s.get("nope")

    def test_length_mismatch_rejected(self):
        s = mk_sweep()
        with pytest.raises(ValueError):
            s.add("bad", [1.0])

    def test_series_coerces_floats(self):
        assert Series("x", [1, 2]).values == [1.0, 2.0]

    def test_table_contains_all_points(self):
        s = mk_sweep()
        s.notes = "hello note"
        table = s.to_table()
        assert "demo" in table
        assert "fc" in table and "hier-gd" in table
        assert "10.0" in table and "12.0" in table
        assert "hello note" in table

    def test_save_csv_writes_the_csv(self, tmp_path):
        s = mk_sweep()
        path = tmp_path / "sweep.csv"
        s.save_csv(path)
        assert path.read_text(encoding="ascii") == s.to_csv()

    def test_csv_header(self):
        csv = mk_sweep().to_csv()
        assert csv.splitlines()[0] == "cache size (%),fc,hier-gd"
        assert csv.endswith("\n")
