"""Tests for the plain-text table/series rendering."""

from __future__ import annotations

from repro.experiments.reporting import format_number, render_series, render_table


class TestFormatNumber:
    def test_floats_fixed_precision(self):
        assert format_number(1.23456) == "1.235"
        assert format_number(1.2, precision=1) == "1.2"

    def test_non_floats_passthrough(self):
        assert format_number(42) == "42"
        assert format_number("x") == "x"


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["name", "v"], [["a", 1], ["longer", 2]])
        lines = text.splitlines()
        assert len({line.index("  ") for line in lines}) >= 1
        assert lines[0].startswith("name")
        assert "longer" in lines[2]

    def test_title(self):
        text = render_table(["a"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_empty_rows(self):
        text = render_table(["a", "b"], [])
        assert text.splitlines()[-1].startswith("a")

    def test_exact_layout(self):
        assert render_table(["a", "b"], [[1, 2.5]], title="T") == (
            "T\na  b    \n1  2.500"
        )

    def test_columns_pad_to_the_widest_cell(self):
        lines = render_table(["id", "value"], [["abcdef", 1], ["x", 22]]).splitlines()
        assert lines == ["id      value", "abcdef  1    ", "x       22   "]

    def test_precision_forwarded(self):
        text = render_table(["x"], [[0.123456]], precision=2)
        assert "0.12" in text
        assert "0.123" not in text


class TestRenderSeries:
    def test_shared_x_axis(self):
        series = {"A": {1: 0.5, 2: 0.6}, "B": {2: 0.7, 3: 0.8}}
        text = render_series("k", series)
        lines = text.splitlines()
        assert lines[0].split() == ["k", "A", "B"]
        assert len(lines) == 4  # header + x in {1, 2, 3}

    def test_x_values_sorted_and_precision_forwarded(self):
        text = render_series("k", {"A": {3: 0.25, 1: 0.125}}, precision=1)
        assert [line.split() for line in text.splitlines()] == [
            ["k", "A"], ["1", "0.1"], ["3", "0.2"],
        ]

    def test_title_forwarded(self):
        assert render_series("k", {"A": {1: 0.5}}, title="Fig").splitlines()[0] == "Fig"

    def test_missing_points_are_nan(self):
        series = {"A": {1: 0.5}, "B": {2: 0.7}}
        text = render_series("k", series)
        assert "nan" in text
