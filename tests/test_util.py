"""Tests for repro.util (tables, timing)."""

import time

import pytest

from repro.util.tables import format_cell, render_table
from repro.util.timing import fit_loglog_slope, measure


class TestFormatCell:
    def test_ints(self):
        assert format_cell(42) == "42"
        assert format_cell(1234567) == "1,234,567"

    def test_floats(self):
        assert format_cell(0.0) == "0"
        assert format_cell(3.14159) == "3.142"
        assert format_cell(12.345) == "12.3"
        assert format_cell(1234.5) == "1,234"
        assert format_cell(0.0001) == "1.00e-04"

    def test_bool(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_str(self):
        assert format_cell("abc") == "abc"


class TestRenderTable:
    def test_alignment(self):
        out = render_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_title(self):
        out = render_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_empty_rows(self):
        out = render_table(["a"], [])
        assert "a" in out


class TestMeasure:
    def test_seconds_recorded(self):
        with measure(track_memory=False) as m:
            time.sleep(0.01)
        assert m.seconds >= 0.01

    def test_peak_memory_tracks_allocation(self):
        import numpy as np

        with measure() as m:
            big = np.zeros(4_000_000, dtype=np.uint8)
            del big
        assert m.peak_bytes >= 4_000_000


class TestLogLogFit:
    def test_perfect_inverse_scaling(self):
        xs = [1, 2, 4, 8, 16]
        ys = [16.0 / x for x in xs]
        a, b = fit_loglog_slope(xs, ys)
        assert a == pytest.approx(-1.0)

    def test_flat_line(self):
        a, _ = fit_loglog_slope([1, 2, 4], [5, 5, 5])
        assert a == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1], [1])
        with pytest.raises(ValueError):
            fit_loglog_slope([1, 2], [0, 1])
