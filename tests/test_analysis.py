"""Tables, series and statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    Series,
    Table,
    confidence_interval,
    geometric_mean,
    speedup_curve,
    summarize,
)


class TestTable:
    def test_render_alignment(self):
        table = Table(["name", "value"], formats={"value": "{:.2f}"})
        table.add_row(["alpha", 1.5])
        table.add_row(["beta", 22.125])
        text = table.render()
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.50" in text and "22.12" in text
        # All lines equal padded width structure (header, rule, rows).
        assert len(lines) == 4

    def test_title(self):
        table = Table(["x"], title="My Table")
        table.add_row([1])
        assert table.render().startswith("My Table")

    def test_row_arity_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Table(["a", "a"])

    def test_unknown_format_rejected(self):
        with pytest.raises(KeyError):
            Table(["a"], formats={"b": "{}"})

    def test_callable_formats(self):
        table = Table(["v"], formats={"v": lambda value: f"<{value}>"})
        table.add_row([7])
        assert "<7>" in table.render()

    def test_numeric_right_aligned_text_left(self):
        table = Table(["label", "count"])
        table.add_row(["x", 1])
        table.add_row(["longer", 1000])
        lines = table.render().splitlines()
        assert lines[2].startswith("x ")         # text left
        assert lines[2].rstrip().endswith("1")   # number right


class TestSeries:
    def test_add_and_len(self):
        series = Series("s")
        series.add(1, 10)
        series.add(2, 20)
        assert len(series) == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Series("s", x=[1.0], y=[])

    def test_interpolate(self):
        series = Series("s", x=[0.0, 10.0], y=[0.0, 100.0])
        assert series.interpolate(5.0) == pytest.approx(50.0)

    def test_crossing(self):
        series = Series("s", x=[2002.0, 2004.0, 2006.0], y=[1.0, 4.0, 16.0])
        assert series.crossing(2.5) == pytest.approx(2003.0)

    def test_crossing_never_raises_value_error(self):
        series = Series("s", x=[0.0, 1.0], y=[1.0, 2.0])
        with pytest.raises(ValueError, match="never crosses"):
            series.crossing(100.0)


class TestStats:
    def test_summarize_basics(self):
        stats = summarize([10.0, 12.0, 8.0, 11.0, 9.0])
        assert stats.mean == pytest.approx(10.0)
        assert stats.ci_low < 10.0 < stats.ci_high
        assert stats.count == 5

    def test_single_sample_degenerate_interval(self):
        stats = summarize([5.0])
        assert stats.ci_low == stats.ci_high == 5.0

    def test_interval_narrows_with_samples(self):
        rng = np.random.default_rng(0)
        few = summarize(rng.normal(10, 2, size=10))
        many = summarize(rng.normal(10, 2, size=1000))
        assert many.ci_halfwidth < few.ci_halfwidth

    def test_interval_coverage(self):
        """~95 % of intervals from N(0,1) samples should cover 0."""
        rng = np.random.default_rng(42)
        covered = 0
        trials = 300
        for _ in range(trials):
            low, high = confidence_interval(rng.normal(0, 1, size=20))
            covered += low <= 0.0 <= high
        assert covered / trials > 0.9

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_speedup_curve(self):
        speedups = speedup_curve(100.0, [100.0, 50.0, 25.0])
        assert np.allclose(speedups, [1.0, 2.0, 4.0])
        with pytest.raises(ValueError):
            speedup_curve(0.0, [1.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=2,
                    max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_mean_within_interval(self, samples):
        stats = summarize(samples)
        assert stats.ci_low <= stats.mean <= stats.ci_high

