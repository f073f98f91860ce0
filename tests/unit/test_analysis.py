"""Unit tests for metrics aggregation and report rendering."""

import pytest

from repro.analysis.metrics import RunMetrics, mean
from repro.analysis.report import format_count, render_table


class TestMean:
    def test_averages_numeric_fields(self):
        a = RunMetrics(name="x", elapsed_cycles=100, messages_sent=10,
                       buffered_fraction=0.2, max_buffer_pages=3)
        b = RunMetrics(name="x", elapsed_cycles=300, messages_sent=20,
                       buffered_fraction=0.4, max_buffer_pages=5)
        avg = mean([a, b])
        assert avg.elapsed_cycles == 200
        assert avg.messages_sent == 15
        assert avg.buffered_fraction == pytest.approx(0.3)

    def test_max_pages_takes_maximum(self):
        a = RunMetrics(max_buffer_pages=2)
        b = RunMetrics(max_buffer_pages=6)
        assert mean([a, b]).max_buffer_pages == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])

    def test_single_run_identity(self):
        a = RunMetrics(name="solo", elapsed_cycles=42, t_betw=3.5)
        avg = mean([a])
        assert avg.elapsed_cycles == 42
        assert avg.t_betw == 3.5


class TestReport:
    def test_render_table_aligns_columns(self):
        out = render_table("Title", ["col", "n"],
                           [["a", 1], ["long-name", 20000]])
        lines = out.splitlines()
        assert lines[0] == "Title"
        assert "long-name" in out
        assert "20,000" in out

    def test_format_count_variants(self):
        assert format_count(0.0) == "0"
        assert format_count(0.123) == "0.123"
        assert format_count(42.0) == "42.0"
        assert format_count(12345.0) == "12,345"
        assert format_count(7) == "7"
        assert format_count("text") == "text"


class TestRelativeRuntime:
    """SkewSweepResult.relative_runtime baseline selection."""

    @staticmethod
    def _sweep(skews, cycles):
        from repro.experiments.multiprog import SkewSweepResult

        return SkewSweepResult(
            name="x", skews=list(skews),
            metrics=[RunMetrics(elapsed_cycles=c) for c in cycles],
        )

    def test_normalizes_to_zero_skew_point(self):
        sweep = self._sweep([0.05, 0.0, 0.2], [150, 100, 300])
        assert sweep.relative_runtime == [1.5, 1.0, 3.0]

    def test_no_zero_skew_falls_back_to_first_point(self):
        sweep = self._sweep([0.01, 0.05], [200, 500])
        assert sweep.relative_runtime == [1.0, 2.5]

    def test_zero_baseline_yields_all_ones(self):
        sweep = self._sweep([0.0, 0.1], [0, 400])
        assert sweep.relative_runtime == [1.0, 1.0]

    def test_empty_sweep_yields_empty(self):
        sweep = self._sweep([], [])
        assert sweep.relative_runtime == []
