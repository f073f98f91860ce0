"""Run metrics and plain-text report rendering for the benchmarks."""

from repro.analysis.metrics import RunMetrics, collect_metrics, mean
from repro.analysis.plot import render_ascii_plot
from repro.analysis.report import render_table, format_count
from repro.analysis.trace import MessageTracer, TraceEvent

__all__ = [
    "RunMetrics",
    "collect_metrics",
    "mean",
    "render_table",
    "render_ascii_plot",
    "format_count",
    "MessageTracer",
    "TraceEvent",
]
