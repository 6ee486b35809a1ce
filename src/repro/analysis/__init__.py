"""Analysis layer: metrics, figure/table drivers, report formatting.

``figures`` contains one driver per evaluation artefact of the paper
(Figure 2, 4–12, Table III, Table IV) — the benchmarks call these and
print the same rows/series the paper reports.
"""

from repro.analysis.metrics import (
    RunMetrics,
    improvement,
    speedup,
    summarize_run,
)
from repro.analysis.bandwidth import achieved_bandwidth, bandwidth_series
from repro.analysis.faults import (
    FaultRunMetrics,
    recovery_latencies,
    summarize_fault_run,
)
from repro.analysis.charts import render_chart
from repro.analysis.critical_path import (
    RequestPath,
    critical_paths,
    format_critical_path_table,
    unclosed_requests,
)
from repro.analysis.timeline import (
    RequestRecord,
    records_from_plan_result,
    records_from_scheme_result,
    render_gantt,
)
from repro.analysis.report import format_table, render_series
from repro.analysis.figures import (
    figure_series,
    bandwidth_figure,
    headline_improvements,
    table3_rows,
    table4_rows,
)

__all__ = [
    "FaultRunMetrics",
    "RequestPath",
    "RequestRecord",
    "RunMetrics",
    "achieved_bandwidth",
    "critical_paths",
    "bandwidth_figure",
    "bandwidth_series",
    "figure_series",
    "format_critical_path_table",
    "format_table",
    "headline_improvements",
    "improvement",
    "records_from_plan_result",
    "records_from_scheme_result",
    "recovery_latencies",
    "render_chart",
    "render_gantt",
    "render_series",
    "speedup",
    "summarize_fault_run",
    "summarize_run",
    "table3_rows",
    "table4_rows",
    "unclosed_requests",
]
