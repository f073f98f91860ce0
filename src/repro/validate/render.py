"""Render artifact doc payloads into tables and plots.

Every artifact's fold returns a JSON-safe ``doc`` payload
(:class:`~repro.validate.artifacts.ArtifactRun`); this module turns a
payload into ``(title, headers, rows)`` triples with **pre-formatted
string cells**, so the text report, the Markdown/CSV bundle and the
generated EXPERIMENTS.md all show exactly the same characters. A few
artifacts also get an ASCII plot (:func:`repro.analysis.render_ascii_plot`).

Everything here is pure: payload in, strings out — byte-stable by
construction, which is what lets a test assert the committed
EXPERIMENTS.md is identical to a regeneration.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.plot import render_ascii_plot
from repro.analysis.report import format_count, render_table
from repro.validate.artifacts import APP_ORDER

#: (title, headers, rows-of-strings)
Table = Tuple[str, List[str], List[List[str]]]


def _f(value: Any, digits: int = 2) -> str:
    return f"{float(value):.{digits}f}"


def _pct(skew: float) -> str:
    return f"{skew * 100:g}%"


def artifact_tables(artifact_id: str, doc: Dict[str, Any]) -> List[Table]:
    """All tables of one artifact, from its doc payload."""
    return _TABLE_BUILDERS[artifact_id](doc)


def artifact_plot(artifact_id: str,
                  doc: Dict[str, Any]) -> Optional[str]:
    """The artifact's ASCII plot, for the figure artifacts."""
    builder = _PLOT_BUILDERS.get(artifact_id)
    return builder(doc) if builder else None


def render_artifact_text(artifact_id: str, doc: Dict[str, Any]) -> str:
    """Plain-text rendering: every table, then the plot if any."""
    parts = [render_table(title, headers, rows)
             for title, headers, rows in artifact_tables(artifact_id, doc)]
    plot = artifact_plot(artifact_id, doc)
    if plot:
        parts.append(plot)
    return "\n\n".join(parts)


# ----------------------------------------------------------------------
# Per-artifact table builders
# ----------------------------------------------------------------------
def _tables_table4(doc: Dict[str, Any]) -> List[Table]:
    rows = [
        [m["mode"], format_count(m["send"]),
         format_count(m["recv_paper"]), _f(m["recv_measured"], 1),
         format_count(m["poll"]), _f(m["leg_measured"], 1),
         _f(m["leg_analytic"], 1)]
        for m in doc["modes"]
    ]
    main = ("Table 4: null-message fast-path costs (cycles)",
            ["mode", "send", "recv int (paper)", "recv int (measured)",
             "recv poll", "leg (measured)", "leg (analytic)"],
            rows)
    ratio = ("Protection overhead",
             ["quantity", "paper", "measured"],
             [["hard / kernel receive", "1.6x", f"{doc['ratio']:.2f}x"]])
    return [main, ratio]


def _tables_table5(doc: Dict[str, Any]) -> List[Table]:
    rows = [
        ["buffer insert (minimum)", "180", _f(doc["insert_min"], 1)],
        ["buffer insert (with vmalloc)", "3,162",
         _f(doc["insert_vmalloc"], 1)],
        ["buffer extract (null handler)", "52", _f(doc["extract"], 1)],
        ["per buffered null message", "232", _f(doc["per_message"], 1)],
        ["buffered / fast-path ratio", "2.7x",
         f"{doc['buffered_ratio']:.2f}x"],
    ]
    return [("Table 5: software-buffer overheads (cycles)",
             ["quantity", "paper", "measured"], rows)]


def _tables_table6(doc: Dict[str, Any]) -> List[Table]:
    rows = []
    for app in doc["apps"]:
        rows.append([
            app["name"], app["model"],
            format_count(int(app["cycles"])),
            format_count(int(app["paper_cycles"])),
            format_count(int(app["messages"])),
            format_count(int(app["paper_messages"])),
            format_count(int(app["t_betw"])),
            format_count(int(app["paper_t_betw"])),
            format_count(int(app["t_hand"])),
            format_count(int(app["paper_t_hand"])),
        ])
    return [("Table 6: standalone application characteristics (8 nodes; "
             "measured at bench scale, paper at full scale)",
             ["app", "model", "cycles", "paper", "msgs", "paper",
              "T_betw", "paper", "T_hand", "paper"],
             rows)]


def _series_table(title: str, x_header: str, xs: Sequence[Any],
                  labels: Sequence[str],
                  series: Dict[str, Sequence[float]],
                  x_fmt, digits: int = 2) -> Table:
    rows = []
    for i, x in enumerate(xs):
        rows.append([x_fmt(x)]
                    + [_f(series[label][i], digits) for label in labels])
    return (title, [x_header] + list(labels), rows)


def _tables_fig7(doc: Dict[str, Any]) -> List[Table]:
    skews = doc["skews"]
    buffered = _series_table(
        "Figure 7: % messages buffered vs schedule skew",
        "skew", skews, list(APP_ORDER), doc["buffered"], _pct)
    pages_rows = [
        [name, format_count(max(int(v) for v in doc["pages"][name]))]
        for name in APP_ORDER
    ]
    pages = ("Peak physical buffer pages per node (paper bound: <7)",
             ["app", "max pages"], pages_rows)
    return [buffered, pages]


def _tables_fig8(doc: Dict[str, Any]) -> List[Table]:
    return [_series_table(
        "Figure 8: runtime relative to zero-skew vs schedule skew",
        "skew", doc["skews"], list(APP_ORDER), doc["relative"], _pct,
        digits=3)]


def _synth_labels(series: Dict[str, Sequence[float]]) -> List[str]:
    return [f"synth-{g}" for g in ("10", "100", "1000") if g in series]


def _tables_fig9(doc: Dict[str, Any]) -> List[Table]:
    series = {f"synth-{g}": values
              for g, values in doc["buffered"].items()}
    return [_series_table(
        "Figure 9: % messages buffered vs send interval (1% skew)",
        "T_betw", doc["xs"], _synth_labels(doc["buffered"]), series,
        format_count)]


def _tables_fig10(doc: Dict[str, Any]) -> List[Table]:
    series = {f"synth-{g}": values
              for g, values in doc["buffered"].items()}
    return [_series_table(
        "Figure 10: % messages buffered vs buffered-path cost "
        "(T_betw=275)",
        "cost", doc["costs"], _synth_labels(doc["buffered"]), series,
        format_count)]


def _tables_ablations(doc: Dict[str, Any]) -> List[Table]:
    tables: List[Table] = []
    two = doc["two_case"]
    tables.append((
        "Ablation: two-case delivery vs always-buffered "
        f"(slowdown {two['slowdown']:.2f}x)",
        ["variant", "runtime (cycles)", "% buffered", "fast msgs",
         "buffered msgs"],
        [[r["label"], format_count(int(r["runtime"])),
          _f(r["buffered_pct"], 1), format_count(int(r["fast"])),
          format_count(int(r["buffered"]))]
         for r in two["rows"]],
    ))
    tables.append((
        "Ablation: atomicity-timeout preset",
        ["preset", "runtime (cycles)", "% buffered", "revocations"],
        [[r["label"], format_count(int(r["runtime"])),
          _f(r["buffered_pct"], 2), format_count(int(r["revocations"]))]
         for r in doc["timeout"]["rows"]],
    ))
    tables.append((
        "Ablation: NI input-queue depth",
        ["queue", "runtime (cycles)", "max net backlog",
         "sender blocks"],
        [[r["label"], format_count(int(r["runtime"])),
          format_count(int(r["backlog"])),
          format_count(int(r["sender_blocks"]))]
         for r in doc["queue"]["rows"]],
    ))
    tables.append((
        "Ablation: delivery architectures (Figure 1)",
        ["architecture", "runtime (cycles)", "mean msg latency",
         "pinned pages", "% buffered"],
        [[r["label"], format_count(int(r["runtime"])),
          _f(r["latency"], 1), format_count(int(r["pages"])),
          _f(r["buffered_pct"], 1)]
         for r in doc["architecture"]["rows"]],
    ))
    bulk = doc["bulk"]
    tables.append((
        "Ablation: fragmented vs bulk (DMA) transfer "
        f"({bulk['msg_ratio']:.1f}x fewer messages, "
        f"{bulk['speedup']:.1f}x faster)",
        ["variant", "runtime (cycles)", "messages", "fragments",
         "bulk transfers"],
        [[r["label"], format_count(int(r["runtime"])),
          format_count(int(r["messages"])),
          format_count(int(r["fragments"])),
          format_count(int(r["bulk_transfers"]))]
         for r in bulk["rows"]],
    ))
    return tables


def _tables_delivery(doc: Dict[str, Any]) -> List[Table]:
    return [(
        "Delivery disciplines head-to-head "
        f"(zerocopy {doc['zerocopy_rel_runtime']:.2f}x, "
        f"damq {doc['damq_rel_runtime']:.2f}x vs two-case)",
        ["discipline", "runtime (cycles)", "% buffered", "pinned pages",
         "queue peak", "fault traps", "evictions"],
        [[r["label"], format_count(int(r["runtime"])),
          _f(r["buffered_pct"], 1), format_count(int(r["pinned_pages"])),
          format_count(int(r["queue_peak"])),
          format_count(int(r["fault_traps"])),
          format_count(int(r["evictions"]))]
         for r in doc["rows"]],
    )]


def _tables_mailbox(doc: Dict[str, Any]) -> List[Table]:
    curves = doc["curves"]
    scaling_rows = []
    for i, clients in enumerate(doc["clients"]):
        scaling_rows.append([
            format_count(int(clients)),
            format_count(int(curves["elapsed_cycles"][i])),
            _f(curves["buffered_fraction"][i] * 100, 1),
            format_count(int(curves["mailbox_active_flows_peak"][i])),
            format_count(int(curves["mailbox_occupancy_peak"][i])),
            format_count(int(curves["mailbox_overflow_drops"][i])),
            format_count(int(curves["mailbox_dup_suppressed"][i])),
            _f(curves["retrieval_latency_mean"][i], 0),
            format_count(int(curves["max_buffer_pages"][i])),
        ])
    scaling = ("Mailbox scaling vs logical client population "
               "(flow-table cap: 512)",
               ["clients", "runtime (cycles)", "% buffered",
                "flows peak", "occupancy peak", "overflow drops",
                "dups suppressed", "retrieval latency", "buffer pages"],
               scaling_rows)
    h2h_rows = []
    for kind, row in doc["head_to_head"].items():
        h2h_rows.append([
            kind,
            format_count(int(row["elapsed_cycles"])),
            _f(row["buffered_fraction"] * 100, 1),
            _f(row["retrieval_latency_mean"], 0),
            format_count(int(row["mailbox_occupancy_peak"])),
            format_count(int(row["pinned_pages_peak"])),
            format_count(int(row["damq_evictions"])),
        ])
    h2h = ("Delivery disciplines on the 100k-client mailbox workload",
           ["discipline", "runtime (cycles)", "% buffered",
            "retrieval latency", "occupancy peak", "pinned pages",
            "evictions"],
           h2h_rows)
    return [scaling, h2h]


# ----------------------------------------------------------------------
# Per-artifact plots
# ----------------------------------------------------------------------
def _plot_fig7(doc: Dict[str, Any]) -> str:
    return render_ascii_plot(
        [_pct(s) for s in doc["skews"]],
        [(name, doc["buffered"][name]) for name in APP_ORDER],
        x_label="schedule skew", y_label="% buffered")


def _plot_fig8(doc: Dict[str, Any]) -> str:
    return render_ascii_plot(
        [_pct(s) for s in doc["skews"]],
        [(name, doc["relative"][name]) for name in APP_ORDER],
        x_label="schedule skew", y_label="relative runtime")


def _plot_synth(doc: Dict[str, Any], xs_key: str, x_label: str) -> str:
    return render_ascii_plot(
        doc[xs_key],
        [(f"synth-{g}", doc["buffered"][g])
         for g in ("10", "100", "1000") if g in doc["buffered"]],
        x_label=x_label, y_label="% buffered")


_TABLE_BUILDERS = {
    "table4": _tables_table4,
    "table5": _tables_table5,
    "table6": _tables_table6,
    "fig7": _tables_fig7,
    "fig8": _tables_fig8,
    "fig9": _tables_fig9,
    "fig10": _tables_fig10,
    "ablations": _tables_ablations,
    "delivery_headtohead": _tables_delivery,
    "mailbox_scaling": _tables_mailbox,
}

_PLOT_BUILDERS = {
    "fig7": _plot_fig7,
    "fig8": _plot_fig8,
    "fig9": lambda doc: _plot_synth(doc, "xs", "T_betw (cycles)"),
    "fig10": lambda doc: _plot_synth(doc, "costs",
                                     "buffered-path cost (cycles)"),
}


def markdown_table(headers: Sequence[str],
                   rows: Sequence[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


__all__ = [
    "Table", "artifact_plot", "artifact_tables", "markdown_table",
    "render_artifact_text",
]
