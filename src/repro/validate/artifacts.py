"""Every paper artifact as a machine-checkable :class:`ArtifactSpec`.

One spec per evaluation artifact (Tables 4–6, Figures 7–10, the
design-choice ablations). A spec names:

* its **runs** — the plan: every :class:`~repro.runner.RunSpec` the
  artifact measures. The builder's keyword parameters are the plan
  flags of the artifact's CLI command, and their defaults are the
  report's plan. ``repro report`` runs the planned runs of all selected
  artifacts in one :func:`~repro.runner.run_specs` batch before any
  artifact is folded (see :class:`ReportContext`);
* a **fold** — a pure function of the :class:`~repro.runner.RunResult`
  of each planned run, in plan order, that computes the artifact's
  measurements with the experiment modules' own folds;
* the **quantities** the artifact must reproduce, each with its
  tolerance band (see :mod:`repro.validate.quantity`);
* the **doc payload** — everything EXPERIMENTS.md and the report
  bundle need to re-render the artifact's tables without re-running.

The benchmark suite (``benchmarks/test_*.py``), ``repro report`` and
the artifact commands (``repro table4`` ...) all consume this
registry, so "what the paper claims" lives in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.multiprog import DEFAULT_SKEWS
from repro.runner import (
    RunResult, RunSpec, bind_spec, require_all, run_specs,
)
from repro.validate.quantity import Quantity

#: Table 6 / Figure 7–8 application order (communication-most first in
#: the paper's T_betw column).
APP_ORDER = ("barnes", "water", "lu", "barrier", "enum")
#: The T_betw communication-intensity ordering Table 6 must reproduce.
T_BETW_ORDER = ["barrier", "enum", "barnes", "water", "lu"]


@dataclass
class ArtifactRun:
    """One regeneration of an artifact: checked values + doc payload."""

    artifact: str
    #: quantity name -> measured value (scalar, bool or label list).
    values: Dict[str, Any]
    #: JSON-safe payload the doc/table renderers consume.
    doc: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ArtifactSpec:
    """One paper artifact: identity, provenance and its quantities."""

    id: str
    title: str
    #: The benchmark file measuring the same artifact.
    source: str
    #: The ``repro`` command rendering the artifact standalone.
    command: str
    quantities: Tuple[Quantity, ...]
    #: Builds the plan: the list of every run the artifact measures.
    #: Its keyword parameters are the command's plan flags; called with
    #: none, it builds the report's plan.
    runs: Callable[..., List[RunSpec]]
    #: Computes the artifact from the results of ``runs()``, in order.
    fold: Callable[[Sequence[RunResult]], ArtifactRun]

    def quantity(self, name: str) -> Quantity:
        for q in self.quantities:
            if q.name == name:
                return q
        raise KeyError(name)

    def schema_hash(self) -> str:
        """Stable hash of the quantity schema.

        Covers everything a comparison depends on (names, kinds,
        tolerances, paper reference values) so a golden file stamped
        for a different schema is detectably stale.
        """
        parts = [self.id]
        for q in self.quantities:
            parts.append(
                f"{q.name}|{q.kind}|{q.tolerance!r}|{q.paper!r}|{q.unit}"
            )
        digest = sha256("\n".join(parts).encode("utf-8")).hexdigest()
        return digest[:12]


class ReportContext:
    """One report run's planned batch.

    A report plans before it runs. :meth:`prefetch` collects the
    planned runs of every selected artifact, drops duplicates and makes
    **one** :func:`~repro.runner.run_specs` call against the persistent
    cache, so the misses of all artifacts together face the runner's
    parallel rule. :meth:`produce` then folds each artifact from the
    in-memory results of its own plan (Figures 7 and 8 fold the same
    multiprogrammed sweep).
    """

    def __init__(self, jobs: Optional[int] = None, cache=None) -> None:
        self.jobs = jobs
        self.cache = cache
        self._results: Dict[RunSpec, RunResult] = {}

    def prefetch(self, ids: Sequence[str]) -> Dict[str, Any]:
        """Run the planned runs of ``ids`` not yet fetched, in one batch.

        Returns ``run_specs``' ``info`` record plus ``declared`` (runs
        planned across the artifacts, duplicates included) and
        ``planned`` (the distinct runs submitted).
        """
        wanted = set(ids)
        declared = [spec for aid in ARTIFACT_IDS if aid in wanted
                    for spec in ARTIFACTS[aid].runs()]
        specs = [spec for spec in dict.fromkeys(declared)
                 if spec not in self._results]
        info: Dict[str, Any] = {"declared": len(declared),
                                "planned": len(specs)}
        results = run_specs(specs, jobs=self.jobs, cache=self.cache,
                            info=info)
        self._results.update(zip(specs, results))
        return info

    def produce(self, artifact_id: str) -> ArtifactRun:
        """Fold one artifact, fetching its plan first if need be.

        A failed planned run raises its :class:`~repro.runner.RunnerError`.
        """
        spec = ARTIFACTS[artifact_id]
        plan = spec.runs()
        if not self._results.keys() >= set(plan):
            self.prefetch([artifact_id])
        results = [self._results[run] for run in plan]
        require_all(results)
        return spec.fold(results)


# ----------------------------------------------------------------------
# Table 4 — fast-path costs
# ----------------------------------------------------------------------
def _fold_table4(runs: Sequence[RunResult]) -> ArtifactRun:
    from repro.experiments.micro import table4_fold

    results = table4_fold(runs)
    by_mode = {r.mode.value: r for r in results}
    kernel = by_mode["kernel"]
    hard = by_mode["hard"]
    values = {
        "send_total": kernel.model.fast.send_total,
        "recv_poll": kernel.model.fast.receive_polling_total,
        "protection_ratio": (hard.measured_receive_interrupt
                             / kernel.measured_receive_interrupt),
    }
    modes_doc = []
    for r in results:
        values[f"recv_interrupt_{r.mode.value}"] = \
            r.measured_receive_interrupt
        values[f"leg_{r.mode.value}"] = r.measured_leg_interrupt
        modes_doc.append({
            "mode": r.mode.value,
            "send": r.model.fast.send_total,
            "recv_paper": r.model.fast.receive_interrupt_total,
            "recv_measured": r.measured_receive_interrupt,
            "poll": r.model.fast.receive_polling_total,
            "leg_measured": r.measured_leg_interrupt,
            "leg_analytic": r.expected_leg_interrupt,
        })
    doc = {"modes": modes_doc, "ratio": values["protection_ratio"]}
    return ArtifactRun(artifact="table4", values=values, doc=doc)


def _table4_runs(rounds: int = 300) -> List[RunSpec]:
    from repro.experiments.micro import table4_specs

    return table4_specs(rounds=rounds)


_TABLE4 = ArtifactSpec(
    id="table4",
    title="Table 4: null-message fast-path costs (cycles)",
    source="benchmarks/test_table4_fast_path.py",
    command="table4",
    quantities=(
        Quantity("send_total", "exact", paper=7, unit="cycles"),
        Quantity("recv_interrupt_kernel", "exact", paper=54,
                 unit="cycles"),
        Quantity("recv_interrupt_hard", "exact", paper=87,
                 unit="cycles"),
        Quantity("recv_interrupt_soft", "exact", paper=115,
                 unit="cycles"),
        Quantity("recv_poll", "exact", paper=9, unit="cycles"),
        Quantity("protection_ratio", "relative", paper=1.6,
                 tolerance=0.05,
                 note="'60% more' headline: hard / kernel receive"),
        Quantity("leg_kernel", "exact", unit="cycles",
                 note="one-way ping-pong leg, 15-cycle wire"),
        Quantity("leg_hard", "exact", unit="cycles"),
        Quantity("leg_soft", "exact", unit="cycles"),
    ),
    runs=_table4_runs,
    fold=_fold_table4,
)


# ----------------------------------------------------------------------
# Table 5 — buffered-path costs
# ----------------------------------------------------------------------
def _fold_table5(runs: Sequence[RunResult]) -> ArtifactRun:
    from repro.experiments.micro import table5_fold

    result = table5_fold(runs)
    values = {
        "insert_min": result.measured_insert_min,
        "insert_vmalloc": result.measured_insert_vmalloc,
        "extract": result.measured_extract,
        "per_message": result.measured_per_message,
        "buffered_ratio": result.measured_per_message / 87.0,
    }
    doc = dict(values)
    doc["messages"] = result.messages
    return ArtifactRun(artifact="table5", values=values, doc=doc)


def _table5_runs(rounds: int = 400) -> List[RunSpec]:
    return [bind_spec("buffered_path", count=rounds)]


_TABLE5 = ArtifactSpec(
    id="table5",
    title="Table 5: software-buffer overheads (cycles)",
    source="benchmarks/test_table5_buffered_path.py",
    command="table5",
    quantities=(
        Quantity("insert_min", "exact", paper=180, unit="cycles"),
        Quantity("insert_vmalloc", "exact", paper=3162, unit="cycles"),
        Quantity("extract", "exact", paper=52, unit="cycles"),
        Quantity("per_message", "exact", paper=232, unit="cycles"),
        Quantity("buffered_ratio", "relative", paper=2.7,
                 tolerance=0.05,
                 note="buffered path / 87-cycle fast path"),
    ),
    runs=_table5_runs,
    fold=_fold_table5,
)


# ----------------------------------------------------------------------
# Table 6 — application characteristics
# ----------------------------------------------------------------------
def _fold_table6(runs: Sequence[RunResult]) -> ArtifactRun:
    from repro.experiments.standalone import table6_fold

    rows = table6_fold(runs)
    values: Dict[str, Any] = {}
    apps_doc = []
    for row in rows:
        m = row.metrics
        values[f"cycles_{row.name}"] = m.elapsed_cycles
        values[f"messages_{row.name}"] = m.messages_sent
        values[f"t_betw_{row.name}"] = m.t_betw
        values[f"t_hand_{row.name}"] = m.t_hand
        apps_doc.append({
            "name": row.name, "model": row.model,
            "cycles": m.elapsed_cycles, "messages": m.messages_sent,
            "t_betw": m.t_betw, "t_hand": m.t_hand,
            "paper_cycles": row.paper["cycles"],
            "paper_messages": row.paper["messages"],
            "paper_t_betw": row.paper["t_betw"],
            "paper_t_hand": row.paper["t_hand"],
        })
    ordered = sorted(rows, key=lambda r: r.metrics.t_betw)
    values["t_betw_ordering"] = [r.name for r in ordered]
    values["standalone_quiet"] = all(
        r.metrics.buffered_fraction < 0.01 for r in rows
    )
    return ArtifactRun(artifact="table6", values=values,
                       doc={"apps": apps_doc})


def _table6_quantities() -> Tuple[Quantity, ...]:
    from repro.experiments.standalone import PAPER_TABLE6

    out: List[Quantity] = []
    for app in APP_ORDER:
        paper = PAPER_TABLE6[app]
        out.append(Quantity(f"cycles_{app}", "relative", tolerance=0.02,
                            paper=paper["cycles"], unit="cycles",
                            note="scaled data set; runtime drift gate"))
        out.append(Quantity(f"messages_{app}", "exact",
                            paper=paper["messages"],
                            note="message count is structural"))
        out.append(Quantity(f"t_betw_{app}", "relative", tolerance=0.05,
                            paper=paper["t_betw"], unit="cycles"))
        out.append(Quantity(f"t_hand_{app}", "relative", tolerance=0.05,
                            paper=paper["t_hand"], unit="cycles"))
    out.append(Quantity("t_betw_ordering", "ordering",
                        paper=T_BETW_ORDER,
                        note="communication-intensity ordering, "
                             "column for column"))
    out.append(Quantity("standalone_quiet", "predicate", paper=True,
                        note="standalone runs essentially never buffer"))
    return tuple(out)


def _table6_runs(scale: str = "bench", faults: str = "") -> List[RunSpec]:
    from repro.experiments.standalone import table6_specs

    return table6_specs(scale=scale, faults=faults)


_TABLE6 = ArtifactSpec(
    id="table6",
    title="Table 6: standalone application characteristics (8 nodes)",
    source="benchmarks/test_table6_app_characteristics.py",
    command="table6",
    quantities=_table6_quantities(),
    runs=_table6_runs,
    fold=_fold_table6,
)


# ----------------------------------------------------------------------
# Figure 7 — % messages buffered vs schedule skew
# ----------------------------------------------------------------------
def _fold_fig7(runs: Sequence[RunResult]) -> ArtifactRun:
    from repro.experiments.multiprog import full_sweep_fold

    results = full_sweep_fold(runs)
    skews = results[APP_ORDER[0]].skews
    buffered = {name: results[name].buffered_percent
                for name in APP_ORDER}
    pages = {name: results[name].max_pages for name in APP_ORDER}
    enum_pct = buffered["enum"]
    values: Dict[str, Any] = {
        f"buffered_at_20_{name}": buffered[name][-1]
        for name in APP_ORDER
    }
    # Growth is read off three points: the first skew, the second and
    # the last. A sweep of fewer skews shows none.
    values["enum_linear_growth"] = (
        len(enum_pct) >= 3
        and enum_pct[-1] > enum_pct[1] > enum_pct[0]
        and enum_pct[-1] >= 3 * enum_pct[1]
    )
    values["zero_skew_quiet"] = all(
        buffered[name][0] < 0.5 for name in APP_ORDER
    )
    values["barrier_bounded"] = max(buffered["barrier"]) < 2.0
    values["pages_bound"] = all(
        max(pages[name]) < 7 for name in APP_ORDER
    )
    values["max_pages_overall"] = max(
        max(pages[name]) for name in APP_ORDER
    )
    doc = {"skews": list(skews), "buffered": buffered, "pages": pages}
    return ArtifactRun(artifact="fig7", values=values, doc=doc)


def _full_sweep_runs(skews: Sequence[float] = DEFAULT_SKEWS,
                     trials: int = 3, scale: str = "bench",
                     faults: str = "") -> List[RunSpec]:
    from repro.experiments.multiprog import full_sweep_specs

    return full_sweep_specs(skews=skews, trials=trials, scale=scale,
                            faults=faults)


_FIG7 = ArtifactSpec(
    id="fig7",
    title="Figure 7: % messages buffered vs schedule skew",
    source="benchmarks/test_fig7_buffered_fraction.py",
    command="fig7",
    quantities=tuple(
        [Quantity(f"buffered_at_20_{name}", "relative", tolerance=0.20,
                  unit="%", note="buffered fraction at 20% skew")
         for name in APP_ORDER]
        + [
            Quantity("enum_linear_growth", "predicate", paper=True,
                     note="enum's buffered fraction grows ~linearly "
                          "with skew"),
            Quantity("zero_skew_quiet", "predicate", paper=True,
                     note="at zero skew essentially nothing buffers"),
            Quantity("barrier_bounded", "predicate", paper=True,
                     note="synchronizing apps hold a small, bounded "
                          "buffered fraction"),
            Quantity("pages_bound", "predicate", paper=True,
                     note="'less than seven pages/node in all cases'"),
            Quantity("max_pages_overall", "exact", paper=7,
                     unit="pages",
                     note="paper bound is 7; our scaled apps stay lower"),
        ]
    ),
    runs=_full_sweep_runs,
    fold=_fold_fig7,
)


# ----------------------------------------------------------------------
# Figure 8 — relative runtime vs schedule skew
# ----------------------------------------------------------------------
def _fold_fig8(runs: Sequence[RunResult]) -> ArtifactRun:
    from repro.experiments.multiprog import full_sweep_fold

    results = full_sweep_fold(runs)
    skews = results[APP_ORDER[0]].skews
    relative = {name: results[name].relative_runtime
                for name in APP_ORDER}
    barrier = relative["barrier"]
    enum_rel = relative["enum"]
    worst = skews[-1]
    inverse_overlap = 1.0 / (1.0 - worst)
    values: Dict[str, Any] = {
        f"rel_runtime_at_20_{name}": relative[name][-1]
        for name in APP_ORDER
    }
    values["barrier_most_sensitive"] = (
        barrier[-1] > 1.05 and barrier[-1] > enum_rel[-1]
    )
    values["barrier_inverse_overlap"] = (
        abs(barrier[-1] - inverse_overlap) / inverse_overlap < 0.35
    )
    values["enum_flat"] = enum_rel[-1] < 1.10
    values["no_speedup"] = all(
        min(relative[name]) > 0.97 for name in APP_ORDER
    )
    doc = {"skews": list(skews), "relative": relative}
    return ArtifactRun(artifact="fig8", values=values, doc=doc)


_FIG8 = ArtifactSpec(
    id="fig8",
    title="Figure 8: relative runtime vs schedule skew",
    source="benchmarks/test_fig8_relative_runtime.py",
    command="fig8",
    quantities=tuple(
        [Quantity(f"rel_runtime_at_20_{name}", "relative",
                  tolerance=0.05,
                  note="runtime at 20% skew / zero-skew runtime")
         for name in APP_ORDER]
        + [
            Quantity("barrier_most_sensitive", "predicate", paper=True,
                     note="barrier slows the most (crossover vs enum)"),
            Quantity("barrier_inverse_overlap", "predicate", paper=True,
                     note="barrier tracks 1/(1-skew) within 35%"),
            Quantity("enum_flat", "predicate", paper=True,
                     note="enum tolerates latency; pays only buffering"),
            Quantity("no_speedup", "predicate", paper=True,
                     note="zero skew is the fastest configuration"),
        ]
    ),
    runs=_full_sweep_runs,
    fold=_fold_fig8,
)


# ----------------------------------------------------------------------
# Figure 9 — % buffered vs send interval (synth-N)
# ----------------------------------------------------------------------
def _fold_fig9(runs: Sequence[RunResult]) -> ArtifactRun:
    from repro.experiments.synth_sweeps import GROUP_SIZES, interval_fold

    result = interval_fold(runs)
    fast_index = result.xs.index(50)
    slow_index = result.xs.index(1000)
    series = {str(g): result.series[g] for g in GROUP_SIZES}
    values: Dict[str, Any] = {}
    for g in GROUP_SIZES:
        values[f"pressure_synth{g}"] = result.series[g][fast_index]
        values[f"drained_synth{g}"] = result.series[g][slow_index]
    values["drain_guarantee"] = all(
        result.series[g][slow_index] < 3.0 for g in GROUP_SIZES
    )
    values["pressure_ordering"] = (
        result.series[10][fast_index]
        <= result.series[100][fast_index] + 0.5
        and result.series[100][fast_index]
        <= result.series[1000][fast_index] + 0.5
    )
    values["pressure_matters"] = (
        result.series[1000][fast_index] > result.series[1000][slow_index]
    )
    doc = {"xs": list(result.xs), "buffered": series}
    return ArtifactRun(artifact="fig9", values=values, doc=doc)


def _fig9_runs(trials: int = 3, messages: int = 2000,
               shards: int = 1) -> List[RunSpec]:
    from repro.experiments.synth_sweeps import interval_specs

    return interval_specs(trials=trials, messages_per_node=messages,
                          shards=shards)


_FIG9 = ArtifactSpec(
    id="fig9",
    title="Figure 9: % buffered vs send interval (synth-N, 1% skew)",
    source="benchmarks/test_fig9_synth_interval.py",
    command="fig9",
    quantities=tuple(
        [Quantity(f"pressure_synth{g}", "relative", tolerance=0.25,
                  unit="%", note="buffered % at T_betw=50")
         for g in (10, 100, 1000)]
        + [Quantity(f"drained_synth{g}", "relative", tolerance=0.25,
                    unit="%", note="buffered % at T_betw=1000")
           for g in (10, 100, 1000)]
        + [
            Quantity("drain_guarantee", "predicate", paper=True,
                     note="slow senders barely buffer: the consumer's "
                          "buffer always drains"),
            Quantity("pressure_ordering", "predicate", paper=True,
                     note="under pressure, sync frequency orders the "
                          "curves (synth-10 lowest)"),
            Quantity("pressure_matters", "predicate", paper=True,
                     note="tightest interval buffers more than the "
                          "loosest for synth-1000"),
        ]
    ),
    runs=_fig9_runs,
    fold=_fold_fig9,
)


# ----------------------------------------------------------------------
# Figure 10 — % buffered vs buffered-path cost
# ----------------------------------------------------------------------
def _fold_fig10(runs: Sequence[RunResult]) -> ArtifactRun:
    from repro.experiments.synth_sweeps import (
        GROUP_SIZES, buffer_cost_fold,
    )

    result = buffer_cost_fold(runs)
    series = {str(g): result.series[g] for g in GROUP_SIZES}
    values: Dict[str, Any] = {
        f"costly_synth{g}": result.series[g][-1] for g in GROUP_SIZES
    }
    values["synth10_flat"] = max(result.series[10]) < 3.0
    for g in (100, 1000):
        s = result.series[g]
        values[f"crossover_synth{g}"] = (
            s[-1] > 3 * max(s[0], 0.3) and s[0] < 5.0
        )
    doc = {"costs": list(result.xs), "buffered": series}
    return ArtifactRun(artifact="fig10", values=values, doc=doc)


def _fig10_runs(trials: int = 3, messages: int = 2000,
                shards: int = 1) -> List[RunSpec]:
    from repro.experiments.synth_sweeps import buffer_cost_specs

    return buffer_cost_specs(trials=trials, messages_per_node=messages,
                             shards=shards)


_FIG10 = ArtifactSpec(
    id="fig10",
    title="Figure 10: % buffered vs buffered-path cost (T_betw=275)",
    source="benchmarks/test_fig10_buffer_cost.py",
    command="fig10",
    quantities=tuple(
        [Quantity(f"costly_synth{g}", "relative", tolerance=0.25,
                  unit="%", note="buffered % at 2500-cycle path")
         for g in (10, 100, 1000)]
        + [
            Quantity("synth10_flat", "predicate", paper=True,
                     note="synth-10 is insensitive throughout"),
            Quantity("crossover_synth100", "predicate", paper=True,
                     note="buffering feeds back past the ~275-cycle "
                          "crossover"),
            Quantity("crossover_synth1000", "predicate", paper=True,
                     note="same crossover, strongest for synth-1000"),
        ]
    ),
    runs=_fig10_runs,
    fold=_fold_fig10,
)


# ----------------------------------------------------------------------
# Design-choice ablations
# ----------------------------------------------------------------------
def _fold_ablations(runs: Sequence[RunResult]) -> ArtifactRun:
    from repro.experiments.ablations import ablation_points

    studies = ablation_points(runs)
    values: Dict[str, Any] = {}
    doc: Dict[str, Any] = {}

    two_case, always = studies["ablate_two_case"]
    slowdown = (always.metrics.elapsed_cycles
                / two_case.metrics.elapsed_cycles)
    values["always_buffered_slowdown"] = slowdown
    values["two_case_stays_fast"] = \
        two_case.metrics.buffered_fraction < 0.01
    values["baseline_always_buffers"] = \
        always.metrics.buffered_fraction > 0.99
    doc["two_case"] = {
        "rows": [
            {"label": p.label, "runtime": p.metrics.elapsed_cycles,
             "buffered_pct": p.metrics.buffered_fraction * 100,
             "fast": p.metrics.fast_messages,
             "buffered": p.metrics.buffered_messages}
            for p in (two_case, always)
        ],
        "slowdown": slowdown,
    }

    timeout_points = studies["ablate_timeout"]
    revocations = [p.metrics.revocations for p in timeout_points]
    values["revocations_tight"] = revocations[0]
    values["revocations_monotone"] = revocations[0] >= revocations[-1]
    values["generous_timeout_quiet"] = revocations[-1] <= 1
    doc["timeout"] = {
        "rows": [
            {"label": p.label, "runtime": p.metrics.elapsed_cycles,
             "buffered_pct": p.metrics.buffered_fraction * 100,
             "revocations": p.metrics.revocations}
            for p in timeout_points
        ],
    }

    queue_points = studies["ablate_queue_depth"]
    backlogs = [int(p.extra["max_network_backlog"])
                for p in queue_points]
    values["backlog_shallow"] = backlogs[0]
    values["backlog_deep"] = backlogs[-1]
    values["backlog_monotone"] = backlogs[0] >= backlogs[-1]
    doc["queue"] = {
        "rows": [
            {"label": p.label, "runtime": p.metrics.elapsed_cycles,
             "backlog": int(p.extra["max_network_backlog"]),
             "sender_blocks": int(p.extra["sender_blocks"])}
            for p in queue_points
        ],
    }

    arch_points = studies["ablate_architecture"]
    by_label = {p.label: p for p in arch_points}
    arch_two = by_label["two-case"]
    memory = by_label["memory-based"]
    buffered = by_label["always-buffered"]
    values["memory_based_slowdown"] = (
        memory.metrics.elapsed_cycles / arch_two.metrics.elapsed_cycles
    )
    values["memory_based_slower"] = (
        memory.metrics.elapsed_cycles > arch_two.metrics.elapsed_cycles
    )
    values["memory_beats_always_buffered"] = (
        memory.metrics.elapsed_cycles < buffered.metrics.elapsed_cycles
    )
    values["two_case_resident_pages"] = \
        int(arch_two.extra["resident_buffer_pages"])
    values["memory_pins_pages"] = \
        int(memory.extra["resident_buffer_pages"]) > 0
    doc["architecture"] = {
        "rows": [
            {"label": p.label, "runtime": p.metrics.elapsed_cycles,
             "latency": p.extra["mean_message_latency"],
             "pages": int(p.extra["resident_buffer_pages"]),
             "buffered_pct": p.metrics.buffered_fraction * 100}
            for p in arch_points
        ],
    }

    fragments, bulk = studies["ablate_bulk"]
    values["bulk_message_reduction"] = (
        fragments.metrics.messages_sent / bulk.metrics.messages_sent
    )
    values["bulk_speedup"] = (
        fragments.metrics.elapsed_cycles / bulk.metrics.elapsed_cycles
    )
    values["bulk_pure"] = (
        int(fragments.extra["bulk_transfers"]) == 0
        and int(bulk.extra["data_fragments"]) == 0
    )
    doc["bulk"] = {
        "rows": [
            {"label": p.label, "runtime": p.metrics.elapsed_cycles,
             "messages": p.metrics.messages_sent,
             "fragments": int(p.extra["data_fragments"]),
             "bulk_transfers": int(p.extra["bulk_transfers"])}
            for p in (fragments, bulk)
        ],
        "msg_ratio": values["bulk_message_reduction"],
        "speedup": values["bulk_speedup"],
    }

    return ArtifactRun(artifact="ablations", values=values, doc=doc)


def _ablations_runs() -> List[RunSpec]:
    from repro.experiments.ablations import ablation_specs

    return ablation_specs()


_ABLATIONS = ArtifactSpec(
    id="ablations",
    title="Design-choice ablations (beyond the paper's figures)",
    source="benchmarks/test_ablation_design_choices.py, "
           "benchmarks/test_ablation_architectures.py",
    command="ablations",
    quantities=(
        Quantity("always_buffered_slowdown", "relative", tolerance=0.10,
                 note="SUNMOS-style always-buffered baseline on "
                      "barrier"),
        Quantity("two_case_stays_fast", "predicate", paper=True,
                 note="two-case keeps <1% of messages off the buffer"),
        Quantity("baseline_always_buffers", "predicate", paper=True,
                 note="the forced baseline buffers >99%"),
        Quantity("revocations_tight", "exact",
                 note="revocations at the 1k-cycle preset"),
        Quantity("revocations_monotone", "predicate", paper=True,
                 note="tighter atomicity presets revoke more"),
        Quantity("generous_timeout_quiet", "predicate", paper=True,
                 note="a generous preset effectively disables "
                      "revocation"),
        Quantity("backlog_shallow", "exact",
                 note="max network backlog with a 1-entry NI queue"),
        Quantity("backlog_deep", "exact",
                 note="max network backlog with an 8-entry NI queue"),
        Quantity("backlog_monotone", "predicate", paper=True,
                 note="deeper hardware queues absorb bursts"),
        Quantity("memory_based_slowdown", "relative", tolerance=0.10,
                 note="pinned-queue architecture vs two-case"),
        Quantity("memory_based_slower", "predicate", paper=True),
        Quantity("memory_beats_always_buffered", "predicate",
                 paper=True),
        Quantity("two_case_resident_pages", "exact", paper=0,
                 unit="pages",
                 note="two-case pins no buffer memory"),
        Quantity("memory_pins_pages", "predicate", paper=True),
        Quantity("bulk_message_reduction", "relative", tolerance=0.10,
                 note="fragmented / bulk-DMA message count"),
        Quantity("bulk_speedup", "relative", tolerance=0.15,
                 note="fragmented / bulk-DMA runtime"),
        Quantity("bulk_pure", "predicate", paper=True,
                 note="each variant uses only its own transfer path"),
    ),
    runs=_ablations_runs,
    fold=_fold_ablations,
)


# ----------------------------------------------------------------------
# Delivery disciplines head-to-head (beyond the paper's figures)
# ----------------------------------------------------------------------
def _fold_delivery(runs: Sequence[RunResult]) -> ArtifactRun:
    from repro.experiments.ablations import ablation_points

    points = ablation_points(runs)["ablate_delivery"]
    by_label = {p.label: p for p in points}
    twocase = by_label["twocase"]
    zerocopy = by_label["zerocopy"]
    damq = by_label["damq"]
    base_runtime = twocase.metrics.elapsed_cycles
    values: Dict[str, Any] = {
        "twocase_stays_fast": twocase.metrics.buffered_fraction < 0.01,
        "twocase_pins_nothing": twocase.metrics.pinned_pages_peak == 0,
        "zerocopy_rel_runtime": (zerocopy.metrics.elapsed_cycles
                                 / base_runtime),
        "damq_rel_runtime": damq.metrics.elapsed_cycles / base_runtime,
        "zerocopy_fault_traps": zerocopy.metrics.delivery_fault_traps,
        "zerocopy_pins_pages": zerocopy.metrics.pinned_pages_peak > 0,
        "zerocopy_falls_back": int(zerocopy.extra["zerocopy_fallbacks"]) > 0,
        "damq_evictions": damq.metrics.damq_evictions,
        "damq_queue_peak": damq.metrics.damq_peak_occupancy,
        "damq_evicts_under_pressure": damq.metrics.damq_evictions > 0,
    }
    doc = {
        "rows": [
            {"label": p.label,
             "runtime": p.metrics.elapsed_cycles,
             "buffered_pct": p.metrics.buffered_fraction * 100,
             "pinned_pages": p.metrics.pinned_pages_peak,
             "queue_peak": p.metrics.damq_peak_occupancy,
             "fault_traps": p.metrics.delivery_fault_traps,
             "evictions": p.metrics.damq_evictions}
            for p in points
        ],
        "zerocopy_rel_runtime": values["zerocopy_rel_runtime"],
        "damq_rel_runtime": values["damq_rel_runtime"],
    }
    return ArtifactRun(artifact="delivery_headtohead", values=values,
                       doc=doc)


def _delivery_runs(nodes: int = 4) -> List[RunSpec]:
    from repro.experiments.ablations import delivery_specs

    return delivery_specs(num_nodes=nodes)


_DELIVERY = ArtifactSpec(
    id="delivery_headtohead",
    title="Delivery disciplines head-to-head: two-case vs zero-copy "
          "rings vs DAMQ",
    source="tests/property/test_prop_delivery.py, "
           "tests/integration/test_delivery_disciplines.py",
    command="delivery",
    quantities=(
        Quantity("twocase_stays_fast", "predicate", paper=True,
                 note="two-case keeps <1% of messages off the buffer "
                      "on the overloading synth workload"),
        Quantity("twocase_pins_nothing", "predicate", paper=True,
                 note="the paper's design pins no receive memory"),
        Quantity("zerocopy_rel_runtime", "relative", tolerance=0.05,
                 note="zero-copy-ring runtime / two-case runtime"),
        Quantity("damq_rel_runtime", "relative", tolerance=0.05,
                 note="DAMQ runtime / two-case runtime"),
        Quantity("zerocopy_fault_traps", "exact",
                 note="protection-fault traps taken when the pinned "
                      "ring overflowed (deterministic)"),
        Quantity("zerocopy_pins_pages", "predicate", paper=True,
                 note="zero-copy pins physical receive memory"),
        Quantity("zerocopy_falls_back", "predicate", paper=True,
                 note="the undersized ring forces buffered fallback"),
        Quantity("damq_evictions", "exact",
                 note="occupancy-pressure evictions (deterministic)"),
        Quantity("damq_queue_peak", "exact",
                 note="peak shared-pool occupancy (deterministic)"),
        Quantity("damq_evicts_under_pressure", "predicate", paper=True,
                 note="the shared pool sheds load by diverting the "
                      "hoggiest source to buffered mode"),
    ),
    runs=_delivery_runs,
    fold=_fold_delivery,
)


# ----------------------------------------------------------------------
# Mailbox scaling (beyond the paper's figures)
# ----------------------------------------------------------------------
def _fold_mailbox(runs: Sequence[RunResult]) -> ArtifactRun:
    from repro.experiments.mailbox_sweeps import scaling_fold

    result = scaling_fold(runs)
    curves = result.curves
    flows = curves["mailbox_active_flows_peak"]
    elapsed = curves["elapsed_cycles"]
    values: Dict[str, Any] = {}
    for i, clients in enumerate(result.clients):
        values[f"buffered_pct_{clients}"] = \
            curves["buffered_fraction"][i] * 100
    values["flows_peak_1000000"] = flows[-1]
    values["overflow_drops_100000"] = \
        curves["mailbox_overflow_drops"][1]
    values["dup_suppressed_1000000"] = \
        curves["mailbox_dup_suppressed"][-1]
    values["retrieval_latency_mean_100000"] = \
        curves["retrieval_latency_mean"][1]
    values["pages_peak"] = max(curves["max_buffer_pages"])
    # The structural claims: flow state stays pinned at the LRU cap,
    # dedup keeps firing, runtime does not follow the population, and
    # the heavy-tailed open-loop load actually drives the mailbox
    # nodes into buffered mode.
    values["flows_bounded"] = all(v <= 512 for v in flows)
    values["dedup_active"] = all(
        v > 0 for v in curves["mailbox_dup_suppressed"]
    )
    values["cost_scale_invariant"] = \
        max(elapsed) <= 1.2 * min(elapsed)
    values["buffered_under_load"] = all(
        v > 0 for v in curves["buffered_fraction"]
    )
    h2h = result.head_to_head
    base_runtime = h2h["twocase"]["elapsed_cycles"]
    for kind, row in h2h.items():
        values[f"h2h_buffered_pct_{kind}"] = \
            row["buffered_fraction"] * 100
    values["h2h_zerocopy_rel_runtime"] = \
        h2h["zerocopy"]["elapsed_cycles"] / base_runtime
    values["h2h_damq_rel_runtime"] = \
        h2h["damq"]["elapsed_cycles"] / base_runtime
    values["h2h_damq_evictions"] = h2h["damq"]["damq_evictions"]
    doc = {
        "clients": list(result.clients),
        "curves": {name: list(series)
                   for name, series in curves.items()},
        "head_to_head": {kind: dict(row)
                         for kind, row in h2h.items()},
    }
    return ArtifactRun(artifact="mailbox_scaling", values=values,
                       doc=doc)


def _mailbox_runs() -> List[RunSpec]:
    from repro.experiments.mailbox_sweeps import scaling_specs

    return scaling_specs()


_MAILBOX = ArtifactSpec(
    id="mailbox_scaling",
    title="Mailbox scaling: internet-scale client populations on "
          "two-case delivery",
    source="tests/integration/test_mailbox.py",
    command="mailbox-scaling",
    quantities=(
        Quantity("buffered_pct_1000", "exact", unit="%",
                 note="buffered fraction at 1k clients "
                      "(deterministic)"),
        Quantity("buffered_pct_100000", "exact", unit="%",
                 note="buffered fraction at 100k clients"),
        Quantity("buffered_pct_1000000", "exact", unit="%",
                 note="buffered fraction at 1M clients"),
        Quantity("flows_peak_1000000", "exact", unit="flows",
                 note="resident flow objects at 1M clients; the LRU "
                      "cap is 512"),
        Quantity("overflow_drops_100000", "exact",
                 note="mailbox-capacity drops at 100k clients"),
        Quantity("dup_suppressed_1000000", "exact",
                 note="duplicate submissions absorbed by the dedup "
                      "cache at 1M clients"),
        Quantity("retrieval_latency_mean_100000", "relative",
                 tolerance=0.05, unit="cycles",
                 note="mean enqueue-to-delivery latency at 100k "
                      "clients"),
        Quantity("pages_peak", "exact", unit="pages",
                 note="peak software-buffer pages across all scales"),
        Quantity("flows_bounded", "predicate", paper=True,
                 note="O(active-flows) memory: resident flow state "
                      "never exceeds the cap at any population"),
        Quantity("dedup_active", "predicate", paper=True,
                 note="duplicate-sending clients are suppressed at "
                      "every scale"),
        Quantity("cost_scale_invariant", "predicate", paper=True,
                 note="runtime tracks message count, not client "
                      "count (1M clients ≤ 1.2x the 1k runtime)"),
        Quantity("buffered_under_load", "predicate", paper=True,
                 note="heavy-tailed open-loop fan-in drives the "
                      "mailbox nodes into buffered mode"),
        Quantity("h2h_buffered_pct_twocase", "exact", unit="%"),
        Quantity("h2h_buffered_pct_zerocopy", "exact", unit="%"),
        Quantity("h2h_buffered_pct_damq", "exact", unit="%"),
        Quantity("h2h_zerocopy_rel_runtime", "relative",
                 tolerance=0.05,
                 note="zero-copy-ring runtime / two-case runtime on "
                      "the 100k-client workload"),
        Quantity("h2h_damq_rel_runtime", "relative", tolerance=0.05,
                 note="DAMQ runtime / two-case runtime"),
        Quantity("h2h_damq_evictions", "exact",
                 note="occupancy-pressure evictions under the "
                      "mailbox workload (deterministic)"),
    ),
    runs=_mailbox_runs,
    fold=_fold_mailbox,
)


#: Registry, in report/document order.
ARTIFACTS: Dict[str, ArtifactSpec] = {
    spec.id: spec
    for spec in (_TABLE4, _TABLE5, _TABLE6, _FIG7, _FIG8, _FIG9,
                 _FIG10, _ABLATIONS, _DELIVERY, _MAILBOX)
}

ARTIFACT_IDS: Tuple[str, ...] = tuple(ARTIFACTS)


def pipeline_schema_hash() -> str:
    """Hash over every artifact schema (whole-pipeline provenance)."""
    digest = sha256()
    for spec in ARTIFACTS.values():
        digest.update(spec.schema_hash().encode("ascii"))
    return digest.hexdigest()[:12]


__all__ = [
    "APP_ORDER", "ARTIFACTS", "ARTIFACT_IDS", "ArtifactRun",
    "ArtifactSpec", "ReportContext", "T_BETW_ORDER",
    "pipeline_schema_hash",
]
