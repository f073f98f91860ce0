"""``repro report``: regenerate, compare, and emit the report bundle.

The report flow:

1. plan, then run: the planned runs of every selected artifact go to
   :func:`repro.runner.run_specs` in **one** batch (so ``--jobs`` and
   the persistent cache apply to all of them at once), then each
   artifact's fold computes it from that batch's in-memory results;
2. each quantity is compared against ``goldens/paper.json`` within its
   tolerance band;
3. a bundle is written under ``--out``: per-artifact Markdown/CSV/JSON,
   ASCII plots, a summary, and a ``validation.jsonl`` riding the
   observability export format;
4. EXPERIMENTS.md is re-rendered from the goldens payload (byte-stable);
5. with ``--check`` the exit code gates CI: non-zero on any drift.

``--update-goldens`` replaces step 2 with re-stamping: the fresh
measurements become the new goldens (predicates must hold — a broken
crossover can't be stamped in by accident) and the file is rewritten
canonically so the diff under review is exactly the drift.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.validate.artifacts import (
    ARTIFACT_IDS, ARTIFACTS, ArtifactRun, ArtifactSpec, ReportContext,
)
from repro.validate.experiments_md import render_experiments_md
from repro.validate.goldens import (
    GoldenError, REGEN_COMMAND, build_goldens, canonical_bytes,
    default_experiments_path, default_goldens_path, golden_artifact,
    golden_values, load_goldens, save_goldens,
)
from repro.validate.quantity import CheckResult
from repro.validate.render import (
    artifact_plot, artifact_tables, markdown_table,
)


@dataclass
class ArtifactReport:
    """One artifact's regeneration + comparison outcome."""

    spec: ArtifactSpec
    run: ArtifactRun
    results: List[CheckResult]

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def drifted(self) -> List[CheckResult]:
        return [result for result in self.results if not result.ok]


def compare_artifact(spec: ArtifactSpec, goldens: Dict[str, Any],
                     run: ArtifactRun) -> List[CheckResult]:
    """Check every quantity of ``run`` against its golden value."""
    return [
        quantity.check(goldens[quantity.name],
                       run.values.get(quantity.name))
        for quantity in spec.quantities
    ]


def _select(only: Optional[Sequence[str]]) -> List[str]:
    if not only:
        return list(ARTIFACT_IDS)
    unknown = [name for name in only if name not in ARTIFACTS]
    if unknown:
        raise GoldenError(
            f"unknown artifact(s) {unknown}; "
            f"choose from {list(ARTIFACT_IDS)}"
        )
    return [aid for aid in ARTIFACT_IDS if aid in set(only)]


def _failed_predicates(runs: Dict[str, ArtifactRun]) -> List[str]:
    failures = []
    for artifact_id, run in runs.items():
        for quantity in ARTIFACTS[artifact_id].quantities:
            if quantity.kind == "predicate" \
                    and not bool(run.values.get(quantity.name)):
                failures.append(f"{artifact_id}.{quantity.name}")
    return failures


# ----------------------------------------------------------------------
# Bundle writing
# ----------------------------------------------------------------------
def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, (list, tuple)):
        return " -> ".join(str(v) for v in value)
    return str(value)


def _write_artifact_files(out: Path, report: ArtifactReport) -> None:
    spec, run = report.spec, report.run
    check_rows = [
        [f"`{r.name}`", r.quantity.kind, r.quantity.band(),
         _fmt(r.quantity.paper), _fmt(r.golden), _fmt(r.measured),
         "ok" if r.ok else "**DRIFT**", r.detail]
        for r in report.results
    ]
    md = [f"# {spec.title}\n",
          f"*Source: `{spec.source}` — standalone view: "
          f"`python -m repro {spec.command}`*\n"]
    for title, headers, rows in artifact_tables(spec.id, run.doc):
        md.append(f"**{title}**\n")
        md.append(markdown_table(headers, rows) + "\n")
    plot = artifact_plot(spec.id, run.doc)
    if plot:
        md.append("```\n" + plot + "\n```\n")
    md.append("## Checks\n")
    md.append(markdown_table(
        ["quantity", "kind", "band", "paper", "golden", "measured",
         "status", "detail"], check_rows) + "\n")
    (out / f"{spec.id}.md").write_text("\n".join(md), encoding="utf-8")

    with open(out / f"{spec.id}.csv", "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["artifact", "quantity", "kind", "paper",
                         "golden", "measured", "ok", "detail"])
        for r in report.results:
            writer.writerow([spec.id, r.name, r.quantity.kind,
                             _fmt(r.quantity.paper), _fmt(r.golden),
                             _fmt(r.measured), r.ok, r.detail])

    payload = {
        "artifact": spec.id,
        "title": spec.title,
        "ok": report.ok,
        "results": [r.as_dict() for r in report.results],
        "doc": run.doc,
    }
    (out / f"{spec.id}.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
        encoding="utf-8")


def _write_summary(out: Path, reports: List[ArtifactReport],
                   provenance: Dict[str, Any]) -> None:
    from repro.obs.export import write_validation_jsonl

    rows = [
        [r.spec.id, str(len(r.results)), str(len(r.drifted)),
         "ok" if r.ok else "**DRIFT**"]
        for r in reports
    ]
    drifted = [r for r in reports if not r.ok]
    md = ["# Validation summary\n",
          f"- goldens: cost model v{provenance['cost_model_version']}, "
          f"spec hash `{provenance['spec_hash']}`, stamped at "
          f"`{provenance['git_sha']}`",
          f"- verdict: {'OK' if not drifted else 'DRIFT'} "
          f"({sum(len(r.results) for r in reports)} checks, "
          f"{sum(len(r.drifted) for r in reports)} drifted)\n",
          markdown_table(["artifact", "checks", "drifted", "status"],
                         rows) + "\n"]
    if drifted:
        md.append("## Drift detail\n")
        for report in drifted:
            for result in report.drifted:
                md.append(f"- `{report.spec.id}.{result.name}`: "
                          f"{result.detail} (golden "
                          f"{_fmt(result.golden)}, measured "
                          f"{_fmt(result.measured)})")
        md.append("\nIf the drift is intentional, re-stamp with "
                  f"`{REGEN_COMMAND}` and commit the goldens diff.")
    (out / "summary.md").write_text("\n".join(md) + "\n",
                                    encoding="utf-8")
    (out / "summary.json").write_text(json.dumps({
        "ok": not drifted,
        "provenance": provenance,
        "artifacts": {
            r.spec.id: {"ok": r.ok,
                        "drifted": [c.name for c in r.drifted]}
            for r in reports
        },
    }, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    write_validation_jsonl(
        out / "validation.jsonl",
        {r.spec.id: r.results for r in reports},
        provenance=provenance)


def _write_experiments(payload: Dict[str, Any], path: Path,
                       echo: Callable[[str], None]) -> None:
    missing = [aid for aid in ARTIFACT_IDS
               if aid not in payload["artifacts"]]
    if missing:
        echo(f"not rewriting {path}: goldens lack artifacts {missing} "
             f"(stamp the full set with `{REGEN_COMMAND}`)")
        return
    path.write_text(render_experiments_md(payload), encoding="utf-8")
    echo(f"wrote {path}")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_report(only: Optional[Sequence[str]] = None,
               goldens_path: Optional[Path] = None,
               out_dir: Optional[Path] = None,
               experiments_path: Optional[Path] = None,
               update: bool = False, check: bool = False,
               jobs: Optional[int] = None, cache=None,
               echo: Callable[[str], None] = print) -> int:
    """The ``repro report`` command. Returns the process exit code."""
    goldens_path = goldens_path or default_goldens_path()
    out_dir = out_dir or (goldens_path.parent.parent / "report")
    experiments_path = experiments_path or default_experiments_path()

    try:
        selected = _select(only)
        base: Optional[Dict[str, Any]] = None
        if not update:
            payload = load_goldens(goldens_path)
        elif len(selected) < len(ARTIFACT_IDS) \
                and goldens_path.exists():
            # Subset re-stamp: carry the other artifacts forward, so
            # the existing file must itself be loadable.
            base = load_goldens(goldens_path)
    except GoldenError as exc:
        echo(str(exc))
        return 2

    ctx = ReportContext(jobs=jobs, cache=cache)
    info = ctx.prefetch(selected)
    echo(f"batch: {info['declared']} runs declared, {info['planned']} "
         f"distinct: {info['cache_hits']} cached, {info['misses']} "
         f"simulated ({info['mode']}, {info['workers']} worker(s): "
         f"{info['mode_reason']})")
    runs: Dict[str, ArtifactRun] = {}
    for artifact_id in selected:
        echo(f"regenerating {artifact_id} "
             f"({ARTIFACTS[artifact_id].title}) ...")
        runs[artifact_id] = ctx.produce(artifact_id)

    if update:
        failures = _failed_predicates(runs)
        if failures:
            echo("refusing to stamp goldens while predicates fail "
                 "(these encode the paper's qualitative claims):")
            for name in failures:
                echo(f"  {name}")
            return 1
        payload = build_goldens(runs, base=base)
        save_goldens(payload, goldens_path)
        echo(f"stamped {len(runs)} artifact(s) into {goldens_path}")

    try:
        reports = []
        for artifact_id in selected:
            spec = ARTIFACTS[artifact_id]
            entry = golden_artifact(payload, spec, goldens_path)
            reports.append(ArtifactReport(
                spec=spec, run=runs[artifact_id],
                results=compare_artifact(spec, golden_values(entry),
                                         runs[artifact_id])))
    except GoldenError as exc:
        echo(str(exc))
        return 2

    out_dir.mkdir(parents=True, exist_ok=True)
    for report in reports:
        _write_artifact_files(out_dir, report)
    _write_summary(out_dir, reports, payload["provenance"])
    _write_experiments(payload, experiments_path, echo)

    total = sum(len(r.results) for r in reports)
    drifted = [result for r in reports for result in r.drifted]
    if drifted:
        echo(f"DRIFT: {len(drifted)}/{total} checks out of tolerance "
             f"(bundle in {out_dir}):")
        for report in reports:
            for result in report.drifted:
                echo(f"  {report.spec.id}: {result.describe()}")
        echo(f"if intentional, re-stamp with `{REGEN_COMMAND}` "
             f"and review the goldens diff")
        return 1 if check else 0
    echo(f"OK: {total} checks within tolerance across "
         f"{len(reports)} artifact(s); bundle in {out_dir}")
    return 0


def regenerate_experiments_text(
        goldens_path: Optional[Path] = None) -> str:
    """EXPERIMENTS.md text from the committed goldens (no simulation).

    This is what the byte-identity test calls: the committed document
    must equal this rendering exactly.
    """
    payload = load_goldens(goldens_path or default_goldens_path())
    return render_experiments_md(payload)


__all__ = [
    "ArtifactReport", "compare_artifact", "regenerate_experiments_text",
    "run_report", "canonical_bytes",
]
