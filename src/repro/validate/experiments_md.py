"""Generate EXPERIMENTS.md from the goldens payload.

The committed EXPERIMENTS.md is *output*, not prose: every "measured"
cell is rendered from the doc payloads stamped into
``goldens/paper.json`` by the last ``--update-goldens`` run, so the
document can never drift from what the pipeline actually measured. The
rendering is pure and byte-stable — a tier-1 test regenerates the file
from the committed goldens and asserts byte identity.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.validate.artifacts import ARTIFACTS
from repro.validate.goldens import REGEN_COMMAND
from repro.validate.render import (
    artifact_plot, artifact_tables, markdown_table,
)

_HEADER = """\
<!-- GENERATED FILE — do not edit by hand.
     Regenerate with `{regen}` (or `python -m repro report` to rebuild
     without re-stamping the goldens). -->
"""

_INTRO = """\
# Experiments: paper artifacts vs this reproduction

Every table and figure below is regenerated by the validation pipeline
(`python -m repro report`) from the same experiment code the benchmark
suite runs, and every **measured** cell comes from the goldens stamped
in `goldens/paper.json` — nothing in this file is typed in by hand.
Tables 4 and 5 reproduce the paper's cycle counts exactly by
construction of the cost model; the applications run scaled-down data
sets, so Table 6 and the figures reproduce the paper's *shapes and
orderings* (crossovers, bounds, ratios) rather than its absolute
runtimes. Tolerance-band semantics are documented in
[docs/VALIDATION.md](docs/VALIDATION.md); the code layers producing
these numbers are mapped in
[docs/ARCHITECTURE.md](docs/ARCHITECTURE.md).
"""

_REGEN = """\
## Regenerating this file

```
python -m repro report            # re-run everything, compare, rewrite
python -m repro report --check    # CI mode: non-zero exit on drift
{regen}   # re-stamp goldens (review the diff!)
```

`repro report` is the single supported entry point for regenerating
paper artifacts; the benchmark suite (`pytest benchmarks/
--benchmark-only`) measures the same quantities through the same specs
and asserts them against the same goldens.
"""


def _fmt_value(value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "holds" if value else "fails"
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, (list, tuple)):
        return " → ".join(str(v) for v in value)
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def _validation_rows(spec, entry: Dict[str, Any]) -> List[List[str]]:
    rows = []
    for quantity in spec.quantities:
        golden = entry["quantities"][quantity.name]["golden"]
        rows.append([
            f"`{quantity.name}`", quantity.kind, quantity.band(),
            _fmt_value(quantity.paper), _fmt_value(golden),
        ])
    return rows


def render_experiments_md(payload: Dict[str, Any]) -> str:
    """The full EXPERIMENTS.md text for a goldens payload."""
    provenance = payload["provenance"]
    parts: List[str] = [
        _HEADER.format(regen=REGEN_COMMAND),
        _INTRO,
        "## Provenance\n\n"
        f"- goldens stamped by: `{provenance['command']}`\n"
        f"- cost model version: {provenance['cost_model_version']}\n"
        f"- pipeline spec hash: `{provenance['spec_hash']}`\n"
        f"- stamped at git SHA: `{provenance['git_sha']}`\n",
    ]
    for artifact_id, spec in ARTIFACTS.items():
        entry = payload["artifacts"][artifact_id]
        section = [f"## {spec.title}\n"]
        section.append(f"*Source: `{spec.source}` — standalone view: "
                       f"`python -m repro {spec.command}`*\n")
        for title, headers, rows in artifact_tables(artifact_id,
                                                    entry["doc"]):
            section.append(f"**{title}**\n")
            section.append(markdown_table(headers, rows) + "\n")
        plot = artifact_plot(artifact_id, entry["doc"])
        if plot:
            section.append("```\n" + plot + "\n```\n")
        section.append("### Validation bands\n")
        section.append(markdown_table(
            ["quantity", "kind", "band", "paper", "golden"],
            _validation_rows(spec, entry)) + "\n")
        parts.append("\n".join(section))
    parts.append(_REGEN.format(regen=REGEN_COMMAND))
    return "\n".join(parts)


__all__ = ["render_experiments_md"]
