"""The golden-expectations store: ``goldens/paper.json``.

One committed JSON file holds, for every artifact in
:mod:`repro.validate.artifacts`, the measured *golden* value of each
quantity plus the artifact's doc payload, stamped with provenance
(regeneration command, ``COST_MODEL_VERSION``, git SHA, whole-pipeline
schema hash). ``repro report`` compares fresh measurements against
these goldens; ``repro report --update-goldens`` rewrites the file, so
an intentional recalibration is a reviewed one-line-per-quantity diff.

Serialization is canonical — ``json.dumps(..., sort_keys=True,
indent=2)`` plus a trailing newline — so a load/save round trip is
bit-stable and regenerating unchanged goldens produces a zero diff.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

from repro.validate.artifacts import (
    ARTIFACTS, ArtifactRun, ArtifactSpec, pipeline_schema_hash,
)

#: Format version of the goldens file itself (not the cost model).
GOLDEN_FORMAT_VERSION = 1

#: The one supported regeneration entry point (also shown by
#: ``repro --help`` and the EXPERIMENTS.md header).
REGEN_COMMAND = "python -m repro report --update-goldens"


def repo_root() -> Path:
    """The repository root (three levels above this package)."""
    return Path(__file__).resolve().parents[3]


def default_goldens_path() -> Path:
    return repo_root() / "goldens" / "paper.json"


def default_experiments_path() -> Path:
    return repo_root() / "EXPERIMENTS.md"


class GoldenError(ValueError):
    """The goldens file is missing, malformed or stale.

    Every message says what to do about it — usually "re-stamp with
    ``python -m repro report --update-goldens`` and review the diff".
    """


def _fail(path: Path, problem: str, *, hint: Optional[str] = None) -> None:
    hint = hint or f"re-stamp with `{REGEN_COMMAND}` and review the diff"
    raise GoldenError(f"goldens file {path}: {problem} — {hint}")


def git_sha() -> str:
    """Short git SHA of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_root(), capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def canonical_bytes(payload: Dict[str, Any]) -> bytes:
    """The one serialization of a goldens payload (bit-stable)."""
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode(
        "utf-8"
    )


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------
def build_goldens(runs: Dict[str, ArtifactRun],
                  base: Optional[Dict[str, Any]] = None,
                  command: str = REGEN_COMMAND) -> Dict[str, Any]:
    """Assemble a goldens payload from fresh artifact runs.

    ``base`` carries an existing payload forward, so stamping a subset
    (``--only table4``) keeps the other artifacts' goldens untouched.
    """
    from repro.core.costs import COST_MODEL_VERSION

    artifacts: Dict[str, Any] = {}
    if base:
        artifacts.update(base.get("artifacts", {}))
    for artifact_id, run in runs.items():
        spec = ARTIFACTS[artifact_id]
        quantities = {}
        for quantity in spec.quantities:
            if quantity.name not in run.values:
                raise GoldenError(
                    f"artifact {artifact_id!r} produced no value for "
                    f"quantity {quantity.name!r}; its fold and "
                    f"spec disagree"
                )
            quantities[quantity.name] = {
                "kind": quantity.kind,
                "paper": quantity.paper,
                "tolerance": quantity.tolerance,
                "golden": run.values[quantity.name],
            }
        artifacts[artifact_id] = {
            "schema": spec.schema_hash(),
            "quantities": quantities,
            "doc": run.doc,
        }
    return {
        "format": GOLDEN_FORMAT_VERSION,
        "provenance": {
            "command": command,
            "cost_model_version": COST_MODEL_VERSION,
            "git_sha": git_sha(),
            "spec_hash": pipeline_schema_hash(),
        },
        "artifacts": artifacts,
    }


def save_goldens(payload: Dict[str, Any], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(canonical_bytes(payload))


# ----------------------------------------------------------------------
# Loading + validation
# ----------------------------------------------------------------------
def load_goldens(path: Path) -> Dict[str, Any]:
    """Load and structurally validate a goldens file."""
    from repro.core.costs import COST_MODEL_VERSION

    if not path.exists():
        _fail(path, "does not exist",
              hint=f"generate it with `{REGEN_COMMAND}`")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        _fail(path, f"is not valid JSON ({exc})")
    if not isinstance(payload, dict):
        _fail(path, "top level is not an object")
    fmt = payload.get("format")
    if fmt != GOLDEN_FORMAT_VERSION:
        _fail(path, f"format version {fmt!r} != supported "
                    f"{GOLDEN_FORMAT_VERSION}")
    provenance = payload.get("provenance")
    if not isinstance(provenance, dict):
        _fail(path, "missing provenance block")
    stamped = provenance.get("cost_model_version")
    if stamped != COST_MODEL_VERSION:
        _fail(path, f"stamped for COST_MODEL_VERSION={stamped!r} but "
                    f"the tree is at {COST_MODEL_VERSION}; the goldens "
                    f"predate a cost-model change")
    if not isinstance(payload.get("artifacts"), dict):
        _fail(path, "missing artifacts map")
    return payload


def golden_artifact(payload: Dict[str, Any], spec: ArtifactSpec,
                    path: Path) -> Dict[str, Any]:
    """One artifact's golden entry, validated against its spec."""
    entry = payload["artifacts"].get(spec.id)
    if entry is None:
        _fail(path, f"has no entry for artifact {spec.id!r}")
    if entry.get("schema") != spec.schema_hash():
        _fail(path, f"artifact {spec.id!r} was stamped for schema "
                    f"{entry.get('schema')!r} but the spec now hashes "
                    f"to {spec.schema_hash()!r}; quantity definitions "
                    f"changed since stamping")
    quantities = entry.get("quantities")
    if not isinstance(quantities, dict):
        _fail(path, f"artifact {spec.id!r} has no quantities map")
    expected = {q.name for q in spec.quantities}
    actual = set(quantities)
    if expected != actual:
        missing = sorted(expected - actual)
        extra = sorted(actual - expected)
        _fail(path, f"artifact {spec.id!r} quantity set mismatch "
                    f"(missing {missing}, unexpected {extra})")
    return entry


def golden_values(entry: Dict[str, Any]) -> Dict[str, Any]:
    """quantity name -> stamped golden value."""
    return {name: q["golden"] for name, q in entry["quantities"].items()}


def artifact_ids(payload: Dict[str, Any]) -> Iterable[str]:
    return payload["artifacts"].keys()


__all__ = [
    "GOLDEN_FORMAT_VERSION", "REGEN_COMMAND", "GoldenError",
    "artifact_ids", "build_goldens", "canonical_bytes",
    "default_experiments_path", "default_goldens_path", "git_sha",
    "golden_artifact", "golden_values", "load_goldens", "repo_root",
    "save_goldens",
]
