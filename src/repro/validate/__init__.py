"""Golden-number validation: the machine-checked paper-fidelity gate.

Every paper artifact (Tables 4–6, Figures 7–10, the design ablations)
is described once as an :class:`~repro.validate.artifacts.ArtifactSpec`
— its planned runs, its fold, its quantities, and each quantity's
tolerance band.
``repro report`` regenerates them all through :mod:`repro.runner`,
compares against the committed ``goldens/paper.json``, emits a report
bundle (Markdown/CSV/JSON + ASCII plots) and re-renders EXPERIMENTS.md;
``repro report --check`` turns drift into a non-zero exit for CI. See
``docs/VALIDATION.md``.
"""

from repro.validate.artifacts import (
    APP_ORDER, ARTIFACT_IDS, ARTIFACTS, ArtifactRun, ArtifactSpec,
    ReportContext, pipeline_schema_hash,
)
from repro.validate.goldens import (
    GOLDEN_FORMAT_VERSION, REGEN_COMMAND, GoldenError, build_goldens,
    canonical_bytes, default_experiments_path, default_goldens_path,
    golden_artifact, golden_values, load_goldens, save_goldens,
)
from repro.validate.quantity import (
    KINDS, CheckResult, Quantity, QuantityError,
)
from repro.validate.report import (
    ArtifactReport, compare_artifact, regenerate_experiments_text,
    run_report,
)

__all__ = [
    "APP_ORDER", "ARTIFACTS", "ARTIFACT_IDS", "ArtifactReport",
    "ArtifactRun", "ArtifactSpec", "CheckResult",
    "GOLDEN_FORMAT_VERSION", "GoldenError", "KINDS", "Quantity",
    "QuantityError", "REGEN_COMMAND", "ReportContext", "build_goldens",
    "canonical_bytes", "compare_artifact", "default_experiments_path",
    "default_goldens_path", "golden_artifact", "golden_values",
    "load_goldens", "pipeline_schema_hash",
    "regenerate_experiments_text", "run_report", "save_goldens",
]
