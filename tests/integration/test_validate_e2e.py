"""End-to-end acceptance tests for the validation pipeline.

The contract under test:

* ``repro report --check`` exits 0 on an unmodified tree against the
  committed goldens, and exits non-zero when a Table 4 cycle cost is
  perturbed by an injected cost-model delta;
* ``--update-goldens`` is bit-stable (stamping twice writes identical
  bytes) and emits the full report bundle;
* the committed EXPERIMENTS.md is byte-identical to the pipeline's
  regenerated output.

The fast microbenchmark artifacts (table4/table5, ~1 s) exercise the
whole flow; the sweep artifacts are covered by the benchmark suite and
the CI validate job.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cli import main
from repro.core import costs
from repro.core.costs import AtomicityMode
from repro.validate import (
    default_experiments_path, default_goldens_path,
    regenerate_experiments_text, run_report,
)


def _quiet(_msg: str) -> None:
    pass


@pytest.fixture(scope="module")
def stamped(tmp_path_factory):
    """A goldens file + bundle stamped from a fresh table4/5 run."""
    root = tmp_path_factory.mktemp("validate_e2e")
    paths = {
        "goldens": root / "goldens.json",
        "out": root / "report",
        "experiments": root / "EXPERIMENTS.md",
    }
    code = run_report(only=["table4", "table5"],
                      goldens_path=paths["goldens"],
                      out_dir=paths["out"],
                      experiments_path=paths["experiments"],
                      update=True, echo=_quiet)
    assert code == 0
    return paths


def test_check_passes_against_fresh_goldens(stamped):
    code = run_report(only=["table4", "table5"],
                      goldens_path=stamped["goldens"],
                      out_dir=stamped["out"],
                      experiments_path=stamped["experiments"],
                      check=True, echo=_quiet)
    assert code == 0


def test_update_goldens_round_trip_is_bit_stable(stamped, tmp_path):
    first = stamped["goldens"].read_bytes()
    code = run_report(only=["table4", "table5"],
                      goldens_path=stamped["goldens"],
                      out_dir=tmp_path / "report2",
                      experiments_path=tmp_path / "EXPERIMENTS.md",
                      update=True, echo=_quiet)
    assert code == 0
    assert stamped["goldens"].read_bytes() == first


def test_bundle_files_exist(stamped):
    out = stamped["out"]
    for name in ("table4.md", "table4.csv", "table4.json",
                 "table5.md", "table5.csv", "table5.json",
                 "summary.md", "summary.json", "validation.jsonl"):
        assert (out / name).exists(), name
    summary = (out / "summary.md").read_text(encoding="utf-8")
    assert "verdict: OK" in summary
    jsonl = (out / "validation.jsonl").read_text(encoding="utf-8")
    assert jsonl.count("\n") == 1 + 14  # meta + one line per check


def test_injected_cost_delta_fails_check(stamped, monkeypatch,
                                         tmp_path):
    """The acceptance perturbation: +1 cycle on the hard-mode dispatch
    moves the Table 4 receive total from 87 to 88 and must trip
    ``--check`` with a non-zero exit."""
    hard = costs._FAST_PATH[AtomicityMode.HARD]
    monkeypatch.setitem(costs._FAST_PATH, AtomicityMode.HARD,
                        replace(hard, dispatch=hard.dispatch + 1))
    lines = []
    code = run_report(only=["table4"],
                      goldens_path=stamped["goldens"],
                      out_dir=tmp_path / "report",
                      experiments_path=tmp_path / "EXPERIMENTS.md",
                      check=True, echo=lines.append)
    assert code == 1
    text = "\n".join(lines)
    assert "DRIFT" in text
    assert "recv_interrupt_hard" in text
    # Without --check the drift is reported but does not gate.
    code = run_report(only=["table4"],
                      goldens_path=stamped["goldens"],
                      out_dir=tmp_path / "report_nocheck",
                      experiments_path=tmp_path / "EXPERIMENTS.md",
                      check=False, echo=_quiet)
    assert code == 0


def test_update_refuses_on_failed_predicate(monkeypatch, tmp_path):
    """A qualitative claim that stopped holding cannot be stamped in."""
    from repro.validate import ARTIFACTS, Quantity
    from repro.validate.artifacts import ArtifactRun

    spec = ARTIFACTS["table4"]
    real = spec.fold

    def broken(results) -> ArtifactRun:
        run = real(results)
        return ArtifactRun(artifact=run.artifact,
                           values={**run.values,
                                   "fast_path_holds": False},
                           doc=run.doc)

    monkeypatch.setitem(
        ARTIFACTS, "table4",
        replace(spec, fold=broken,
                quantities=spec.quantities
                + (Quantity("fast_path_holds", "predicate"),)))
    lines = []
    code = run_report(only=["table4"],
                      goldens_path=tmp_path / "goldens.json",
                      out_dir=tmp_path / "report",
                      experiments_path=tmp_path / "EXPERIMENTS.md",
                      update=True, echo=lines.append)
    assert code == 1
    assert any("fast_path_holds" in line for line in lines)
    assert not (tmp_path / "goldens.json").exists()


def test_missing_goldens_is_actionable(tmp_path):
    lines = []
    code = run_report(only=["table4"],
                      goldens_path=tmp_path / "missing.json",
                      out_dir=tmp_path / "report",
                      experiments_path=tmp_path / "EXPERIMENTS.md",
                      check=True, echo=lines.append)
    assert code == 2
    assert any("--update-goldens" in line for line in lines)


def test_cli_report_subcommand(stamped, tmp_path, capsys):
    code = main(["report", "--check", "--only", "table4", "table5",
                 "--goldens", str(stamped["goldens"]),
                 "--out", str(tmp_path / "report"),
                 "--experiments", str(tmp_path / "EXPERIMENTS.md")])
    assert code == 0
    out = capsys.readouterr().out
    assert "OK" in out


def test_cli_unknown_artifact_is_actionable(stamped, tmp_path, capsys):
    code = main(["report", "--only", "table99",
                 "--goldens", str(stamped["goldens"]),
                 "--out", str(tmp_path / "report"),
                 "--experiments", str(tmp_path / "EXPERIMENTS.md")])
    assert code == 2
    assert "table99" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The committed tree
# ----------------------------------------------------------------------
def test_committed_experiments_md_matches_pipeline_output():
    """EXPERIMENTS.md is generated: its bytes must equal a regeneration
    from the committed goldens (the acceptance byte-identity gate)."""
    committed = default_experiments_path().read_text(encoding="utf-8")
    assert committed == regenerate_experiments_text()


def test_committed_goldens_are_canonical():
    """A load/save round trip of the committed goldens is a no-op."""
    from repro.validate import canonical_bytes, load_goldens

    path = default_goldens_path()
    assert canonical_bytes(load_goldens(path)) == path.read_bytes()


def test_committed_goldens_cover_every_artifact():
    from repro.validate import ARTIFACT_IDS, load_goldens

    payload = load_goldens(default_goldens_path())
    assert set(payload["artifacts"]) == set(ARTIFACT_IDS)


def test_fresh_table4_run_matches_committed_goldens(tmp_path):
    """The acceptance 'exit zero on an unmodified tree' gate, on the
    fast artifacts (the full set runs in CI's validate job)."""
    code = run_report(only=["table4", "table5"],
                      goldens_path=default_goldens_path(),
                      out_dir=tmp_path / "report",
                      experiments_path=tmp_path / "EXPERIMENTS.md",
                      check=True, echo=_quiet)
    assert code == 0
