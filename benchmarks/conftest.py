"""Shared state for the benchmark harness.

The benchmarks and ``repro report`` measure the same artifacts through
the same registry (:mod:`repro.validate.artifacts`): each ``test_*``
file folds its artifact via the shared session
:class:`~repro.validate.ReportContext`, which first runs the
artifact's planned runs it has not fetched yet, and asserts every
quantity against the committed ``goldens/paper.json`` instead of
ad-hoc constants — so drift trips the suite and ``repro report
--check`` identically.

Figures 7 and 8 are two folds of the *same* runs; the context keeps
every fetched result, so both benchmarks fold one execution. Runs fan
out over worker processes (``REPRO_BENCH_JOBS`` overrides the worker
count) and land in the persistent on-disk result cache
(``.repro_cache/``, override with ``REPRO_CACHE_DIR``), so a repeated
benchmark invocation replays memoized metrics instead of
re-simulating. Set ``REPRO_BENCH_NO_CACHE=1`` to force fresh runs.
"""

from __future__ import annotations

import os

from repro.runner import ResultCache
from repro.validate import (
    ARTIFACTS, ReportContext, compare_artifact, default_goldens_path,
    golden_artifact, golden_values, load_goldens,
)

_session = {}


def _bench_jobs():
    jobs = os.environ.get("REPRO_BENCH_JOBS")
    return int(jobs) if jobs else None


def bench_cache():
    """The persistent runner cache the benchmarks share (or None)."""
    if os.environ.get("REPRO_BENCH_NO_CACHE"):
        return None
    return ResultCache()


def bench_context() -> ReportContext:
    """The session's shared artifact-producing context."""
    if "ctx" not in _session:
        _session["ctx"] = ReportContext(jobs=_bench_jobs(),
                                        cache=bench_cache())
    return _session["ctx"]


def produce(artifact_id: str):
    """Fold one artifact through the session context."""
    return bench_context().produce(artifact_id)


def assert_matches_goldens(run) -> None:
    """Assert every quantity of ``run`` sits within its golden band."""
    path = default_goldens_path()
    spec = ARTIFACTS[run.artifact]
    payload = load_goldens(path)
    entry = golden_artifact(payload, spec, path)
    results = compare_artifact(spec, golden_values(entry), run)
    drifted = [r.describe() for r in results if not r.ok]
    assert not drifted, (
        f"{run.artifact}: {len(drifted)} quantities drifted out of "
        "tolerance (if intentional, re-stamp with `python -m repro "
        "report --update-goldens`):\n" + "\n".join(drifted)
    )
