"""Parallel experiment runner with a persistent result cache.

Every evaluation artifact is built from independent simulation runs, so
this package turns "run the paper's sweeps" into a data-parallel
problem: describe each run as a picklable :class:`RunSpec`, fan specs
out over worker processes with :func:`run_specs`, memoize results on
disk with :class:`ResultCache`. :func:`bind_spec` builds a spec from
its executor's signature. See ``docs/SIMULATION.md`` ("Parallel
execution & caching") for the determinism contract and cache layout.
"""

from repro.runner.cache import DEFAULT_CACHE_DIR, PruneReport, ResultCache
from repro.runner.executor import (
    RunnerError, RunResult, default_jobs, fork_available,
    notice_serial_fallback, require_all, run_specs, trial_means,
)
from repro.runner.registry import (
    EXECUTORS, UnknownRunKind, bind_spec, execute_spec,
)
from repro.runner.spec import RunSpec, spec_key

__all__ = [
    "DEFAULT_CACHE_DIR", "EXECUTORS", "PruneReport", "ResultCache",
    "RunResult",
    "RunSpec", "RunnerError", "UnknownRunKind", "bind_spec", "default_jobs",
    "execute_spec", "fork_available", "notice_serial_fallback",
    "require_all", "run_specs", "spec_key", "trial_means",
]
