"""The parallel run executor.

:func:`run_specs` is the single entry point every sweep and benchmark
routes through: it takes a list of :class:`~repro.runner.spec.RunSpec`,
satisfies what it can from the persistent cache, fans the misses out
over a ``ProcessPoolExecutor`` and returns :class:`RunResult` objects
*in spec order*.

Guarantees:

* **Determinism** — a run's metrics depend only on its spec, so the
  executor is free to run specs in any order, in any process; results
  are re-sorted to submission order before returning.
* **Fault isolation** — an exception inside one run is captured (with
  traceback) on its ``RunResult`` instead of killing the sweep.
* **Graceful degradation** — ``jobs=1``, a platform without ``fork``,
  or (in the default ``mode="auto"``) a miss count too small to
  amortize process dispatch all take a plain serial path with identical
  semantics.

Two-case dispatch: process fan-out is the *uncommon* case and only
engages when it can pay for itself — effective workers > 1 (capped by
the CPU count) and at least two cache misses per worker. Misses are
then batched into per-worker chunks (one pickle + submit per worker,
not per spec) and the simulation modules are imported in the parent
before forking, so workers are born warm. ``mode="serial"`` /
``mode="parallel"`` force either path (benchmarks measure both), and
the optional ``info`` dict reports what was chosen and what dispatch
cost.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import RunMetrics, mean
from repro.runner.cache import ResultCache
from repro.runner.registry import execute_spec
from repro.runner.spec import RunSpec


class RunnerError(RuntimeError):
    """A run failed and the caller required its result."""


@dataclass
class RunResult:
    """Outcome of one spec: metrics + extras, or a captured error."""

    spec: RunSpec
    metrics: Optional[RunMetrics] = None
    extra: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    def require(self) -> RunMetrics:
        """Metrics, or raise :class:`RunnerError` with the run's error."""
        if self.error is not None:
            raise RunnerError(
                f"run {self.spec.describe()} failed:\n{self.error}"
            )
        assert self.metrics is not None
        return self.metrics


def _execute_payload(spec: RunSpec) -> Dict[str, Any]:
    """Worker body: run one spec, return a picklable payload."""
    try:
        metrics, extra = execute_spec(spec)
    except Exception:
        return {"error": traceback.format_exc()}
    return {"metrics": metrics, "extra": extra}


def _execute_batch(specs: Sequence[RunSpec]) -> List[Dict[str, Any]]:
    """Worker body for one per-worker chunk: errors stay per-spec."""
    return [_execute_payload(spec) for spec in specs]


#: Modules a run always needs; imported in the parent before forking
#: (children inherit them) and re-imported by the pool initializer
#: (a no-op when already warm, a real warm-up under spawn).
_WARM_MODULES = (
    "repro.machine.machine",
    "repro.glaze.kernel",
    "repro.network.fabric",
    "repro.ni.interface",
    "repro.runner.registry",
    "repro.analysis.metrics",
)


def _warm_import() -> None:
    for name in _WARM_MODULES:
        importlib.import_module(name)


def _payload_to_result(spec: RunSpec, payload: Dict[str, Any]) -> RunResult:
    if "error" in payload:
        return RunResult(spec=spec, error=payload["error"])
    return RunResult(spec=spec, metrics=payload["metrics"],
                     extra=payload["extra"])


def default_jobs() -> int:
    """Worker count when ``jobs`` is unspecified: one per CPU."""
    return os.cpu_count() or 1


def fork_available() -> bool:
    """True when this platform supports the ``fork`` start method.

    The single source of truth for every layer that fans out over
    processes (the spec executor here, and the shard coordinator in
    :mod:`repro.shard`); platforms without ``fork`` degrade to serial
    execution with a one-line notice instead of silence.
    """
    return "fork" in multiprocessing.get_all_start_methods()


def notice_serial_fallback(what: str) -> None:
    """Print the one-line degraded-to-serial notice on stderr."""
    print(f"repro: {what}: 'fork' start method unavailable on this "
          "platform; falling back to single-process execution",
          file=sys.stderr)


def run_specs(specs: Sequence[RunSpec],
              jobs: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              mode: str = "auto",
              info: Optional[Dict[str, Any]] = None,
              ) -> List[RunResult]:
    """Execute ``specs`` and return results in the same order.

    ``jobs=None`` uses :func:`default_jobs`. When a ``cache`` is given,
    hits skip execution entirely and fresh results are stored back.

    ``mode`` selects the dispatch case:

    * ``"auto"`` (default) — parallel only when it can pay for itself:
      effective workers (``jobs`` capped by the CPU count) above one
      *and* at least two cache misses per worker; otherwise serial.
    * ``"serial"`` / ``"parallel"`` — force that path (``"parallel"``
      still degrades to serial when ``fork`` is unavailable or nothing
      misses the cache).

    When ``info`` is a dict it receives the decision record: ``mode``
    (the path actually taken), ``mode_reason``, ``requested_jobs``,
    ``effective_jobs``, ``workers``, ``cache_hits``, ``misses`` and
    ``dispatch_seconds`` (pool spin-up + batch submission wall time).
    """
    if mode not in ("auto", "serial", "parallel"):
        raise ValueError(f"unknown run_specs mode: {mode!r}")
    results: List[Optional[RunResult]] = [None] * len(specs)
    todo: List[int] = []

    for index, spec in enumerate(specs):
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            metrics, extra = hit
            results[index] = RunResult(spec=spec, metrics=metrics,
                                       extra=extra, cached=True)
        else:
            todo.append(index)

    if jobs is None:
        jobs = default_jobs()
    effective = max(1, min(jobs, os.cpu_count() or 1))
    if not fork_available():
        parallel, reason = False, "fork unavailable"
        if mode != "serial" and len(todo) > 1:
            notice_serial_fallback("run_specs")
    elif not todo:
        parallel, reason = False, "all cached"
    elif mode == "serial":
        parallel, reason = False, "forced serial"
    elif mode == "parallel":
        parallel, reason = len(todo) > 1, (
            "forced parallel" if len(todo) > 1 else "single miss"
        )
    elif effective <= 1:
        parallel, reason = False, "effective jobs == 1"
    elif len(todo) < 2 * effective:
        parallel, reason = False, (
            f"misses ({len(todo)}) < 2x effective jobs ({effective})"
        )
    else:
        parallel, reason = True, "misses amortize dispatch"

    # Forced-parallel keeps the requested worker count (benchmarks
    # measure oversubscription on purpose); auto caps at the CPU count.
    worker_budget = jobs if mode == "parallel" else effective
    workers = min(worker_budget, len(todo)) if parallel else 0
    dispatch_seconds = 0.0

    def finish(index: int, payload: Dict[str, Any]) -> None:
        result = _payload_to_result(specs[index], payload)
        if cache is not None and result.ok:
            cache.put(result.spec, result.metrics, result.extra)
        results[index] = result

    if parallel:
        # One interleaved chunk per worker: a single pickle + submit
        # each, and adjacent (often similar-cost) specs spread across
        # workers instead of landing on the same one.
        chunks = [todo[i::workers] for i in range(workers)]
        _warm_import()  # fork inherits warm modules from the parent
        context = multiprocessing.get_context("fork")
        started = time.perf_counter()
        with ProcessPoolExecutor(max_workers=workers, mp_context=context,
                                 initializer=_warm_import) as pool:
            futures = {
                pool.submit(_execute_batch,
                            [specs[index] for index in chunk]): chunk
                for chunk in chunks
            }
            dispatch_seconds = time.perf_counter() - started
            for future in as_completed(futures):
                chunk = futures[future]
                for index, payload in zip(chunk, future.result()):
                    finish(index, payload)
    else:
        for index in todo:
            finish(index, _execute_payload(specs[index]))

    if info is not None:
        info.update(
            mode="parallel" if parallel else "serial",
            mode_reason=reason,
            requested_jobs=jobs,
            effective_jobs=effective,
            workers=workers,
            cache_hits=len(specs) - len(todo),
            misses=len(todo),
            dispatch_seconds=dispatch_seconds,
        )
    return results  # type: ignore[return-value]


def require_all(results: Sequence[RunResult]) -> List[RunMetrics]:
    """Metrics of every result, raising on the first failure."""
    return [result.require() for result in results]


def _point(spec: RunSpec) -> RunSpec:
    return RunSpec(spec.kind, tuple(p for p in spec.params
                                    if p[0] != "seed"))


def trial_means(results: Sequence[RunResult],
                ) -> List[Tuple[RunSpec, RunMetrics]]:
    """Average the trials of each point: ``(spec, mean metrics)`` pairs.

    A point is a run of consecutive results whose specs differ only in
    ``seed`` (the trials of one configuration; a repeated spec starts
    the next point); its spec is that of its first trial. A failed
    trial raises its :class:`RunnerError`.
    """
    groups: List[List[RunResult]] = []
    for result in results:
        group = groups[-1] if groups else []
        if (not group or _point(result.spec) != _point(group[0].spec)
                or any(trial.spec == result.spec for trial in group)):
            groups.append([result])
        else:
            group.append(result)
    return [(trials[0].spec, mean(require_all(trials)))
            for trials in groups]


__all__ = [
    "RunResult", "RunnerError", "run_specs", "require_all",
    "trial_means", "default_jobs", "fork_available",
    "notice_serial_fallback",
]
