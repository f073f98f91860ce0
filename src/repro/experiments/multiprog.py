"""Figures 7 and 8: applications multiprogrammed against a null
application across schedule skews.

Reproduces the Section 5.1 methodology: each application is
gang-scheduled against "null" with a 500,000-cycle timeslice; schedule
quality degrades via per-node clock skew; measured quantities are the
fraction of messages taking the buffered path (Figure 7), the runtime
relative to the zero-skew multiprogrammed run (Figure 8), and the
maximum physical buffer pages on any node (the "less than seven
pages/node" result). Numbers average over ``trials`` seeds, as the
paper averages three trials.

All sweeps route through :mod:`repro.runner`: each (workload, skew,
seed) run is an independent :class:`~repro.runner.RunSpec`
(:func:`full_sweep_specs` plans them), so a full sweep fans out over
worker processes and memoizes per-run results in the persistent cache;
:func:`full_sweep_fold` averages the results back into one
:class:`SkewSweepResult` per workload. Determinism is per-run, not
per-schedule, so the fold is the same at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.metrics import RunMetrics
from repro.apps.null_app import NullApplication
from repro.experiments.config import SimulationConfig
from repro.experiments.workloads import (
    WORKLOAD_NAMES, make_workload, run_jobs,
)
from repro.faults.plan import require_lossless
from repro.runner import RunResult, RunSpec, bind_spec, trial_means

#: The skew sweep: worst pairwise clock offset as a fraction of the
#: timeslice ("decreasing schedule quality" along the x axis).
DEFAULT_SKEWS = (0.0, 0.01, 0.02, 0.05, 0.10, 0.20)


def execute_multiprog(name: str, skew: float, seed: int = 1,
                      num_nodes: int = 8, scale: str = "bench",
                      timeslice: int = 500_000, *, faults: str = "",
                      obs_interval: int = 0):
    """Runner executor for one multiprogrammed run (kind
    ``multiprog``); ``obs_interval`` as for
    :func:`~repro.experiments.workloads.run_jobs`."""
    config = SimulationConfig(num_nodes=num_nodes, seed=seed,
                              skew_fraction=skew, timeslice=timeslice
                              ).with_faults(faults or None)
    app = make_workload(name, seed=seed, num_nodes=num_nodes, scale=scale)
    return run_jobs(config, [app, NullApplication()], 50_000_000_000,
                    obs_interval)[:2]


@dataclass
class SkewSweepResult:
    """One workload across the skew sweep (averaged over trials).

    Precondition for :attr:`relative_runtime`: runtimes are normalized
    to the zero-skew run, so ``skews`` should include ``0.0`` (the
    paper's Figure 8 baseline). If no zero-skew point exists the first
    point is used as the baseline and the ratios are relative to it.
    """

    name: str
    skews: List[float]
    metrics: List[RunMetrics]

    @property
    def buffered_percent(self) -> List[float]:
        return [m.buffered_fraction * 100 for m in self.metrics]

    @property
    def relative_runtime(self) -> List[float]:
        if not self.metrics:
            return []
        try:
            baseline_index = self.skews.index(0.0)
        except ValueError:
            baseline_index = 0  # no zero-skew run; normalize to first
        base = self.metrics[baseline_index].elapsed_cycles
        if base == 0:
            return [1.0 for _ in self.metrics]
        return [m.elapsed_cycles / base for m in self.metrics]

    @property
    def max_pages(self) -> List[int]:
        return [m.max_buffer_pages for m in self.metrics]


def full_sweep_specs(skews: Sequence[float] = DEFAULT_SKEWS,
                     trials: int = 3, scale: str = "bench",
                     faults: str = "") -> List[RunSpec]:
    """The Figures 7/8 data set's runs: every workload across the
    sweep, workload-major, trial-major within each skew (``faults``
    must be lossless, see :func:`~repro.faults.plan.require_lossless`).
    """
    require_lossless(faults)
    return [
        bind_spec("multiprog", name=name, skew=skew, seed=seed + 1,
                  scale=scale, faults=faults)
        for name in WORKLOAD_NAMES
        for skew in skews
        for seed in range(trials)
    ]


def full_sweep_fold(results: Sequence[RunResult],
                    ) -> Dict[str, SkewSweepResult]:
    """One :class:`SkewSweepResult` per workload, in run order, from
    :func:`full_sweep_specs`' results averaged over trials (see
    :func:`~repro.runner.trial_means`)."""
    sweeps: Dict[str, SkewSweepResult] = {}
    for spec, metrics in trial_means(results):
        sweep = sweeps.setdefault(spec["name"], SkewSweepResult(
            name=spec["name"], skews=[], metrics=[]))
        sweep.skews.append(spec["skew"])
        sweep.metrics.append(metrics)
    return sweeps
