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
from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import RunMetrics, collect_metrics
from repro.apps.null_app import NullApplication
from repro.experiments.config import SimulationConfig
from repro.experiments.workloads import WORKLOAD_NAMES, make_workload
from repro.machine.machine import Machine
from repro.runner import RunResult, RunSpec, trial_means

#: The skew sweep: worst pairwise clock offset as a fraction of the
#: timeslice ("decreasing schedule quality" along the x axis).
DEFAULT_SKEWS = (0.0, 0.01, 0.02, 0.05, 0.10, 0.20)


def execute_multiprog(name: str, skew: float, seed: int = 1,
                      num_nodes: int = 8, scale: str = "bench",
                      timeslice: int = 500_000, faults: str = "",
                      obs: bool = False, obs_interval: int = 100_000):
    """Runner executor for one multiprogrammed run (kind ``multiprog``).

    With ``obs`` the run carries a :class:`~repro.obs.Observatory`
    whose cache-safe payload rides back in ``extra["obs"]``;
    observation never perturbs the metrics.
    """
    metrics, observatory = _run(name, skew, seed=seed,
                                num_nodes=num_nodes, scale=scale,
                                timeslice=timeslice, faults=faults,
                                obs_interval=obs_interval if obs else None)
    extra = {}
    if observatory is not None:
        extra["obs"] = observatory.payload()
    return metrics, extra


def multiprog_spec(name: str, skew: float, seed: int = 1,
                   num_nodes: int = 8, scale: str = "bench",
                   timeslice: int = 500_000,
                   faults: str = "", obs: bool = False,
                   obs_interval: int = 100_000) -> RunSpec:
    """The :class:`RunSpec` describing one multiprogrammed run.

    The ``faults`` plan string (and likewise the ``obs`` flags) joins
    the spec — and thus the cache key — only when set, so plain runs
    keep their historical keys while any variant hashes separately.
    """
    params = dict(name=name, skew=skew, seed=seed, num_nodes=num_nodes,
                  scale=scale, timeslice=timeslice)
    if faults:
        params["faults"] = faults
    if obs:
        params["obs"] = True
        params["obs_interval"] = int(obs_interval)
    return RunSpec.make("multiprog", **params)


def _run(name: str, skew: float, seed: int, num_nodes: int, scale: str,
         timeslice: int, faults: str,
         obs_interval: Optional[int] = None):
    """Build, run and measure one multiprogrammed machine."""
    config = SimulationConfig(num_nodes=num_nodes, seed=seed,
                              skew_fraction=skew, timeslice=timeslice
                              ).with_faults(faults or None)
    machine = Machine(config)
    app = make_workload(name, seed=seed, num_nodes=num_nodes, scale=scale)
    job = machine.add_job(app)
    machine.add_job(NullApplication())
    observatory = None
    if obs_interval is not None:
        observatory = machine.enable_observability(obs_interval)
    machine.start()
    machine.run_until_job_done(job, limit=50_000_000_000)
    metrics = collect_metrics(machine, job)
    if observatory is not None:
        observatory.finalize()
    return metrics, observatory


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
                     trials: int = 3, num_nodes: int = 8,
                     scale: str = "bench",
                     names: Sequence[str] = tuple(WORKLOAD_NAMES),
                     timeslice: int = 500_000,
                     faults: str = "") -> List[RunSpec]:
    """The Figures 7/8 data set's runs: every workload across the
    sweep, workload-major, trial-major within each skew."""
    return [
        multiprog_spec(name, skew, seed=seed + 1, num_nodes=num_nodes,
                       scale=scale, timeslice=timeslice, faults=faults)
        for name in names
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
