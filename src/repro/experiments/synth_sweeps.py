"""Figures 9 and 10: the synth-N sweeps (Section 5.2).

Figure 9: percentage of messages buffered versus the mean send interval
T_betw, for synth-10, synth-100 and synth-1000, at a constant small
(1%) scheduler skew — "sufficient to force the application to enter
buffered mode periodically".

Figure 10: percentage buffered versus the *cost of the buffered path*,
with T_betw held at 275 cycles — demonstrating that buffering feeds
back on itself once the buffered path is slower than the send rate.

Both sweeps route through :mod:`repro.runner` (one
:class:`~repro.runner.RunSpec` per (group size, x value, trial) run,
planned by :func:`interval_specs` and :func:`buffer_cost_specs`), so
they parallelize and memoize like the Figure 7/8 sweeps;
:func:`interval_fold` and :func:`buffer_cost_fold` average the results
back into one curve per group size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import RunMetrics
from repro.apps.null_app import NullApplication
from repro.apps.synth import SynthApplication
from repro.experiments.config import SimulationConfig
from repro.experiments.workloads import run_jobs
from repro.runner import RunResult, RunSpec, bind_spec, trial_means

#: Group sizes from the paper.
GROUP_SIZES = (10, 100, 1000)
#: Figure 9's x axis: mean cycles between sends.
DEFAULT_INTERVALS = (50, 100, 150, 200, 275, 350, 500, 700, 1000)
#: Figure 10's x axis: total buffered-path cost per message (the paper's
#: baseline is 232 cycles; the sweep adds artificial insert latency).
DEFAULT_BUFFER_COSTS = (232, 350, 500, 700, 1000, 1500, 2500)
BASELINE_COST = DEFAULT_BUFFER_COSTS[0]
#: The paper's fixed parameters.
T_HAND = 290
FIG10_T_BETW = 275
SYNTH_NODES = 4
SYNTH_SKEW = 0.01


def execute_synth(group_size: int, t_betw: int, seed: int = 1,
                  buffer_cost_extra: int = 0,
                  messages_per_node: int = 2000,
                  timeslice: int = 500_000, *,
                  delivery: str = "twocase",
                  shards: int = 1, locality_groups: int = 0,
                  num_nodes: int = SYNTH_NODES,
                  net_base_latency: int = 10,
                  fabric_credits: int = 16,
                  info: Optional[dict] = None,
                  ) -> Tuple[RunMetrics, Dict[str, Any]]:
    """Runner executor for one synth-N run (kind ``synth``):
    multiprogrammed against null at 1% skew.

    ``shards > 1`` routes through :func:`repro.shard.run_sharded`
    (bit-identical metrics or an automatic serial fallback) and returns
    its deterministic shard counters in ``extra``. ``shards`` changes
    only *how* the run is executed, but it still joins the spec,
    keeping cache entries honest about provenance. ``locality_groups``
    confines synth traffic to contiguous node groups.
    ``net_base_latency`` scales the fabric's base hop cost: WAN-scale
    values give the windowed protocol enough lookahead to amortize its
    barriers on all-to-all traffic. ``fabric_credits`` deepens the
    per-destination credit pool: WAN latencies keep many messages in
    flight per destination, and the stock pool of 16 both blocks
    senders and trips the sharded credit-occupancy sweep. ``info``
    receives the wall-clock shard timings (benchmarks only; never
    cached).
    """
    config = SimulationConfig(
        num_nodes=num_nodes, seed=seed, skew_fraction=SYNTH_SKEW,
        timeslice=timeslice, buffer_insert_extra=buffer_cost_extra,
        delivery=delivery, shards=shards,
        net_base_latency=net_base_latency,
        fabric_credits=fabric_credits,
    )
    app = SynthApplication(
        group_size=group_size, t_betw=t_betw, t_hand=T_HAND,
        total_messages_per_node=messages_per_node,
        num_nodes=num_nodes, seed=seed,
        locality_groups=locality_groups,
    )
    apps = [app, NullApplication()]
    limit = 50_000_000_000
    if shards > 1:
        from repro.shard import run_sharded

        return run_sharded(config, apps, measured_index=0, limit=limit,
                           info=info)
    return run_jobs(config, apps, limit)[:2]


def run_synth(*args, extra_out: Optional[dict] = None,
              **params) -> RunMetrics:
    """:func:`execute_synth`'s metrics alone, its ``extra`` copied into
    ``extra_out`` (for callers outside the runner)."""
    metrics, extra = execute_synth(*args, **params)
    if extra_out is not None:
        extra_out.update(extra)
    return metrics


@dataclass
class SynthSweepResult:
    """Buffered percentage per x value, per group size."""

    xs: List[int]
    series: Dict[int, List[float]]  # group size -> buffered %


def _grid_specs(xs: Sequence[int], group_sizes: Sequence[int],
                trials: int, spec_for) -> List[RunSpec]:
    """A (group, x, trial) grid of specs, in the order
    :func:`_fold_grid` regroups."""
    return [
        spec_for(group, x, seed + 1)
        for group in group_sizes
        for x in xs
        for seed in range(trials)
    ]


def _fold_grid(results: Sequence[RunResult], x_of) -> SynthSweepResult:
    """Fold a :func:`_grid_specs` result list to buffered % per group,
    averaged over trials; ``x_of(spec)`` is the point's x value, read
    from the first group's points so that ``xs`` is as long as every
    series (two planned x values that run alike are two points)."""
    points = trial_means(results)
    series: Dict[int, List[float]] = {}
    for spec, metrics in points:
        series.setdefault(spec["group_size"], []).append(
            metrics.buffered_fraction * 100)
    first = points[0][0]["group_size"] if points else None
    xs = [x_of(spec) for spec, _metrics in points
          if spec["group_size"] == first]
    return SynthSweepResult(xs=xs, series=series)


def interval_specs(trials: int = 3, messages_per_node: int = 2000,
                   shards: int = 1) -> List[RunSpec]:
    """Figure 9's runs: buffered % versus send interval."""
    def spec_for(group: int, t_betw: int, seed: int) -> RunSpec:
        return bind_spec("synth", group_size=group, t_betw=t_betw,
                         seed=seed, messages_per_node=messages_per_node,
                         shards=shards)

    return _grid_specs(DEFAULT_INTERVALS, GROUP_SIZES, trials, spec_for)


def interval_fold(results: Sequence[RunResult]) -> SynthSweepResult:
    """Figure 9 from :func:`interval_specs`' results."""
    return _fold_grid(results, lambda spec: spec["t_betw"])


def buffer_cost_specs(costs: Sequence[int] = DEFAULT_BUFFER_COSTS,
                      group_sizes: Sequence[int] = GROUP_SIZES,
                      trials: int = 3, messages_per_node: int = 2000,
                      shards: int = 1) -> List[RunSpec]:
    """Figure 10's runs: buffered % versus buffered-path cost at
    T_betw=275. A cost below the baseline runs at the baseline."""
    def spec_for(group: int, cost: int, seed: int) -> RunSpec:
        return bind_spec("synth", group_size=group, t_betw=FIG10_T_BETW,
                         seed=seed,
                         buffer_cost_extra=max(0, cost - BASELINE_COST),
                         messages_per_node=messages_per_node,
                         shards=shards)

    return _grid_specs(costs, group_sizes, trials, spec_for)


def buffer_cost_fold(results: Sequence[RunResult]) -> SynthSweepResult:
    """Figure 10 from :func:`buffer_cost_specs`' results; x is the
    simulated buffered-path cost (baseline + added insert latency)."""
    return _fold_grid(
        results, lambda spec: BASELINE_COST + spec["buffer_cost_extra"])
