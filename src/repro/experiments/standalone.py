"""Table 6: application characteristics, standalone on eight nodes.

Runs each workload alone (no multiprogramming, no skew) and derives the
paper's columns: total cycles, total messages, T_betw (average cycles
between communication events per node) and T_hand (average cycles per
handler).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.metrics import RunMetrics
from repro.experiments.config import SimulationConfig
from repro.experiments.workloads import (
    MODELS, WORKLOAD_NAMES, make_workload, run_jobs,
)
from repro.faults.plan import require_lossless
from repro.runner import RunResult, RunSpec, bind_spec


#: The paper's Table 6 reference values (8 nodes, full data sets).
PAPER_TABLE6: Dict[str, Dict[str, float]] = {
    "barnes": {"cycles": 45_700_000, "messages": 107_849,
               "t_betw": 3390, "t_hand": 337},
    "water": {"cycles": 47_600_000, "messages": 36_303,
              "t_betw": 10_500, "t_hand": 419},
    "lu": {"cycles": 13_400_000, "messages": 7_564,
           "t_betw": 14_200, "t_hand": 478},
    "barrier": {"cycles": 18_500_000, "messages": 240_177,
                "t_betw": 615, "t_hand": 149},
    "enum": {"cycles": 72_700_000, "messages": 610_148,
             "t_betw": 953, "t_hand": 320},
}


@dataclass
class Table6Row:
    name: str
    model: str
    metrics: RunMetrics
    paper: Dict[str, float]


def execute_standalone(name: str, num_nodes: int = 8, seed: int = 1,
                       scale: str = "bench", *, faults: str = "",
                       obs_interval: int = 0):
    """Runner executor for one standalone run (kind ``standalone``);
    ``obs_interval`` as for
    :func:`~repro.experiments.workloads.run_jobs`."""
    config = SimulationConfig(num_nodes=num_nodes,
                              seed=seed).with_faults(faults or None)
    app = make_workload(name, seed=seed, num_nodes=num_nodes, scale=scale)
    return run_jobs(config, [app], 20_000_000_000, obs_interval)[:2]


def table6_specs(scale: str = "bench", faults: str = "") -> List[RunSpec]:
    """Table 6's runs: every workload standalone (``faults`` must be
    lossless, see :func:`~repro.faults.plan.require_lossless`)."""
    require_lossless(faults)
    return [bind_spec("standalone", name=name, scale=scale, faults=faults)
            for name in WORKLOAD_NAMES]


def table6_fold(results: Sequence[RunResult]) -> List[Table6Row]:
    """Table 6 rows from :func:`table6_specs`' results."""
    names = [result.spec["name"] for result in results]
    return [
        Table6Row(name=name, model=MODELS[name], metrics=result.require(),
                  paper=PAPER_TABLE6[name])
        for name, result in zip(names, results)
    ]
