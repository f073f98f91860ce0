"""The workload registry: paper applications at two scales.

``fast`` parameters keep unit/integration tests quick; ``bench``
parameters are the scaled-down stand-ins for the paper's data sets
(Table 6) sized so each application spans several 500k-cycle scheduler
timeslices — large enough for the multiprogramming experiments to show
skew effects, small enough for a pure-Python simulator.

The scaling substitutions (paper data set → ours) are recorded in
EXPERIMENTS.md. :func:`run_jobs` is the build-run-measure body every
whole-machine run kind shares.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Sequence

from repro.analysis.metrics import collect_metrics

from repro.apps.barnes import BarnesApplication
from repro.apps.barrier import BarrierApplication
from repro.apps.enum_puzzle import EnumApplication
from repro.apps.lu import LuApplication
from repro.apps.water import WaterApplication
from repro.machine.machine import Machine

AppFactory = Callable[[int, int], object]  # (seed, num_nodes) -> app

#: Programming model per workload, for the Table 6 "Model" column.
MODELS: Dict[str, str] = {
    "barnes": "CRL",
    "water": "CRL",
    "lu": "CRL",
    "barrier": "UDM",
    "enum": "UDM",
}


def _barnes(seed: int, num_nodes: int, scale: str) -> BarnesApplication:
    if scale == "fast":
        return BarnesApplication(bodies=32, num_nodes=num_nodes,
                                 iterations=2, seed=seed)
    return BarnesApplication(bodies=96, num_nodes=num_nodes, iterations=3,
                             seed=seed, cycles_per_visit=250,
                             cycles_per_insert=300)


def _water(seed: int, num_nodes: int, scale: str) -> WaterApplication:
    if scale == "fast":
        return WaterApplication(molecules=32, num_nodes=num_nodes,
                                iterations=2, seed=seed)
    return WaterApplication(molecules=96, num_nodes=num_nodes,
                            iterations=3, seed=seed, cycles_per_pair=600)


def _lu(seed: int, num_nodes: int, scale: str) -> LuApplication:
    if scale == "fast":
        return LuApplication(n=32, block=8, num_nodes=num_nodes, seed=seed)
    return LuApplication(n=96, block=12, num_nodes=num_nodes, seed=seed,
                         cycles_per_flop=30)


def _barrier(seed: int, num_nodes: int, scale: str) -> BarrierApplication:
    iterations = 200 if scale == "fast" else 1000
    return BarrierApplication(iterations=iterations, num_nodes=num_nodes,
                              work_between=100)


def _enum(seed: int, num_nodes: int, scale: str) -> EnumApplication:
    budget = 2000 if scale == "fast" else 16_000
    return EnumApplication(side=5, num_nodes=num_nodes,
                           max_expansions_per_node=budget,
                           expansion_cycles=90, updates_per_batch=8)


_FACTORIES = {
    "barnes": _barnes,
    "water": _water,
    "lu": _lu,
    "barrier": _barrier,
    "enum": _enum,
}

#: Table 6 row order.
WORKLOAD_NAMES = ["barnes", "water", "lu", "barrier", "enum"]


def make_workload(name: str, seed: int = 1, num_nodes: int = 8,
                  scale: str = "bench"):
    """Instantiate a registered workload."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}"
        ) from None
    if scale not in ("fast", "bench"):
        raise ValueError(f"unknown scale {scale!r}")
    return factory(seed, num_nodes, scale)


def run_jobs(config, apps: Sequence[Any], limit: int = 50_000_000_000,
             obs_interval: int = 0, trace: bool = False):
    """Build one machine whose jobs are ``apps``, run it until the
    first (the measured job) finishes or ``limit`` cycles pass, and
    measure it: ``(metrics, extra, machine, job)``.

    With ``obs_interval`` the run carries an
    :class:`~repro.obs.Observatory` (``machine.obs``) sampling every
    ``obs_interval`` cycles; its cache-safe payload (per-subsystem
    metrics, timeline snapshots, events) rides in ``extra["obs"]``.
    Observation never perturbs the metrics; the overhead guard test
    enforces bit-identity. Otherwise ``extra`` is empty. ``trace``
    records message lifecycles (``machine.tracer``).
    """
    machine = Machine(config)
    if trace:
        machine.enable_tracing(limit=500_000)
    job = machine.add_job(apps[0])
    for app in apps[1:]:
        machine.add_job(app)
    if obs_interval:
        machine.enable_observability(obs_interval)
    machine.start()
    machine.run_until_job_done(job, limit=limit)
    metrics = collect_metrics(machine, job)
    extra: Dict[str, Any] = {}
    if machine.obs is not None:
        machine.obs.finalize()
        extra["obs"] = machine.obs.payload()
    return metrics, extra, machine, job
