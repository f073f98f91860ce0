"""Run-to-run determinism: identical seeds must give identical runs.

The entire evaluation methodology (averaging trials, comparing
configurations) rests on the simulator being a deterministic function
of (configuration, seed). These tests pin that property for the
messaging core, a CRL workload and the synthetic sweeps.
"""

from repro.analysis.metrics import collect_metrics
from repro.apps.null_app import NullApplication
from repro.apps.synth import SynthApplication
from repro.experiments.config import SimulationConfig
from repro.experiments.workloads import make_workload
from repro.machine.machine import Machine


def run_synth_pair(seed):
    config = SimulationConfig(num_nodes=4, seed=seed,
                              skew_fraction=0.02, timeslice=100_000)
    machine = Machine(config)
    app = SynthApplication(group_size=50, t_betw=150,
                           total_messages_per_node=300, num_nodes=4,
                           seed=seed)
    job = machine.add_job(app)
    machine.add_job(NullApplication())
    machine.start()
    machine.run_until_job_done(job, limit=10_000_000_000)
    return machine, job


def fingerprint(machine, job):
    metrics = collect_metrics(machine, job)
    return (
        machine.engine.now,
        machine.engine.events_executed,
        metrics.elapsed_cycles,
        metrics.messages_sent,
        metrics.fast_messages,
        metrics.buffered_messages,
        metrics.max_buffer_pages,
        tuple(node.kernel.stats.context_switches
              for node in machine.nodes),
        tuple(node.processor.user_cycles for node in machine.nodes),
    )


class TestDeterminism:
    def test_same_seed_same_everything(self):
        a = fingerprint(*run_synth_pair(seed=5))
        b = fingerprint(*run_synth_pair(seed=5))
        assert a == b

    def test_different_seed_differs(self):
        a = fingerprint(*run_synth_pair(seed=5))
        b = fingerprint(*run_synth_pair(seed=6))
        assert a != b

    def test_crl_workload_deterministic(self):
        def run():
            config = SimulationConfig(num_nodes=4, seed=3)
            machine = Machine(config)
            app = make_workload("lu", seed=3, num_nodes=4, scale="fast")
            job = machine.add_job(app)
            machine.start()
            machine.run_until_job_done(job, limit=10_000_000_000)
            return fingerprint(machine, job)

        assert run() == run()
