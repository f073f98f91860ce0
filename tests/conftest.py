"""Shared fixtures and helper applications for the test suite."""

from __future__ import annotations

from typing import Generator, List, Optional

import pytest

from repro.apps.base import Application
from repro.core.udm import UdmRuntime
from repro.experiments.config import SimulationConfig
from repro.machine.machine import Machine
from repro.sim.engine import Engine
from repro.sim.events import Event


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Keep the persistent runner cache out of the repo during tests.

    CLI commands default to a ``.repro_cache/`` in the working
    directory; tests must neither read a developer's stale cache nor
    litter the tree, so every test gets a throwaway cache dir.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro_cache"))


def run_faulted(**params):
    """One ``faulted`` run with its ledgers:
    ``(metrics, transport, violations, machine)``."""
    from repro.faults.runner import execute_faulted

    ledgers: dict = {}
    metrics, _extra = execute_faulted(ledgers=ledgers, **params)
    return (metrics, ledgers["transport"], ledgers["violations"],
            ledgers["machine"])


def make_machine(num_nodes: int = 2, **overrides) -> Machine:
    """A small machine with test-friendly defaults."""
    config = SimulationConfig(num_nodes=num_nodes, **overrides)
    return Machine(config)


def collect_deliveries(transport, expected):
    """Bind a delivery callback that records ``(src, payload)`` per
    node; returns the records and a per-node event that triggers once
    the node has received ``expected[node]`` messages."""
    received = {n: [] for n in expected}
    complete = {n: Event(f"complete-{n}") for n in expected}

    def deliver(rt, src, payload):
        node = rt.node_index
        received[node].append((src, payload))
        if len(received[node]) == expected[node]:
            complete[node].trigger()

    transport.bind(deliver)
    return received, complete


class ScriptedApplication(Application):
    """Runs a user-supplied generator function per node.

    ``script(app, rt, node_index)`` lets tests write ad-hoc behaviour
    without defining an Application subclass each time.
    """

    name = "scripted"

    def __init__(self, script, name: str = "scripted") -> None:
        self.script = script
        self.name = name
        self.log: List = []
        self.done_nodes: List[int] = []

    def main(self, rt: UdmRuntime, node_index: int) -> Generator:
        yield from self.script(self, rt, node_index)
        self.done_nodes.append(node_index)


class SinkApplication(Application):
    """Node 0 sends ``count`` messages to node 1; node 1 records them."""

    name = "sink"

    def __init__(self, count: int = 10, payload_words: int = 0,
                 gap: int = 50) -> None:
        self.count = count
        self.payload_words = payload_words
        self.gap = gap
        self.received: List[tuple] = []

    def _h_sink(self, rt: UdmRuntime, msg) -> Generator:
        yield from rt.dispose_current()
        yield 4
        self.received.append(msg.payload)

    def main(self, rt: UdmRuntime, node_index: int) -> Generator:
        if node_index == 0:
            for i in range(self.count):
                yield self.gap
                payload = (i,) + tuple(range(self.payload_words))
                yield from rt.inject(1, self._h_sink, payload)
        while len(self.received) < self.count:
            yield 100


def run_app(app: Application, num_nodes: int = 2, limit: int = 50_000_000,
            **overrides):
    """Build, run to completion, return (machine, job)."""
    machine = make_machine(num_nodes=num_nodes, **overrides)
    job = machine.add_job(app)
    machine.start()
    machine.run_until_job_done(job, limit=limit)
    return machine, job
