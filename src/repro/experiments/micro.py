"""Microbenchmarks: fast-path costs (Table 4) and buffered-path costs
(Table 5).

The fast-path numbers come from ping-pong runs at each protection
regime: the measured one-way cost decomposes into the Table 4 send and
receive components plus the (known, constant) network transit, so the
harness both prints the component table and *verifies* that the
end-to-end simulation reproduces the totals.

The buffered-path numbers come from a stream benchmark with the
receiver forced into buffered mode, measuring the kernel's insertion
handler and the drain thread's extraction cost per message.

Both are runner kinds (``fast_path`` per protection regime,
``buffered_path`` for the stream): :func:`execute_fast_path` and
:func:`execute_buffered_path` run them, and :func:`table4_fold` and
:func:`table5_fold` turn each run's :class:`~repro.runner.RunResult`
(fresh or replayed from the persistent cache) back into a result
object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Sequence, Tuple

from repro.apps.base import Application
from repro.core.costs import AtomicityMode, CostModel
from repro.core.udm import UdmRuntime
from repro.core.atomicity import INTERRUPT_DISABLE
from repro.experiments.config import SimulationConfig
from repro.experiments.workloads import run_jobs
from repro.runner import RunResult, RunSpec, bind_spec, require_all


class PingPongApplication(Application):
    """Two nodes bounce a null message ``rounds`` times.

    ``via`` selects interrupt-driven handlers or a polling loop —
    Table 4 reports both reception disciplines.
    """

    name = "pingpong"

    def __init__(self, rounds: int = 200, via: str = "interrupt") -> None:
        if via not in ("interrupt", "poll"):
            raise ValueError("via must be 'interrupt' or 'poll'")
        self.rounds = rounds
        self.via = via
        self.completed = 0
        #: Timestamps of each message handling, for per-leg costing.
        self.leg_times: List[int] = []

    # -- interrupt style -------------------------------------------------
    def _h_ball(self, rt: UdmRuntime, msg) -> Generator:
        (count,) = msg.payload
        yield from rt.dispose_current()
        yield 4  # the rest of the Table 4 null handler
        self.leg_times.append(rt.engine.now)
        if count >= self.rounds:
            self.completed = count
            return
        peer = 1 - rt.node_index
        yield from rt.inject(peer, self._h_ball, (count + 1,))

    def main(self, rt: UdmRuntime, node_index: int) -> Generator:
        if self.via == "interrupt":
            yield from self._main_interrupt(rt, node_index)
        else:
            yield from self._main_poll(rt, node_index)

    def _main_interrupt(self, rt: UdmRuntime, node_index: int) -> Generator:
        if node_index == 0:
            yield from rt.inject(1, self._h_ball, (1,))
        while self.completed == 0:
            yield 200

    def _main_poll(self, rt: UdmRuntime, node_index: int) -> Generator:
        peer = 1 - rt.node_index
        yield from rt.beginatom(INTERRUPT_DISABLE)
        if node_index == 0:
            yield from rt.inject(peer, "ball", (1,))
        while True:
            msg = yield from rt.poll_extract()
            if msg is None:
                continue
            (count,) = msg.payload
            yield 1  # Table 4 polling null handler
            self.leg_times.append(rt.engine.now)
            if count >= self.rounds:
                self.completed = count
                # Tell the peer to stop too.
                if count == self.rounds:
                    yield from rt.inject(peer, "ball", (count + 1,))
                break
            yield from rt.inject(peer, "ball", (count + 1,))
        yield from rt.endatom(INTERRUPT_DISABLE)


@dataclass
class FastPathResult:
    """Measured vs modelled fast-path costs for one atomicity mode.

    The ping-pong message carries a one-word payload (the bounce
    count), so every expectation includes the per-word increments the
    Table 4 caption specifies (3 cycles/word send, 2 cycles/word
    receive).
    """

    mode: AtomicityMode
    model: CostModel
    #: Mean cycles of a whole upcall (entry + handler + cleanup): the
    #: Table 4 "interrupt total" plus the 2-cycle payload-word charge.
    measured_receive_interrupt: float = 0.0
    #: Mean cycles between consecutive one-way legs (interrupt mode).
    measured_leg_interrupt: float = 0.0
    #: Mean cycles between consecutive one-way legs (polling mode).
    measured_leg_poll: float = 0.0
    network_transit: int = 0

    @property
    def expected_receive_interrupt(self) -> float:
        """Table 4's interrupt total: the null-stream handler duration."""
        return float(self.model.fast.receive_interrupt_total)

    @property
    def expected_leg_interrupt(self) -> float:
        """One-way leg: send + wire + receive-up-to-handler-end.

        The upcall's cleanup cost overlaps the return flight, so it is
        not on the critical path of a ping-pong leg.
        """
        fast = self.model.fast
        return (
            self.model.send_cost(1) + self.network_transit
            + fast.receive_entry + self.model.receive_handler_extra(1)
            + fast.null_handler
        )

    @property
    def expected_leg_poll(self) -> float:
        """One-way leg via polling, excluding poll-loop quantization."""
        fast = self.model.fast
        return (
            self.model.send_cost(1) + self.network_transit
            + fast.receive_polling_total
            + self.model.receive_handler_extra(1)
        )


def _mean_leg(app: PingPongApplication, skip: int = 10) -> float:
    """Average cycles per one-way leg, skipping warm-up legs."""
    times = app.leg_times
    if len(times) < skip + 2:
        raise RuntimeError("not enough legs measured")
    window = times[skip:]
    return (window[-1] - window[0]) / (len(window) - 1)


class NullStreamApplication(Application):
    """Node 0 paces true null messages at node 1's null handler — the
    cleanest measurement of Table 4's receive-by-interrupt total."""

    name = "nullstream"

    def __init__(self, count: int = 200, gap: int = 400) -> None:
        self.count = count
        self.gap = gap
        self.received = 0

    def _h_null(self, rt: UdmRuntime, msg) -> Generator:
        yield from rt.dispose_current()
        yield 4
        self.received += 1

    def main(self, rt: UdmRuntime, node_index: int) -> Generator:
        if node_index == 0:
            for _ in range(self.count):
                yield self.gap
                yield from rt.inject(1, self._h_null, ())
        while self.received < self.count:
            yield self.gap


def execute_fast_path(mode: str, rounds: int = 300):
    """Runner executor (kind ``fast_path``): ping-pong by interrupt and
    by polling, then a paced null stream, at one Table 4 protection
    regime. The metrics are the paced stream's; ``extra`` holds the
    measured :class:`FastPathResult` fields (mode and model follow from
    the spec)."""
    config = SimulationConfig(num_nodes=2, atomicity_mode=AtomicityMode(mode))
    interrupt = PingPongApplication(rounds=rounds, via="interrupt")
    machine = run_jobs(config, [interrupt], 100_000_000)[2]
    poll = PingPongApplication(rounds=rounds, via="poll")
    run_jobs(config, [poll], 100_000_000)
    metrics, _extra, _machine, stream = run_jobs(
        config, [NullStreamApplication(count=200)], 100_000_000)
    return metrics, {
        "measured_receive_interrupt": stream.stats.mean_handler_cycles,
        "measured_leg_interrupt": _mean_leg(interrupt),
        "measured_leg_poll": _mean_leg(poll),
        "network_transit": machine.topology.latency(0, 1, 3),
    }


def table4_specs(rounds: int = 300) -> List[RunSpec]:
    """Table 4's runs: one per protection regime."""
    return [bind_spec("fast_path", mode=mode.value, rounds=rounds)
            for mode in AtomicityMode]


def table4_fold(results: Sequence[RunResult]) -> List[FastPathResult]:
    """Table 4 from :func:`table4_specs`' results, one per regime."""
    require_all(results)
    modes = [AtomicityMode(run.spec["mode"]) for run in results]
    return [FastPathResult(mode=mode, model=CostModel.for_mode(mode),
                           **run.extra)
            for mode, run in zip(modes, results)]


# ----------------------------------------------------------------------
# Table 5: buffered-path microbenchmark
# ----------------------------------------------------------------------
class BufferedStreamApplication(Application):
    """Node 0 streams messages at node 1, which is forced into
    buffered mode, so every message takes the software path."""

    name = "bufstream"

    def __init__(self, count: int = 300, payload_words: int = 0) -> None:
        self.count = count
        self.payload_words = payload_words
        self.received = 0
        self.handler_spans: List[Tuple[int, int]] = []

    def _h_sink(self, rt: UdmRuntime, msg) -> Generator:
        start = rt.engine.now
        yield from rt.dispose_current()
        yield 4
        self.received += 1
        self.handler_spans.append((start, rt.engine.now))

    def main(self, rt: UdmRuntime, node_index: int) -> Generator:
        if node_index == 1:
            yield from rt.force_buffered_mode()
            while self.received < self.count:
                yield 500
            return
        if node_index == 0:
            payload = tuple(range(self.payload_words))
            for _ in range(self.count):
                yield from rt.inject(1, self._h_sink, payload)
            while self.received < self.count:
                yield 500


@dataclass
class BufferedPathResult:
    """Measured vs modelled Table 5 quantities."""

    model: CostModel
    measured_insert_min: float = 0.0
    measured_insert_vmalloc: float = 0.0
    measured_extract: float = 0.0
    messages: int = 0
    vmalloc_count: int = 0

    @property
    def measured_per_message(self) -> float:
        return self.measured_insert_min + self.measured_extract


def execute_buffered_path(count: int = 400, payload_words: int = 0):
    """Runner executor (kind ``buffered_path``): the Table 5 stream,
    with the receiver forced into buffered mode. ``extra`` holds the
    measured :class:`BufferedPathResult` fields (the model is the
    default one)."""
    app = BufferedStreamApplication(count=count,
                                    payload_words=payload_words)
    metrics, _extra, machine, _job = run_jobs(
        SimulationConfig(num_nodes=2), [app], 100_000_000)
    kernel_stats = machine.nodes[1].kernel.stats
    inserted = kernel_stats.messages_inserted
    vmallocs = kernel_stats.vmalloc_inserts
    plain = inserted - vmallocs
    # Separate the vmalloc inserts out of the aggregate cycle count.
    vmalloc_cost = machine.costs.buffered.insert_cost(True)
    plain_cycles = kernel_stats.insert_cycles - vmallocs * vmalloc_cost
    spans = app.handler_spans[5:]
    return metrics, {
        "measured_insert_min": plain_cycles / plain if plain else 0.0,
        "measured_insert_vmalloc": vmalloc_cost if vmallocs else 0.0,
        "measured_extract": (sum(end - start for start, end in spans)
                             / len(spans) if spans else 0.0),
        "messages": inserted,
        "vmalloc_count": vmallocs,
    }


def table5_fold(results: Sequence[RunResult]) -> BufferedPathResult:
    """Table 5 from the result of its one ``buffered_path`` run."""
    (run,) = results
    run.require()
    return BufferedPathResult(model=SimulationConfig().cost_model(),
                              **run.extra)
