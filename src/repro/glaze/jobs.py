"""Jobs (process groups) and their per-node state.

A :class:`Job` is one parallel application: a GID-labelled group of
processes, one per node (the paper's "virtual processors"). Each node
holds a :class:`JobNodeState` carrying everything the kernel needs to
gang-switch the job in and out: the saved user frames, the saved user
UAC bits, the delivery mode, and the virtual software buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.two_case import DeliveryMode, TwoCaseStats
from repro.sim.events import Event
from repro.stats import metric

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.glaze.buffering import VirtualBuffer
    from repro.glaze.vm import AddressSpace
    from repro.machine.processor import Frame
    from repro.core.udm import UdmRuntime


@dataclass
class JobStats:
    """Whole-job counters beyond the two-case statistics."""

    messages_sent: int = metric(obs=None)
    handler_invocations: int = metric(obs=None)
    handler_cycles: int = metric(obs=None)
    scheduled_cycles: int = metric(obs=None)
    page_faults_simulated: int = metric(obs=None)

    @property
    def mean_handler_cycles(self) -> float:
        if not self.handler_invocations:
            return 0.0
        return self.handler_cycles / self.handler_invocations


class JobNodeState:
    """Per-node, per-job kernel state."""

    def __init__(self, job: "Job", node_id: int, space: "AddressSpace",
                 buffer: "VirtualBuffer") -> None:
        self.job = job
        self.node_id = node_id
        self.space = space
        self.buffer = buffer
        self.mode: DeliveryMode = DeliveryMode.FAST
        #: Saved user frames while the job is descheduled on this node.
        self.frames: List["Frame"] = []
        #: Saved UAC register (user bits plus kernel bits).
        self.uac_saved: Dict[str, bool] = {
            "interrupt_disable": False, "timer_force": False,
            "dispose_pending": False, "atomicity_extend": False,
        }
        self.installed = False
        self.installed_at = 0
        self.drain_active = False
        self.main_finished = False
        #: Cycle at which this node's main returned (None while running);
        #: the shard coordinator merges per-node finish times into the
        #: whole-job finish time, so it must match the monolithic value.
        self.main_finish_time: Optional[int] = None
        self.runtime: Optional["UdmRuntime"] = None

    @property
    def gid(self) -> int:
        return self.job.gid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<JobNodeState {self.job.name}@{self.node_id} "
            f"{self.mode.value} installed={self.installed}>"
        )


class Job:
    """One gang-scheduled parallel application."""

    def __init__(self, name: str, gid: int, num_nodes: int) -> None:
        self.name = name
        self.gid = gid
        self.num_nodes = num_nodes
        self.node_states: Dict[int, JobNodeState] = {}
        self.two_case = TwoCaseStats()
        self.stats = JobStats()
        self.suspended = False
        self.needs_gang_advice = False
        self.start_time: Optional[int] = None
        self.finish_time: Optional[int] = None
        self.done = Event(f"job:{name}.done")

    @property
    def finished(self) -> bool:
        return self.done.triggered

    def note_node_main_finished(self, node_id: int, now: int) -> None:
        state = self.node_states[node_id]
        if state.main_finished:
            return
        state.main_finished = True
        state.main_finish_time = now
        if all(s.main_finished for s in self.node_states.values()):
            self.finish_time = now
            self.done.trigger(now)

    @property
    def elapsed_cycles(self) -> Optional[int]:
        if self.start_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    def max_buffer_pages(self) -> int:
        """High-water physical buffer pages on any node (Section 5.1)."""
        if not self.node_states:
            return 0
        return max(s.buffer.stats.max_pages for s in self.node_states.values())

    def total_buffer_pages_now(self) -> int:
        return sum(s.buffer.pages_in_use for s in self.node_states.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Job {self.name} gid={self.gid} nodes={self.num_nodes}>"
