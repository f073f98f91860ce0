"""Overflow control: feedback from buffering to the scheduler.

Section 4.2: "Excessive demand for virtual buffering in our system is
analogous to thrashing of virtual memory. Accordingly, we employ a
technique reminiscent of the anti-thrashing strategy in Unix: we
identify the offending application and take gross control of its
scheduling. First, an application on the verge of exhausting physical
memory is globally suspended while paging clears out space on the node.
Second, a well-behaved application will recover from buffering if gang
scheduled, so the buffering system advises the scheduler to gang
schedule the application."

The policy here implements both actions: global suspension (propagated
to every node over the second network, then enacted by the scheduler)
when a job's buffer footprint crosses the suspension threshold or the
frame pool runs dry, and a gang-scheduling advisory flag at a lower
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.stats import metric

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.glaze.jobs import JobNodeState
    from repro.glaze.kernel import NodeKernel


@dataclass(frozen=True)
class OverflowPolicy:
    """Thresholds for the anti-thrashing actions."""

    #: Buffer pages on one node above which the scheduler is advised to
    #: gang-schedule the job (the cheap, advisory action).
    advise_pages: int = 8
    #: Buffer pages on one node above which the job is globally
    #: suspended while paging clears space.
    suspend_pages: int = 32
    #: How long a suspension lasts, in cycles.
    suspend_duration: int = 2_000_000


@dataclass
class OverflowStats:
    advisories: int = 0
    suspensions: int = 0
    exhaustion_events: int = metric("exhaustions")


class OverflowControl:
    """Machine-wide overflow controller."""

    def __init__(self, policy: OverflowPolicy) -> None:
        self.policy = policy
        self.stats = OverflowStats()

    def on_insert(self, kernel: "NodeKernel", state: "JobNodeState") -> None:
        """Called after every buffer insertion."""
        pages = state.buffer.pages_in_use
        job = state.job
        if pages >= self.policy.advise_pages and not job.needs_gang_advice:
            self.stats.advisories += 1
            obs = getattr(kernel.machine, "obs", None)
            if obs is not None:
                obs.note_event("overflow-advise",
                               node=kernel.node.node_id,
                               gid=state.gid, pages=pages)
            kernel.machine.scheduler.advise_gang(job)
        if pages >= self.policy.suspend_pages and not job.suspended:
            self._suspend_globally(kernel, state)

    def on_frames_exhausted(self, kernel: "NodeKernel",
                            state: "JobNodeState") -> None:
        """Called when an insertion finds the frame pool empty."""
        self.stats.exhaustion_events += 1
        obs = getattr(kernel.machine, "obs", None)
        if obs is not None:
            obs.note_event("overflow-exhausted",
                           node=kernel.node.node_id, gid=state.gid)
        if not state.job.suspended:
            self._suspend_globally(kernel, state)

    def _suspend_globally(self, kernel: "NodeKernel",
                          state: "JobNodeState") -> None:
        self.stats.suspensions += 1
        machine = kernel.machine
        obs = getattr(machine, "obs", None)
        if obs is not None:
            obs.note_event(
                "overflow-suspend", node=kernel.node.node_id,
                gid=state.gid, pages=state.buffer.pages_in_use,
            )
        machine.scheduler.suspend_job(state.job,
                                      self.policy.suspend_duration)
        # Propagate the suspension decision to the other nodes over the
        # reserved network so their schedulers agree quickly.
        for node in machine.nodes:
            if node.node_id != kernel.node.node_id:
                machine.second_network.send(
                    kernel.node.node_id, node.node_id, "suspend-job",
                    {"gid": state.gid},
                )
