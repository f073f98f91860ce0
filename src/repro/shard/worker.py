"""The per-shard worker process body.

Each worker builds its full-machine replica (:class:`~repro.shard.
machine.ShardMachine`), drives its local node group, and talks to the
coordinator over one duplex pipe. Two execution modes:

* **Windowed** (``lookahead`` given) — the conservative time-window
  protocol with adaptive bounds. The engine runs to the coordinator's
  current window bound; at each barrier the worker encodes its epoch
  outbox in send order, reports it with its next pending event time,
  and receives the inbound batch routed to it plus the next bound —
  derived null-message style from the earliest pending event anywhere,
  so idle stretches cost one barrier instead of one per lookahead
  window.
* **Free-run** (``lookahead is None``) — the partition provably admits
  no cross-shard traffic (application locality groups nest inside the
  shard groups), so the worker runs to local completion with no
  epoch barriers; a stop hook on the job's finish notifications halts
  the engine the moment every local node's main has returned. One
  **finish-alignment** barrier follows: the monolithic engine stops at
  the *global* finish event, so a shard that finished early must keep
  executing its queued tail work (NI-queue drains, in-flight
  deliveries) up to the cycle *before* the global finish — every such
  event ran in the monolithic order too, strictly before the finishing
  event. Events at exactly the global finish cycle are the one
  ambiguity (their order against the finishing event is an engine
  artifact), so a shard still holding one raises
  ``finish-cycle-collision`` and the run falls back.

Wire protocol (worker -> coordinator):

* ``("epoch", index, outbound, local_done, in_flight, executed_delta,
  next_event_time)`` at each barrier (windowed mode); ``outbound`` is
  the list of ``(wire, origin)`` entries for this window's cross-shard
  sends, in send order;
* ``("flocal", local_finish_time)`` once, at local completion
  (free-run mode);
* ``("result", partial)`` once, at the end — the harvest dict the
  coordinator merges (or ``("error", traceback_text)``).

Coordinator -> worker: ``("continue", batch, next_bound)`` or
``("finish",)``; ``batch`` is the ``(wire, origin)`` list routed to
this shard, each origin's entries in its send order. Free-run mode
instead gets one ``("align", global_finish, ties)`` reply to its
``flocal`` report.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import harvest
from repro.shard.channel import decode_message, encode_message
from repro.shard.machine import ShardMachine


def _local_done(job, local_nodes) -> bool:
    return all(job.node_states[node].main_finished
               for node in local_nodes)


def _install_local_stop(machine: ShardMachine, job) -> None:
    """Free-run mode: halt the engine at *local* completion.

    On a replica, ``job.done`` can never trigger (foreign node states
    never finish), so the monolithic ``run_until_job_done`` exit hook
    is replaced by shadowing the job's bound finish-notification with a
    wrapper that stops the engine once the local group is done.
    """
    local = machine.local_nodes
    engine = machine.engine
    original = job.note_node_main_finished

    def note_and_maybe_stop(node_id: int, now: int) -> None:
        original(node_id, now)
        if _local_done(job, local):
            engine.stop()

    job.note_node_main_finished = note_and_maybe_stop


def _harvest(machine: ShardMachine, job, wall_started: float,
             flags: set, windowed: bool,
             encode_seconds: float = 0.0) -> Dict[str, Any]:
    """Everything the coordinator needs from this shard, picklable."""
    fabric = machine.fabric
    local = sorted(machine.local_nodes)
    flags = set(flags) | set(fabric.flags)
    if fabric.stats.sender_blocks and windowed:
        # Free-run: every message to a local node originates in the
        # local group (certified by zero cross-shard sends, else the
        # run is discarded anyway), so per-destination occupancy — and
        # therefore every blocking decision — is exactly the
        # monolithic fabric's. Windowed: cross-shard sends bypass
        # source-side occupancy, so blocking cannot be trusted.
        flags.add("sender-blocked")
    if machine.overflow.stats.advisories:
        flags.add("overflow-advisory")
    if machine.overflow.stats.suspensions:
        flags.add("overflow-suspension")
    if machine.overflow.stats.exhaustion_events:
        flags.add("overflow-exhaustion")
    if machine.scheduler.stats.gang_advisories:
        flags.add("gang-advisory")
    if windowed:
        # Transport endpoints and mailbox services close over state the
        # window protocol cannot ferry (handlers bound to non-app
        # objects). In free-run mode they are safe: the zero
        # cross-shard-sends certificate proves every endpoint only ever
        # saw its own group's traffic, exactly as in the monolithic
        # run (applications declaring traffic_locality_groups() promise
        # group-disjoint shared state; see repro.apps.base).
        if machine.transports:
            flags.add("transport")
        if machine.mailboxes:
            flags.add("mailbox")
    if fabric.in_flight_local() and windowed:
        # Free-run: after finish alignment the shard has executed every
        # event below the global finish cycle, so whatever is still in
        # flight was equally in flight when the monolithic engine
        # stopped (arrivals at exactly the finish cycle raise
        # finish-cycle-collision instead). Windowed: in-flight traffic
        # at termination means the protocol cut deliveries short.
        flags.add("in-flight-at-finish")
    return dict(
        shard=machine.shard_index,
        flags=sorted(flags),
        events_executed=machine.engine.events_executed,
        wall_seconds=time.perf_counter() - wall_started,
        encode_seconds=encode_seconds,
        harvest=harvest(machine, job,
                        [machine.nodes[node] for node in local]),
        cross_shard_sends=fabric.cross_shard_sends,
        occ_injects={dst: list(times) for dst, times
                     in fabric.occ_injects.items()},
        occ_releases={dst: list(times) for dst, times
                      in fabric.occ_releases.items()},
        mailbox=[s.stats.snapshot() for s in machine.mailboxes],
        queued=sum(s.queued_total() for s in machine.mailboxes),
    )


def shard_worker(conn, shard_index: int,
                 groups: Sequence[Tuple[int, ...]],
                 config, apps: Sequence[Any], measured_index: int,
                 lookahead: Optional[int],
                 limit: Optional[int]) -> None:
    """Process body: never raises — errors travel up the pipe."""
    try:
        _shard_worker(conn, shard_index, groups, config, apps,
                      measured_index, lookahead, limit)
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # coordinator already gone; nothing to tell
            pass
    finally:
        conn.close()


def _shard_worker(conn, shard_index, groups, config, apps,
                  measured_index, lookahead, limit) -> None:
    wall_started = time.perf_counter()
    machine = ShardMachine(config, groups, shard_index,
                           track_identity=lookahead is not None)
    jobs = [machine.add_job(app) for app in apps]
    job = jobs[measured_index]
    fabric = machine.fabric
    local = machine.local_nodes
    flags: set = set()

    if lookahead is None:
        _install_local_stop(machine, job)
        machine.start()
        machine.engine.run(until=limit)
        if not _local_done(job, local):
            if machine.engine.pending == 0:
                raise RuntimeError(
                    f"shard {shard_index}: event heap drained but job "
                    f"{job.name} is unfinished (application deadlock?)"
                )
            raise RuntimeError(
                f"shard {shard_index}: job {job.name} did not finish "
                f"within {limit} cycles"
            )
        # Finish alignment. The monolithic engine stops at the *global*
        # finish event, so everything queued here before that cycle —
        # NI input-queue drains, in-flight deliveries, their follow-on
        # work — executed in the monolithic run too (time order puts it
        # strictly before the finishing event). Run it. Events at
        # exactly the global finish cycle are ambiguous (their dispatch
        # order against the finishing event is an engine-seq artifact),
        # except on the unique last-finishing shard, whose own stop
        # point already matches the monolithic one.
        t_local = max(job.node_states[node].main_finish_time
                      for node in local)
        conn.send(("flocal", t_local))
        _, global_finish, ties = conn.recv()
        if t_local < global_finish:
            machine.engine.run(until=global_finish - 1)
        if (machine.engine.peek_time() == global_finish
                and (t_local < global_finish or ties > 1)):
            flags.add("finish-cycle-collision")
        conn.send(("result",
                   _harvest(machine, job, wall_started, flags,
                            windowed=False)))
        return

    apps_by_gid = machine.apps_by_gid
    encode_seconds = 0.0
    engine = machine.engine
    machine.start()
    epoch = 0
    bound = lookahead - 1
    while True:
        if limit is not None and bound - lookahead + 1 > limit:
            raise RuntimeError(
                f"shard {shard_index}: job {job.name} did not finish "
                f"within {limit} cycles"
            )
        before = engine.events_executed
        engine.run(until=bound)
        executed = engine.events_executed - before
        started_encode = time.perf_counter()
        outbound: List[Tuple[Any, int]] = []
        for arrival, message in fabric.take_outbox():
            wire = encode_message(message, arrival, apps_by_gid)
            if wire is None:
                flags.add("unresolvable-handler")
            else:
                outbound.append((wire, shard_index))
        encode_seconds += time.perf_counter() - started_encode
        conn.send(("epoch", epoch, outbound,
                   _local_done(job, local), fabric.in_flight_local(),
                   executed, engine.peek_time()))
        reply = conn.recv()
        if reply[0] == "finish":
            break
        _, batch, bound = reply
        for wire, origin in batch:
            decoded = decode_message(wire, apps_by_gid)
            if decoded is None:
                flags.add("unresolvable-handler")
                continue
            message, arrival = decoded
            fabric.inject_remote(message, arrival, origin)
        epoch += 1
    conn.send(("result",
               _harvest(machine, job, wall_started, flags,
                        windowed=True, encode_seconds=encode_seconds)))


__all__ = ["shard_worker"]
