"""The shard coordinator: optimistic parallel run, certified or redone.

:func:`run_sharded` is two-case delivery applied to the simulator
itself. The *fast case* partitions the machine into per-node-group
shards, runs them as forked worker processes under a conservative
time-window protocol (or barrier-free when application locality aligns
with the partition), and merges per-shard counters into the exact
:class:`~repro.analysis.metrics.RunMetrics` the monolithic engine
would produce. The *buffered case* is the monolithic engine: whenever
any shard raises a **coupling flag** — a condition under which sharded
timing is not provably identical (sender blocking, overflow actions,
same-cycle arrival collisions, unresolvable handlers, messages still in
flight at finish, a credit limit the occupancy sweep shows was
reached) — the sharded result is discarded and the run repeats
serially. Correctness never depends on the fast case; the flags only
decide who computes the answer.
"""

from __future__ import annotations

import multiprocessing
import pickle
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import RunMetrics, collect_metrics, derive, merge
from repro.apps.mailbox import MailboxStats
from repro.machine.machine import Machine, ShardStats
from repro.runner.executor import fork_available, notice_serial_fallback
from repro.shard.lookahead import (
    lookahead_for, next_window_bound, windows_coalesced,
)
from repro.shard.partition import owner_of, partition_nodes
from repro.shard.worker import shard_worker
from repro.stats import fold, rules


def _free_run_possible(apps: Sequence[Any],
                       groups: Sequence[Tuple[int, ...]]) -> bool:
    """True when no app can ever address a node outside its shard.

    Requires every communicating application to declare traffic
    locality groups, each nested inside a single shard group.
    """
    shard_sets = [frozenset(group) for group in groups]
    for app in apps:
        if not getattr(app, "communicates", True):
            continue
        locality = app.traffic_locality_groups()
        if locality is None:
            return False
        for peers in locality:
            peer_set = frozenset(peers)
            if not any(peer_set <= shard for shard in shard_sets):
                return False
    return True


def _occupancy_exceeded(partials: Sequence[Dict[str, Any]],
                        credits: int) -> bool:
    """Replay all shards' credit-slot logs; True if any destination's
    true occupancy ever reached the credit limit at an inject — the
    point where the monolithic run would have blocked a sender the
    sharded run let through."""
    dsts = set()
    for partial in partials:
        dsts.update(partial["occ_injects"])
        dsts.update(partial["occ_releases"])
    for dst in dsts:
        events: List[Tuple[int, int]] = []
        for partial in partials:
            # Injects sort before releases at equal cycles (order 0
            # vs 1): the conservative tie-break, over- rather than
            # under-counting occupancy.
            events.extend((t, 0) for t in
                          partial["occ_injects"].get(dst, ()))
            events.extend((t, 1) for t in
                          partial["occ_releases"].get(dst, ()))
        events.sort()
        occupancy = 0
        for _, kind in events:
            if kind == 0:
                if occupancy >= credits:
                    return True
                occupancy += 1
            else:
                occupancy -= 1
    return False


def _run_serial(config, apps: Sequence[Any], measured_index: int,
                limit: Optional[int], stats: ShardStats,
                ) -> Tuple[RunMetrics, Machine]:
    machine = Machine(config)
    jobs = [machine.add_job(app) for app in apps]
    machine.shard_stats = stats
    machine.run_until_job_done(jobs[measured_index], limit=limit)
    return collect_metrics(machine, jobs[measured_index]), machine


def run_sharded(config, apps: Sequence[Any], measured_index: int = 0,
                limit: Optional[int] = None,
                info: Optional[Dict[str, Any]] = None,
                ) -> Tuple[RunMetrics, Dict[str, Any]]:
    """Run one job across shard processes; fall back serially if the
    result cannot be certified identical.

    ``apps`` are *pristine* application instances (never added to a
    machine); workers fork before touching them, so the parent's copies
    stay reusable for the serial fallback. Returns ``(metrics, extra)``
    where ``extra`` carries only deterministic shard counters (safe for
    the result cache). Wall-clock per-shard numbers go into ``info``
    when given (benchmarks read them; caches must not).
    """
    groups = partition_nodes(config.num_nodes, config.shards)
    name = getattr(apps[measured_index], "name", "job")
    stats = ShardStats(shards=len(groups))

    def serial(mode: str, reason: str) -> Tuple[RunMetrics, Dict[str, Any]]:
        if mode == "serial-fallback":
            stats.serial_fallbacks = 1
            print(f"repro: shards={len(groups)}: {reason}; "
                  "re-running single-process", file=sys.stderr)
        metrics, _ = _run_serial(config, apps, measured_index, limit,
                                 stats)
        return metrics, _extra(mode, groups, None, stats)

    if len(groups) <= 1:
        return serial("serial", "single shard")
    plan = getattr(config, "faults", None)
    if plan is not None and not plan.is_null():
        # Fault injection couples shards through the injector's global
        # seeded schedule; not worth distributing.
        return serial("serial", "fault plan")
    if not fork_available():
        notice_serial_fallback("run_sharded")
        return serial("serial", "fork unavailable")

    free_run = _free_run_possible(apps, groups)
    lookahead = None if free_run else lookahead_for(config, groups)
    started = time.perf_counter()
    outcome = _run_workers(config, apps, measured_index, limit, groups,
                           lookahead, stats)
    if isinstance(outcome, str):
        return serial("serial-fallback", outcome)
    partials = outcome
    flags = sorted(set().union(*(p["flags"] for p in partials)))
    if free_run and any(p["cross_shard_sends"] for p in partials):
        flags.append("cross-shard-traffic-in-free-run")
    if not free_run and _occupancy_exceeded(partials,
                                            config.fabric_credits):
        flags.append("credit-limit-reached")
    if flags:
        stats.flags = tuple(flags)
        return serial("serial-fallback",
                      "coupling flags: " + ", ".join(flags))

    stats.encode_seconds = sum(p["encode_seconds"] for p in partials)
    if info is not None:
        info["shard_events"] = [p["events_executed"] for p in partials]
        info["shard_wall_seconds"] = [p["wall_seconds"]
                                      for p in partials]
        info["wall_seconds"] = time.perf_counter() - started
        info["encode_seconds"] = stats.encode_seconds
    metrics = derive(merge([p["harvest"] for p in partials]), name,
                     config.num_nodes)
    mode = "free-run" if free_run else "windowed"
    extra = _extra(mode, groups, lookahead, stats)
    snapshots = [snap for p in partials for snap in p["mailbox"]]
    if snapshots:
        extra["mailbox"] = _merge_mailbox_snapshots(snapshots)
        extra["queued_at_exit"] = sum(p["queued"] for p in partials)
    return metrics, extra


def _merge_mailbox_snapshots(snaps: List[Dict[str, Any]],
                             ) -> Dict[str, Any]:
    """Combine per-shard MailboxStats snapshots, each field by its
    declared shard rule."""
    shard_rules = {name: rule.shards for name, rule in rules(MailboxStats)}
    return {key: fold(shard_rules[key], [snap[key] for snap in snaps])
            for key in snaps[0]}


def _extra(mode: str, groups, lookahead,
           stats: ShardStats) -> Dict[str, Any]:
    return {
        "shard_mode": mode,
        "shards": stats.shards,
        "shard_groups": [list(group) for group in groups],
        "lookahead": lookahead,
        "shard_epochs": stats.epochs,
        "cross_shard_messages": stats.cross_shard_messages,
        "barrier_stalls": stats.barrier_stalls,
        "serial_fallbacks": stats.serial_fallbacks,
        "bytes_exchanged": stats.bytes_exchanged,
        "empty_epochs_coalesced": stats.empty_epochs_coalesced,
        "shard_flags": list(stats.flags),
    }


def _run_workers(config, apps, measured_index, limit, groups,
                 lookahead, stats: ShardStats):
    """Spawn one forked worker per shard and drive the barriers.

    Returns the list of per-shard harvest dicts, or an error string
    (worker traceback / protocol breakdown) meaning "fall back".
    """
    context = multiprocessing.get_context("fork")
    conns = []
    procs = []
    try:
        for index in range(len(groups)):
            parent_conn, child_conn = context.Pipe()
            proc = context.Process(
                target=shard_worker,
                args=(child_conn, index, groups, config, apps,
                      measured_index, lookahead, limit),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        if lookahead is not None:
            error = _drive_barriers(conns, groups, lookahead, stats)
        else:
            error = _drive_finish_alignment(conns)
        if error is not None:
            return error

        partials: List[Optional[Dict[str, Any]]] = [None] * len(conns)
        for index, conn in enumerate(conns):
            try:
                kind, payload = conn.recv()
            except (EOFError, OSError):
                return f"shard {index} died without a result"
            if kind == "error":
                return f"shard {index} failed:\n{payload}"
            partials[index] = payload
        return partials
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - cleanup path
                proc.terminate()
                proc.join()


def _drive_finish_alignment(conns) -> Optional[str]:
    """Free-run mode's one barrier: collect local finish times, send
    back the global finish cycle so early-finishing shards execute
    their queued tail work up to (not including) it — the events the
    monolithic engine ran between their local finish and its stop
    point. ``ties`` tells workers whether the last-finishing shard is
    unique (a tie makes pending work at the finish cycle ambiguous;
    see :mod:`repro.shard.worker`)."""
    finishes = []
    for index, conn in enumerate(conns):
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return f"shard {index} died before finish alignment"
        if message[0] == "error":
            return f"shard {index} failed:\n{message[1]}"
        if message[0] != "flocal":  # pragma: no cover - protocol bug
            return f"shard {index} sent unexpected {message[0]!r}"
        finishes.append(message[1])
    global_finish = max(finishes)
    ties = sum(1 for t in finishes if t == global_finish)
    for conn in conns:
        conn.send(("align", global_finish, ties))
    return None


def _drive_barriers(conns, groups, lookahead,
                    stats: ShardStats) -> Optional[str]:
    """The adaptive window loop: collect outboxes, route, re-bound.

    Reports carry ``(epoch, outbound, local_done, in_flight, executed,
    next_event)``. Each ``(wire, origin)`` entry of each shard's
    outbound list is appended to its owner's batch, shards taken in
    index order, so every origin's entries keep their send order. The
    next window bound is derived from the earliest pending event or
    routed arrival anywhere plus the static lookahead (see
    :func:`repro.shard.lookahead.next_window_bound`), so consecutive
    windows no shard has work for collapse into one.

    Termination: every shard reports local completion, nothing was
    exchanged this barrier, and no shard holds in-flight traffic — so
    no future window can contain any event that touches the job.
    """
    prev_bound = lookahead - 1
    while True:
        reports = []
        for index, conn in enumerate(conns):
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return f"shard {index} died mid-protocol"
            if message[0] == "error":
                return f"shard {index} failed:\n{message[1]}"
            if message[0] != "epoch":  # pragma: no cover - protocol bug
                return f"shard {index} sent unexpected {message[0]!r}"
            reports.append(message)
        stats.epochs += 1
        batches: List[List[Any]] = [[] for _ in conns]
        exchanged = 0
        min_arrival: Optional[int] = None
        for _, _, outbound, _, _, executed, _ in reports:
            if not executed:
                stats.barrier_stalls += 1
            for entry in outbound:
                wire = entry[0]
                batches[owner_of(groups, wire[1])].append(entry)  # dst
                arrival = wire[7]
                if min_arrival is None or arrival < min_arrival:
                    min_arrival = arrival
            if outbound:
                exchanged += len(outbound)
                stats.bytes_exchanged += len(pickle.dumps(outbound))
        stats.cross_shard_messages += exchanged
        all_done = all(report[3] for report in reports)
        in_flight = sum(report[4] for report in reports)
        if all_done and not exchanged and not in_flight:
            for conn in conns:
                conn.send(("finish",))
            return None
        next_events = [report[6] for report in reports]
        arrivals = [] if min_arrival is None else [min_arrival]
        bound = next_window_bound(prev_bound, next_events, arrivals,
                                  lookahead)
        if bound is None:
            return ("no shard has pending events but the job is "
                    "unfinished (protocol breakdown)")
        stats.empty_epochs_coalesced += windows_coalesced(
            prev_bound, bound, lookahead)
        prev_bound = bound
        for conn, batch in zip(conns, batches):
            conn.send(("continue", batch, bound))


__all__ = ["ShardStats", "run_sharded"]
