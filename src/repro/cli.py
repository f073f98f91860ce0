"""Command-line interface: regenerate any evaluation artifact.

Examples::

    python -m repro table4
    python -m repro table6 --scale fast
    python -m repro fig7 --skews 0 0.05 0.2 --trials 1
    python -m repro fig9 --trials 1
    python -m repro ablations
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.analysis.report import render_series, render_table


def _cache(args):
    """The persistent result cache, or None under ``--no-cache``."""
    from repro.runner import ResultCache

    return None if args.no_cache else ResultCache()


def _run_specs(args, specs):
    """Run ``specs`` under the command's ``--jobs`` and ``--no-cache``
    (Tables 4 and 5 take no ``--jobs``)."""
    from repro.runner import run_specs

    return run_specs(specs, jobs=getattr(args, "jobs", None),
                     cache=_cache(args))


def _add_faults_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", default="", metavar="PLAN",
        help="fault plan, e.g. 'drop=0.05,seed=7' "
             "(see docs/FAULTS.md; empty disables injection)")


def _add_runner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for independent runs "
             "(default: all CPUs; 1 disables parallelism)")
    _add_cache_flag(parser)


def _add_cache_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and don't write the persistent result cache "
             "(.repro_cache/)")


def _cmd_table4(args) -> None:
    from repro.experiments.micro import table4_fold, table4_specs

    results = table4_fold(_run_specs(args, table4_specs(args.rounds)))
    rows = []
    for r in results:
        fast = r.model.fast
        rows.append([
            r.mode.value, fast.send_total, fast.receive_interrupt_total,
            f"{r.measured_receive_interrupt:.0f}",
            fast.receive_polling_total,
        ])
    print(render_table(
        "Table 4: null-message fast-path costs (cycles)",
        ["mode", "send", "recv-int (paper)", "recv-int (measured)",
         "poll"], rows,
    ))


def _cmd_table5(args) -> None:
    from repro.experiments.micro import buffered_path_spec, table5_fold

    result = table5_fold(_run_specs(args,
                                    [buffered_path_spec(args.rounds)]))
    print(render_table(
        "Table 5: software-buffer overheads (cycles)",
        ["item", "paper", "measured"],
        [
            ["minimum buffer-insert handler", 180,
             f"{result.measured_insert_min:.0f}"],
            ["maximum handler (w/vmalloc)", 3162,
             f"{result.measured_insert_vmalloc:.0f}"],
            ["execute null handler from buffer", 52,
             f"{result.measured_extract:.0f}"],
            ["total per buffered message", 232,
             f"{result.measured_per_message:.0f}"],
        ],
    ))


def _cmd_table6(args) -> None:
    from repro.experiments.standalone import table6_fold, table6_specs

    rows = table6_fold(_run_specs(
        args, table6_specs(scale=args.scale, faults=args.faults)))
    print(render_table(
        "Table 6: standalone application characteristics (8 nodes)",
        ["app", "model", "cycles", "msgs", "T_betw", "T_betw(paper)",
         "T_hand", "T_hand(paper)"],
        [[r.name, r.model, r.metrics.elapsed_cycles,
          r.metrics.messages_sent, f"{r.metrics.t_betw:.0f}",
          f"{r.paper['t_betw']:.0f}", f"{r.metrics.t_hand:.0f}",
          f"{r.paper['t_hand']:.0f}"] for r in rows],
    ))


def _sweep(args):
    from repro.experiments.multiprog import (
        full_sweep_fold, full_sweep_specs,
    )

    return full_sweep_fold(_run_specs(args, full_sweep_specs(
        skews=tuple(args.skews), trials=args.trials, scale=args.scale,
        faults=args.faults)))


def _cmd_fig7(args) -> None:
    results = _sweep(args)
    print(render_series(
        "Figure 7: % messages buffered vs schedule skew",
        "skew", [f"{s:.0%}" for s in args.skews],
        [(name, sweep.buffered_percent)
         for name, sweep in results.items()],
        y_format="{:.2f}",
    ))
    print()
    print(render_table(
        "Physical buffer pages (max over nodes and trials)",
        ["app"] + [f"{s:.0%}" for s in args.skews],
        [[name] + sweep.max_pages for name, sweep in results.items()],
    ))


def _cmd_fig8(args) -> None:
    results = _sweep(args)
    print(render_series(
        "Figure 8: relative runtime vs schedule skew",
        "skew", [f"{s:.0%}" for s in args.skews],
        [(name, sweep.relative_runtime)
         for name, sweep in results.items()],
        y_format="{:.3f}",
    ))


def _cmd_fig9(args) -> None:
    from repro.experiments.synth_sweeps import (
        interval_fold, interval_specs,
    )

    result = interval_fold(_run_specs(args, interval_specs(
        trials=args.trials, messages_per_node=args.messages,
        shards=args.shards)))
    print(render_series(
        "Figure 9: % buffered vs send interval (synth-N, 1% skew)",
        result.x_label, result.xs, result.series_pairs(),
        y_format="{:.2f}",
    ))


def _cmd_fig10(args) -> None:
    from repro.experiments.synth_sweeps import (
        buffer_cost_fold, buffer_cost_specs,
    )

    result = buffer_cost_fold(_run_specs(args, buffer_cost_specs(
        trials=args.trials, messages_per_node=args.messages,
        shards=args.shards)))
    print(render_series(
        "Figure 10: % buffered vs buffered-path cost (T_betw=275)",
        result.x_label, result.xs, result.series_pairs(),
        y_format="{:.2f}",
    ))


def _cmd_shard(args) -> int:
    """Sharded-execution smoke: run one synth config serially and
    sharded, show the protocol counters, verify bit-identity."""
    from dataclasses import asdict

    from repro.experiments.synth_sweeps import run_synth

    kwargs = dict(group_size=args.group, t_betw=args.t_betw,
                  seed=args.seed, messages_per_node=args.messages,
                  num_nodes=args.nodes,
                  locality_groups=args.locality_groups,
                  net_base_latency=args.net_base_latency)
    serial = run_synth(**kwargs)
    extra: dict = {}
    info: dict = {}
    sharded = run_synth(shards=args.shards, extra_out=extra, info=info,
                        **kwargs)
    mismatches = [
        (key, value, asdict(sharded)[key])
        for key, value in asdict(serial).items()
        if value != asdict(sharded)[key]
    ]
    print(render_table(
        f"Sharded execution smoke (synth-{args.group}, "
        f"{args.nodes} nodes, --shards {args.shards})",
        ["quantity", "value"],
        [
            ["mode", extra.get("shard_mode", "?")],
            ["shard groups", str(extra.get("shard_groups"))],
            ["lookahead (cycles)", str(extra.get("lookahead"))],
            ["window barriers", extra.get("shard_epochs", 0)],
            ["cross-shard messages",
             extra.get("cross_shard_messages", 0)],
            ["barrier stalls", extra.get("barrier_stalls", 0)],
            ["windows coalesced",
             extra.get("empty_epochs_coalesced", 0)],
            ["exchange bytes", extra.get("bytes_exchanged", 0)],
            ["encode seconds",
             f"{info['encode_seconds']:.4f}"
             if "encode_seconds" in info else "n/a"],
            ["serial fallbacks", extra.get("serial_fallbacks", 0)],
            ["coupling flags",
             ", ".join(extra.get("shard_flags", [])) or "none"],
            ["wall seconds (sharded)",
             f"{info['wall_seconds']:.3f}" if "wall_seconds" in info
             else "n/a (serial path)"],
            ["metrics identical to serial",
             "yes" if not mismatches else "NO"],
        ],
    ))
    if mismatches:
        print("\nFAIL: sharded metrics diverge from single-process:")
        for key, serial_value, sharded_value in mismatches:
            print(f"  {key}: serial={serial_value!r} "
                  f"sharded={sharded_value!r}")
        return 1
    return 0


def _cmd_ablations(args) -> None:
    from repro.experiments.ablations import ablation_points, ablation_specs

    studies = ablation_points(_run_specs(args, ablation_specs()))
    points = studies["ablate_two_case"]
    print(render_table(
        "Two-case vs always-buffered (barrier)",
        ["config", "runtime", "buffered %"],
        [[p.label, p.metrics.elapsed_cycles,
          f"{p.metrics.buffered_fraction:.0%}"] for p in points],
    ))
    print()
    points = studies["ablate_timeout"]
    print(render_table(
        "Atomicity-timeout sweep (barnes vs null, 5% skew)",
        ["config", "runtime", "buffered %", "revocations"],
        [[p.label, p.metrics.elapsed_cycles,
          f"{p.metrics.buffered_fraction:.2%}",
          p.metrics.revocations] for p in points],
    ))
    print()
    points = studies["ablate_queue_depth"]
    print(render_table(
        "NI input-queue depth (synth-100)",
        ["config", "runtime", "max backlog", "sender blocks"],
        [[p.label, p.metrics.elapsed_cycles,
          int(p.extra["max_network_backlog"]),
          int(p.extra["sender_blocks"])] for p in points],
    ))
    print()
    points = studies["ablate_architecture"]
    print(render_table(
        "Figure 1 architectures (barrier)",
        ["config", "runtime", "resident pages"],
        [[p.label, p.metrics.elapsed_cycles,
          int(p.extra["resident_buffer_pages"])] for p in points],
    ))
    print()
    points = studies["ablate_bulk"]
    print(render_table(
        "Fragmented vs bulk-DMA CRL transfers",
        ["config", "runtime", "messages"],
        [[p.label, p.metrics.elapsed_cycles,
          p.metrics.messages_sent] for p in points],
    ))


def _cmd_delivery(args) -> None:
    from repro.experiments.ablations import ablation_points, delivery_specs

    points = ablation_points(_run_specs(
        args, delivery_specs(num_nodes=args.nodes)))["ablate_delivery"]
    print(render_table(
        "Delivery disciplines head-to-head (synth-100, overload)",
        ["discipline", "runtime", "buffered %", "pinned pages",
         "queue peak", "fault traps", "evictions"],
        [[p.label, p.metrics.elapsed_cycles,
          f"{p.metrics.buffered_fraction:.1%}",
          p.metrics.pinned_pages_peak,
          p.metrics.damq_peak_occupancy,
          p.metrics.delivery_fault_traps,
          p.metrics.damq_evictions] for p in points],
    ))


def _cmd_mailbox(args) -> int:
    from repro.experiments.mailbox_sweeps import mailbox_spec
    from repro.faults.plan import FaultPlan

    plan = FaultPlan.parse(args.faults) if args.faults else None
    canonical = plan.describe() if plan is not None else ""
    # Locality groups aligned with the shard count let the sharded run
    # free-run without barriers. Grouping changes the workload's
    # placement, so the serial ground-truth run uses the same grouping;
    # only the execution strategy differs between the two specs.
    groups = args.shards if args.shards > 1 else 0
    spec = mailbox_spec(
        clients=args.clients, recipients=args.recipients,
        messages=args.messages, seed=args.seed,
        delivery=args.delivery, faults=canonical,
        locality_groups=groups,
    )
    specs = [spec]
    if args.shards > 1:
        specs.append(mailbox_spec(
            clients=args.clients, recipients=args.recipients,
            messages=args.messages, seed=args.seed,
            delivery=args.delivery, faults=canonical,
            shards=args.shards, locality_groups=args.shards,
        ))
    results = _run_specs(args, specs)
    result = results[0]
    metrics = result.require()
    extra = result.extra or {}
    mb = extra.get("mailbox", {})
    cached = " [cached]" if result.cached else ""
    sharded_note = (f", shards={args.shards}" if args.shards > 1 else "")
    print(render_table(
        f"Mailbox workload: {args.clients:,} clients, "
        f"{args.recipients} recipients, {args.messages} msgs/gateway "
        f"(delivery={args.delivery}, "
        f"faults={canonical or 'none'}{sharded_note}){cached}",
        ["metric", "value"],
        [
            ["elapsed cycles", metrics.elapsed_cycles],
            ["submissions (incl. client dups)", mb.get("submitted", 0)],
            ["enqueued", metrics.mailbox_enqueued],
            ["delivered", mb.get("delivered", 0)],
            ["buffered fraction",
             f"{metrics.buffered_fraction:.1%}"],
            ["peak buffer pages", metrics.max_buffer_pages],
            ["active flows peak (cap)",
             f"{metrics.mailbox_active_flows_peak}"],
            ["mailbox occupancy peak", metrics.mailbox_occupancy_peak],
            ["overflow drops", metrics.mailbox_overflow_drops],
            ["duplicates suppressed", metrics.mailbox_dup_suppressed],
            ["retrieval latency (mean cycles)",
             f"{metrics.retrieval_latency_mean:.0f}"],
            ["reconnects", mb.get("reconnects", 0)],
            ["crashes / losses / replays",
             f"{mb.get('crashes', 0)} / {mb.get('crash_losses', 0)} / "
             f"{metrics.mailbox_replays}"],
            ["retransmissions", metrics.retries],
            ["queued at exit", extra.get("queued_at_exit", 0)],
        ],
    ))
    if args.shards > 1:
        from dataclasses import asdict

        sharded = results[1]
        sharded_metrics = sharded.require()
        sharded_extra = sharded.extra or {}
        mismatches = [
            (key, value, asdict(sharded_metrics)[key])
            for key, value in asdict(metrics).items()
            if value != asdict(sharded_metrics)[key]
        ]
        print()
        print(render_table(
            f"Sharded execution (--shards {args.shards}, locality "
            f"groups {args.shards})",
            ["quantity", "value"],
            [
                ["mode", sharded_extra.get("shard_mode", "?")],
                ["window barriers",
                 sharded_extra.get("shard_epochs", 0)],
                ["cross-shard messages",
                 sharded_extra.get("cross_shard_messages", 0)],
                ["exchange bytes",
                 sharded_extra.get("bytes_exchanged", 0)],
                ["serial fallbacks",
                 sharded_extra.get("serial_fallbacks", 0)],
                ["coupling flags",
                 ", ".join(sharded_extra.get("shard_flags", []))
                 or "none"],
                ["metrics identical to serial",
                 "yes" if not mismatches else "NO"],
            ],
        ))
        if mismatches:
            print("\nFAIL: sharded metrics diverge from "
                  "single-process:")
            for key, serial_value, sharded_value in mismatches:
                print(f"  {key}: serial={serial_value!r} "
                      f"sharded={sharded_value!r}")
            return 1
    if args.check_buffered and metrics.buffered_fraction == 0:
        print("\nFAIL: buffered fraction is zero — the open-loop "
              "fan-in did not exercise two-case buffering")
        return 1
    return 0


def _cmd_faultdemo(args) -> None:
    from repro.faults.plan import FaultPlan
    from repro.faults.runner import faulted_spec

    plan = FaultPlan.parse(args.faults) if args.faults else None
    canonical = plan.describe() if plan is not None else ""
    spec = faulted_spec(
        num_nodes=args.nodes, messages=args.messages, seed=args.seed,
        faults=canonical, retries=not args.no_retries,
        delivery=args.delivery,
    )
    result = _run_specs(args, [spec])[0]
    metrics = result.require()
    extra = result.extra or {}
    print(render_table(
        "Fault-injection demo: reliable all-pairs "
        f"({args.nodes} nodes x {args.messages} msgs, "
        f"faults={canonical or 'none'}, "
        f"retries={'off' if args.no_retries else 'on'})",
        ["metric", "value"],
        [
            ["elapsed cycles", metrics.elapsed_cycles],
            ["messages sent", metrics.messages_sent],
            ["fabric drops (planned)", metrics.messages_dropped],
            ["fabric duplicates", metrics.messages_duplicated],
            ["retransmissions", metrics.retries],
            ["acks sent", extra.get("acks_sent", 0)],
            ["duplicates suppressed",
             extra.get("duplicates_suppressed", 0)],
            ["retry budget exhausted", extra.get("gave_up", 0)],
            ["invariant violations", metrics.invariant_violations],
        ],
    ))
    if metrics.invariant_violations:
        codes = extra.get("violation_codes", "")
        print(f"\nviolation codes: {codes}")
        details = extra.get("transport_violations", "")
        if details:
            print(details)


def _cmd_stats(args) -> None:
    from repro.obs import render_obs_report, write_jsonl

    if args.kind == "standalone":
        from repro.experiments.standalone import standalone_spec

        spec = standalone_spec(args.name, num_nodes=args.nodes,
                               seed=args.seed, scale=args.scale,
                               faults=args.faults, obs=True,
                               obs_interval=args.interval)
        title = f"standalone {args.name} ({args.scale}, seed {args.seed})"
    else:
        from repro.experiments.multiprog import multiprog_spec

        spec = multiprog_spec(args.name, args.skew, seed=args.seed,
                              num_nodes=args.nodes, scale=args.scale,
                              timeslice=args.timeslice,
                              faults=args.faults, obs=True,
                              obs_interval=args.interval)
        title = (f"multiprog {args.name} vs null (skew {args.skew:.0%}, "
                 f"{args.scale}, seed {args.seed})")
    result = _run_specs(args, [spec])[0]
    result.require()
    payload = (result.extra or {}).get("obs")
    if payload is None:
        print("run produced no observability payload "
              "(stale cache entry? try --no-cache)")
        return
    cached = " [cached]" if result.cached else ""
    print(render_obs_report(title + cached, payload))
    if args.export:
        lines = write_jsonl(args.export, payload, spec=spec.describe())
        print(f"\nwrote {lines} JSONL lines to {args.export}")


def _cmd_report(args) -> int:
    from pathlib import Path

    from repro.validate import run_report

    return run_report(
        only=args.only or None,
        goldens_path=Path(args.goldens) if args.goldens else None,
        out_dir=Path(args.out) if args.out else None,
        experiments_path=(Path(args.experiments)
                          if args.experiments else None),
        update=args.update_goldens, check=args.check,
        jobs=args.jobs, cache=_cache(args),
    )


def _cmd_cache(args) -> None:
    from repro.runner import ResultCache

    cache = ResultCache()
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache.directory}")
        return
    if args.prune:
        report = cache.prune()
        print(f"pruned {report.stale} stale entries and {report.tmp} "
              f"orphaned temp files from {cache.directory} "
              f"({report.kept} kept)")
        return
    print(f"cache {cache.directory}: {len(cache)} entries")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
        epilog="`repro report` is the single supported entry point for "
               "regenerating every paper artifact, validating it "
               "against goldens/paper.json, and rewriting "
               "EXPERIMENTS.md (see docs/VALIDATION.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p4 = sub.add_parser("table4", help="fast-path cycle costs")
    p4.add_argument("--rounds", type=int, default=300)
    # Tables 4 and 5 are three runs and one: too few for the runner to
    # fan out, so they take no --jobs.
    _add_cache_flag(p4)
    p4.set_defaults(fn=_cmd_table4)

    p5 = sub.add_parser("table5", help="buffered-path cycle costs")
    p5.add_argument("--rounds", type=int, default=400)
    _add_cache_flag(p5)
    p5.set_defaults(fn=_cmd_table5)

    p6 = sub.add_parser("table6", help="application characteristics")
    p6.add_argument("--scale", choices=("fast", "bench"), default="bench")
    _add_faults_flag(p6)
    _add_runner_flags(p6)
    p6.set_defaults(fn=_cmd_table6)

    for name, fn in (("fig7", _cmd_fig7), ("fig8", _cmd_fig8)):
        p = sub.add_parser(name, help="multiprogrammed skew sweep")
        p.add_argument("--skews", type=float, nargs="+",
                       default=[0.0, 0.01, 0.02, 0.05, 0.10, 0.20])
        p.add_argument("--trials", type=int, default=3)
        p.add_argument("--scale", choices=("fast", "bench"),
                       default="bench")
        _add_faults_flag(p)
        _add_runner_flags(p)
        p.set_defaults(fn=fn)

    for name, fn in (("fig9", _cmd_fig9), ("fig10", _cmd_fig10)):
        p = sub.add_parser(name, help="synth-N sweep")
        p.add_argument("--trials", type=int, default=3)
        p.add_argument("--messages", type=int, default=2000)
        p.add_argument("--shards", type=int, default=1,
                       help="shard worker processes per run (results "
                            "are bit-identical; see docs/SIMULATION.md)")
        _add_runner_flags(p)
        p.set_defaults(fn=fn)

    psh = sub.add_parser(
        "shard",
        help="sharded-execution smoke: one synth run serial vs "
             "sharded, with a bit-identity check")
    psh.add_argument("--shards", type=int, default=2,
                     help="shard worker processes (default 2)")
    psh.add_argument("--nodes", type=int, default=4)
    psh.add_argument("--group", type=int, default=10,
                     help="synth-N group size")
    psh.add_argument("--t-betw", type=int, default=275)
    psh.add_argument("--messages", type=int, default=50,
                     help="requests per node")
    psh.add_argument("--seed", type=int, default=1)
    psh.add_argument("--locality-groups", type=int, default=0,
                     help="confine synth traffic to N contiguous node "
                          "groups (aligned groups let shards free-run "
                          "without barriers)")
    psh.add_argument("--net-base-latency", type=int, default=10,
                     help="fabric base latency in cycles (default 10); "
                          "WAN-scale values, e.g. 2000, give the "
                          "windowed protocol enough lookahead to "
                          "amortize barriers on all-to-all traffic")
    psh.set_defaults(fn=_cmd_shard)

    pa = sub.add_parser("ablations", help="design-choice ablations")
    _add_runner_flags(pa)
    pa.set_defaults(fn=_cmd_ablations)

    pd = sub.add_parser(
        "delivery",
        help="delivery disciplines head-to-head "
             "(two-case vs zero-copy rings vs DAMQ)")
    pd.add_argument("--nodes", type=int, default=4)
    _add_runner_flags(pd)
    pd.set_defaults(fn=_cmd_delivery)

    pm = sub.add_parser(
        "mailbox",
        help="internet-scale mailbox workload (open-loop heavy-tailed "
             "fan-in over always-on two-case mailbox nodes)")
    pm.add_argument("--clients", type=int, default=100_000,
                    help="logical client population (aggregated into "
                         "bounded flow objects; millions are fine)")
    pm.add_argument("--recipients", type=int, default=48)
    pm.add_argument("--messages", type=int, default=400,
                    help="submissions per gateway node")
    pm.add_argument("--seed", type=int, default=1)
    pm.add_argument("--delivery",
                    choices=("twocase", "zerocopy", "damq"),
                    default="twocase",
                    help="NI delivery discipline (see docs/DELIVERY.md)")
    pm.add_argument("--shards", type=int, default=1,
                    help="also run the workload across N shard worker "
                         "processes (locality groups = N) and verify "
                         "the metrics are bit-identical to the serial "
                         "run; N must divide the gateway, mailbox and "
                         "recipient counts")
    pm.add_argument("--check-buffered", action="store_true",
                    help="exit non-zero unless the run exercised the "
                         "buffered path (CI smoke gate)")
    _add_faults_flag(pm)
    _add_runner_flags(pm)
    pm.set_defaults(fn=_cmd_mailbox)

    pf = sub.add_parser(
        "faultdemo",
        help="reliable messaging over an injected-fault fabric")
    _add_faults_flag(pf)
    pf.add_argument("--nodes", type=int, default=4)
    pf.add_argument("--messages", type=int, default=8,
                    help="messages per node (round-robin all-pairs)")
    pf.add_argument("--seed", type=int, default=7)
    pf.add_argument("--no-retries", action="store_true",
                    help="disable the ack/retry layer (negative "
                         "control: the checker then reports the "
                         "planned losses)")
    pf.add_argument("--delivery",
                    choices=("twocase", "zerocopy", "damq"),
                    default="twocase",
                    help="NI delivery discipline (see docs/DELIVERY.md)")
    _add_runner_flags(pf)
    pf.set_defaults(fn=_cmd_faultdemo)

    ps = sub.add_parser(
        "stats",
        help="per-subsystem observability report for one spec")
    ps.add_argument("kind", choices=("standalone", "multiprog"),
                    help="which executor to observe")
    ps.add_argument("--name", default="barrier",
                    help="workload name (default: barrier)")
    ps.add_argument("--skew", type=float, default=0.05,
                    help="schedule skew (multiprog only)")
    ps.add_argument("--nodes", type=int, default=8)
    ps.add_argument("--seed", type=int, default=1)
    ps.add_argument("--scale", choices=("fast", "bench"), default="fast")
    ps.add_argument("--timeslice", type=int, default=500_000,
                    help="gang-scheduler timeslice (multiprog only)")
    ps.add_argument("--interval", type=int, default=100_000,
                    help="timeline sample interval, cycles")
    ps.add_argument("--export", metavar="FILE", default=None,
                    help="also write the payload as JSONL")
    _add_faults_flag(ps)
    _add_runner_flags(ps)
    ps.set_defaults(fn=_cmd_stats)

    pr = sub.add_parser(
        "report",
        help="regenerate every artifact, validate against goldens, "
             "emit the report bundle and EXPERIMENTS.md")
    pr.add_argument("--check", action="store_true",
                    help="CI mode: exit non-zero when any quantity "
                         "drifts out of its tolerance band")
    pr.add_argument("--update-goldens", action="store_true",
                    help="re-stamp goldens/paper.json from this run "
                         "(predicates must hold; review the diff)")
    pr.add_argument("--only", nargs="+", metavar="ARTIFACT",
                    default=None,
                    help="restrict to these artifact ids "
                         "(table4 table5 table6 fig7 fig8 fig9 fig10 "
                         "ablations delivery_headtohead "
                         "mailbox_scaling)")
    pr.add_argument("--goldens", metavar="FILE", default=None,
                    help="goldens file (default: goldens/paper.json)")
    pr.add_argument("--out", metavar="DIR", default=None,
                    help="report bundle directory (default: report/)")
    pr.add_argument("--experiments", metavar="FILE", default=None,
                    help="EXPERIMENTS.md path to rewrite "
                         "(default: the repo's)")
    _add_runner_flags(pr)
    pr.set_defaults(fn=_cmd_report)

    pc = sub.add_parser(
        "cache", help="inspect or maintain the persistent result cache")
    pc.add_argument("--prune", action="store_true",
                    help="remove stale-version entries and orphaned "
                         "temp files")
    pc.add_argument("--clear", action="store_true",
                    help="remove every cached entry")
    pc.set_defaults(fn=_cmd_cache)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    code = args.fn(args)
    return 0 if code is None else int(code)
