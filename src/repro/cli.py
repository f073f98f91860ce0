"""Command-line interface: regenerate any evaluation artifact.

Examples::

    python -m repro table4
    python -m repro table6 --scale fast
    python -m repro fig7 --skews 0 0.05 0.2 --trials 1
    python -m repro fig9 --trials 1
    python -m repro ablations

Each artifact command runs its artifact's plan
(:attr:`~repro.validate.artifacts.ArtifactSpec.runs`) and prints the
artifact's fold exactly as EXPERIMENTS.md renders it. The command's plan
flags are the keyword parameters of the plan builder; a flag left out
keeps the report's value.
"""

from __future__ import annotations

import argparse
import inspect
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.report import render_table

_FAULTS_HELP = ("fault plan, e.g. 'drop=0.05,seed=7' "
                "(see docs/FAULTS.md; empty disables injection)")
_LOSSLESS_FAULTS_HELP = ("lossless fault plan, e.g. 'stall=0.05,seed=7' "
                         "(see docs/FAULTS.md; empty disables injection)")


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


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def _lossless_faults(text: str) -> str:
    from repro.faults.plan import require_lossless

    try:
        return require_lossless(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_faults_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--faults", default="", metavar="PLAN",
                        help=_FAULTS_HELP)


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


#: argparse settings of each plan flag, by the keyword parameter of the
#: plan builder it sets. The default is the builder's.
_PLAN_FLAGS: Dict[str, Dict[str, Any]] = {
    "rounds": dict(type=int, help="measurement rounds"),
    "scale": dict(choices=("fast", "bench"), help="application scale"),
    "faults": dict(metavar="PLAN", type=_lossless_faults,
                   help=_LOSSLESS_FAULTS_HELP),
    "skews": dict(type=float, nargs="+", help="schedule skews"),
    "trials": dict(type=int, help="seeded trials per point"),
    "messages": dict(type=int, help="requests per node"),
    "shards": dict(type=int,
                   help="shard worker processes per run (results are "
                        "bit-identical; see docs/SIMULATION.md)"),
    "nodes": dict(type=int, help="nodes"),
}


def _plan_defaults(artifact_id: str) -> Dict[str, Any]:
    """The plan flags of an artifact, with the report's values."""
    from repro.validate.artifacts import ARTIFACTS

    params = inspect.signature(ARTIFACTS[artifact_id].runs).parameters
    return {name: param.default for name, param in params.items()}


def _flag_text(value: Any) -> str:
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


def _plan_line(artifact_id: str, plan: Dict[str, Any]) -> str:
    """One line naming the plan flags whose values differ from the
    report's (a title such as Table 6's "bench scale" may not hold)."""
    defaults = _plan_defaults(artifact_id)
    changed = [f"--{name} {_flag_text(value)}"
               for name, value in plan.items()
               if _flag_text(value) != _flag_text(defaults[name])]
    return "plan: the report's" + (", except " + " ".join(changed)
                                   if changed else "")


def _cmd_artifact(args) -> None:
    from repro.runner import require_all
    from repro.validate.artifacts import ARTIFACTS
    from repro.validate.render import render_artifact_text

    spec = ARTIFACTS[args.artifact]
    plan = {name: getattr(args, name)
            for name in _plan_defaults(args.artifact)}
    results = _run_specs(args, spec.runs(**plan))
    require_all(results)
    print(_plan_line(args.artifact, plan))
    print(render_artifact_text(args.artifact, spec.fold(results).doc))


def _print_shard_verdict(title: str, rows: List[List[Any]],
                         serial, sharded) -> bool:
    """Print a sharded run's table, ending in whether its metrics equal
    the serial run's, then each diverging field. True when identical."""
    serial_fields, sharded_fields = asdict(serial), asdict(sharded)
    mismatches = [(key, value, sharded_fields[key])
                  for key, value in serial_fields.items()
                  if value != sharded_fields[key]]
    print(render_table(title, ["quantity", "value"], rows + [
        ["metrics identical to serial", "NO" if mismatches else "yes"]]))
    if mismatches:
        print("\nFAIL: sharded metrics diverge from single-process:")
        for key, serial_value, sharded_value in mismatches:
            print(f"  {key}: serial={serial_value!r} "
                  f"sharded={sharded_value!r}")
    return not mismatches


def _cmd_shard(args) -> int:
    """Sharded-execution smoke: run one synth config serially and
    sharded, show the protocol counters, verify bit-identity."""
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
    identical = _print_shard_verdict(
        f"Sharded execution smoke (synth-{args.group}, "
        f"{args.nodes} nodes, --shards {args.shards})",
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
        ], serial, sharded)
    return 0 if identical else 1


def _cmd_mailbox(args) -> int:
    from repro.faults.plan import FaultPlan
    from repro.runner import bind_spec

    plan = FaultPlan.parse(args.faults) if args.faults else None
    canonical = plan.describe() if plan is not None else ""
    # Locality groups aligned with the shard count let the sharded run
    # free-run without barriers. Grouping changes the workload's
    # placement, so the serial ground-truth run uses the same grouping;
    # only the execution strategy differs between the two specs.
    params = dict(clients=args.clients, recipients=args.recipients,
                  messages=args.messages, seed=args.seed,
                  delivery=args.delivery, faults=canonical)
    groups = args.shards if args.shards > 1 else 0
    specs = [bind_spec("mailbox", locality_groups=groups, **params)]
    if args.shards > 1:
        specs.append(bind_spec("mailbox", shards=args.shards,
                               locality_groups=args.shards, **params))
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
        sharded = results[1]
        sharded_metrics = sharded.require()
        sharded_extra = sharded.extra or {}
        print()
        if not _print_shard_verdict(
                f"Sharded execution (--shards {args.shards}, locality "
                f"groups {args.shards})",
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
                ], metrics, sharded_metrics):
            return 1
    if args.check_buffered and metrics.buffered_fraction == 0:
        print("\nFAIL: buffered fraction is zero — the open-loop "
              "fan-in did not exercise two-case buffering")
        return 1
    return 0


def _cmd_faultdemo(args) -> int:
    from repro.faults.plan import FaultPlan
    from repro.runner import bind_spec

    plan = FaultPlan.parse(args.faults) if args.faults else None
    canonical = plan.describe() if plan is not None else ""
    spec = bind_spec(
        "faulted", num_nodes=args.nodes, messages=args.messages,
        seed=args.seed, faults=canonical, retries=not args.no_retries,
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
        return 1
    return 0


def _cmd_stats(args) -> int:
    from repro.obs import render_obs_report, write_jsonl
    from repro.runner import bind_spec

    params = dict(name=args.name, num_nodes=args.nodes, seed=args.seed,
                  scale=args.scale, faults=args.faults,
                  obs_interval=args.interval)
    if args.kind == "standalone":
        spec = bind_spec("standalone", **params)
        title = f"standalone {args.name} ({args.scale}, seed {args.seed})"
    else:
        spec = bind_spec("multiprog", skew=args.skew,
                         timeslice=args.timeslice, **params)
        title = (f"multiprog {args.name} vs null (skew {args.skew:.0%}, "
                 f"{args.scale}, seed {args.seed})")
    result = _run_specs(args, [spec])[0]
    result.require()
    payload = (result.extra or {}).get("obs")
    if payload is None:
        print("run produced no observability payload "
              "(stale cache entry? try --no-cache)")
        return 1
    cached = " [cached]" if result.cached else ""
    print(render_obs_report(title + cached, payload))
    if args.export:
        lines = write_jsonl(args.export, payload, spec=spec.describe())
        print(f"\nwrote {lines} JSONL lines to {args.export}")
    return 0


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
    from repro.validate.artifacts import ARTIFACTS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
        epilog="`repro report` is the single supported entry point for "
               "regenerating every paper artifact, validating it "
               "against goldens/paper.json, and rewriting "
               "EXPERIMENTS.md (see docs/VALIDATION.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for artifact_id, spec in ARTIFACTS.items():
        # argparse %-formats help text.
        p = sub.add_parser(spec.command,
                           help=spec.title.replace("%", "%%"))
        for name, default in _plan_defaults(artifact_id).items():
            flag = dict(_PLAN_FLAGS[name])
            flag["help"] += (" (default: the report's plan, "
                             f"{_flag_text(default) or 'none'})")
            p.add_argument(f"--{name}", default=default, **flag)
        # Tables 4 and 5 are three runs and one: too few for the runner
        # to fan out, so they take no --jobs.
        if artifact_id in ("table4", "table5"):
            _add_cache_flag(p)
        else:
            _add_runner_flags(p)
        p.set_defaults(fn=_cmd_artifact, artifact=artifact_id)

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
                         "planned losses, and the command exits 1)")
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
    ps.add_argument("--interval", type=_positive_int, default=100_000,
                    help="timeline sample interval, cycles")
    ps.add_argument("--export", metavar="FILE", default=None,
                    help="also write the payload as JSONL")
    ps.add_argument("--faults", default="", metavar="PLAN",
                    type=_lossless_faults, help=_LOSSLESS_FAULTS_HELP)
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
