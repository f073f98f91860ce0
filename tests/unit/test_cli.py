"""CLI: argument parsing and the fast end-to-end commands."""

import pytest

import repro.cli as cli
from repro.analysis.metrics import RunMetrics
from repro.cli import build_parser, main
from repro.runner import RunResult, RunSpec
from repro.runner.spec import spec_key
from repro.validate.artifacts import ARTIFACTS
from repro.validate.render import render_artifact_text


class _Planned(Exception):
    """Stops a command once it has built its plan."""


def _record_results(monkeypatch):
    """Let ``_run_specs`` run, keeping each batch of results."""
    batches = []
    run = cli._run_specs

    def recording(args, specs):
        batches.append(run(args, specs))
        return batches[-1]

    monkeypatch.setattr(cli, "_run_specs", recording)
    return batches


#: Each artifact's command, in registry order.
COMMANDS = {spec.command: artifact_id
            for artifact_id, spec in ARTIFACTS.items()}


def _fake_results(monkeypatch, *results):
    monkeypatch.setattr(cli, "_run_specs", lambda args, specs: list(results))


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table4_defaults(self):
        args = build_parser().parse_args(["table4"])
        assert args.rounds == 300

    def test_fig7_accepts_skew_list(self):
        args = build_parser().parse_args(
            ["fig7", "--skews", "0", "0.1", "--trials", "1"]
        )
        assert args.skews == [0.0, 0.1]
        assert args.trials == 1

    def test_fig9_messages_knob(self):
        args = build_parser().parse_args(["fig9", "--messages", "500"])
        assert args.messages == 500

    @pytest.mark.parametrize("argv", [["--help"]] + [
        [command, "--help"] for command in COMMANDS])
    def test_help_renders(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 0
        assert "usage: repro" in capsys.readouterr().out

    @pytest.mark.parametrize("artifact_id", list(ARTIFACTS))
    def test_artifact_command_prints_its_own_artifact(self, artifact_id):
        args = build_parser().parse_args([ARTIFACTS[artifact_id].command])
        assert args.fn is cli._cmd_artifact
        assert args.artifact == artifact_id

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    @pytest.mark.parametrize("command", [
        ["table6"], ["fig7"], ["fig8"], ["stats", "standalone"],
        ["stats", "multiprog"]])
    @pytest.mark.parametrize("plan", [
        "drop=0.01,seed=3", "duplicate=0.1", "reorder=50,stall=0.1"])
    def test_raw_udm_commands_reject_lossy_plans(self, command, plan,
                                                 capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["--faults", plan])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "stall, spike, expiries, page_fault_rate" in err

    def test_raw_udm_commands_accept_lossless_plans(self):
        args = build_parser().parse_args(
            ["table6", "--faults", "stall=0.05,seed=7"])
        assert args.faults == "stall=0.05,seed=7"


class TestCommands:
    def test_table4_runs_and_prints(self, capsys):
        assert main(["table4", "--rounds", "60"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "87" in out  # the hard-atomicity total

    def test_table5_runs_and_prints(self, capsys):
        assert main(["table5", "--rounds", "100"]) == 0
        out = capsys.readouterr().out
        assert "232" in out

    def test_table6_fast_scale(self, capsys):
        assert main(["table6", "--scale", "fast"]) == 0
        out = capsys.readouterr().out
        assert "barrier" in out and "lu" in out


class TestArtifactCommands:
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_no_flag_plan_is_the_reports(self, command, monkeypatch):
        """A command without plan flags is a replay of the report's
        runs, so a warm cache serves it without simulating."""
        planned = []

        def capture(args, specs):
            planned.extend(specs)
            raise _Planned

        monkeypatch.setattr(cli, "_run_specs", capture)
        with pytest.raises(_Planned):
            main([command])
        artifact_id = COMMANDS[command]
        assert [spec_key(s) for s in planned] == \
            [spec_key(s) for s in ARTIFACTS[artifact_id].runs()]

    @pytest.mark.parametrize("argv, plan_line", [
        (["table4", "--rounds", "60"],
         "plan: the report's, except --rounds 60"),
        (["table5", "--rounds", "100"],
         "plan: the report's, except --rounds 100"),
        (["table6", "--scale", "fast"],
         "plan: the report's, except --scale fast"),
        # One skew: no growth to read, but the fold still completes.
        (["fig7", "--skews", "0.05", "--trials", "1", "--scale", "fast"],
         "plan: the report's, except --skews 0.05 --trials 1 "
         "--scale fast"),
    ])
    def test_prints_plan_line_then_the_artifacts_fold(
            self, argv, plan_line, capsys, monkeypatch):
        batches = _record_results(monkeypatch)
        assert main(argv) == 0
        artifact_id = COMMANDS[argv[0]]
        (results,) = batches
        doc = ARTIFACTS[artifact_id].fold(results).doc
        assert capsys.readouterr().out == \
            f"{plan_line}\n{render_artifact_text(artifact_id, doc)}\n"

    def test_flag_at_the_reports_value_is_the_reports_plan(self, capsys):
        assert main(["table4", "--rounds", "300"]) == 0
        assert capsys.readouterr().out.startswith("plan: the report's\n")


class TestExitCodes:
    def test_faultdemo_retries_repair_planned_drops(self, capsys):
        assert main(["faultdemo", "--faults", "drop=0.05,seed=7"]) == 0

    def test_faultdemo_without_retries_fails(self, capsys):
        assert main(["faultdemo", "--faults", "drop=0.05,seed=7",
                     "--no-retries"]) == 1
        assert "violation codes" in capsys.readouterr().out

    def test_stats_without_payload_fails(self, capsys, monkeypatch):
        _fake_results(monkeypatch, RunResult(
            spec=RunSpec.make("standalone"), metrics=RunMetrics()))
        assert main(["stats", "standalone"]) == 1
        assert "no observability payload" in capsys.readouterr().out

    def test_shard_divergence_fails(self, capsys, monkeypatch):
        import repro.experiments.synth_sweeps as synth_sweeps

        monkeypatch.setattr(
            synth_sweeps, "run_synth",
            lambda shards=1, **_kw: RunMetrics(elapsed_cycles=shards))
        assert main(["shard", "--shards", "2"]) == 1
        out = capsys.readouterr().out
        assert "FAIL: sharded metrics diverge" in out
        assert "elapsed_cycles: serial=1 sharded=2" in out

    def test_mailbox_shard_divergence_fails(self, capsys, monkeypatch):
        spec = RunSpec.make("mailbox")
        _fake_results(monkeypatch,
                      RunResult(spec=spec, metrics=RunMetrics()),
                      RunResult(spec=spec,
                                metrics=RunMetrics(elapsed_cycles=5)))
        assert main(["mailbox", "--shards", "2"]) == 1
        out = capsys.readouterr().out
        assert "elapsed_cycles: serial=0 sharded=5" in out
