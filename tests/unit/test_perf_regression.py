"""Unit tests for the committed-baseline ratchet in
``benchmarks/check_perf_regression.py``."""

import json

from benchmarks import check_perf_regression as gate


def _report(engine_eps):
    return {"engine_events": {"events_per_second": engine_eps}}


def _write(path, report):
    path.write_text(json.dumps(report), encoding="utf-8")
    return str(path)


def test_baseline_comes_from_head_whatever_fresh_points_to(
        tmp_path, monkeypatch, capsys):
    asked = []

    def committed(path=gate.BASELINE_PATH):
        asked.append(path)
        return _report(1_000_000)

    monkeypatch.setattr(gate, "committed_baseline", committed)
    fresh = _write(tmp_path / "elsewhere.json", _report(1_050_000))
    assert gate.main(["--fresh", fresh]) == 0
    assert asked == ["BENCH_runner.json"]
    out = capsys.readouterr().out
    assert "skipping regression gate" not in out
    assert "OK" in out

    # The comparison is real: a fresh report past the floor fails.
    slow = _write(tmp_path / "slow.json", _report(500_000))
    assert gate.main(["--fresh", slow]) == 1


def test_missing_baseline_exits_2_with_reason(tmp_path, monkeypatch,
                                              capsys):
    fresh = _write(tmp_path / "BENCH_runner.json", _report(1_000_000))
    # Outside any git checkout `git show HEAD:...` cannot succeed.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert gate.main(["--fresh", fresh]) == 2
    out = capsys.readouterr().out
    assert "no committed baseline" in out
    assert "HEAD:BENCH_runner.json" in out


def _with_a2a(engine_eps, messages_per_s, required=True, **leg):
    report = _report(engine_eps)
    leg.update(speedup_required=required, speedup_skip_reason=None
               if required else "single-core box")
    if messages_per_s is not None:
        leg[gate.A2A_FIGURE] = messages_per_s
    report["shard"] = {"all_to_all": leg}
    return report


def test_all_to_all_leg_ratchets_messages_not_events(
        tmp_path, monkeypatch, capsys):
    # The committed side had far more events/s; only messages/s counts.
    monkeypatch.setattr(gate, "committed_baseline", lambda path=None:
                        _with_a2a(1_000_000, 10_000,
                                  aggregate_events_per_second=900_000))
    same = _write(tmp_path / "same.json", _with_a2a(
        1_000_000, 10_500, aggregate_events_per_second=300_000))
    assert gate.main(["--fresh", same]) == 0
    assert "shard all-to-all messages/s" in capsys.readouterr().out

    slow = _write(tmp_path / "slow.json", _with_a2a(1_000_000, 7_000))
    assert gate.main(["--fresh", slow]) == 1
    assert "FAIL: shard all-to-all messages/s regressed" in \
        capsys.readouterr().out

    fast = _write(tmp_path / "fast.json", _with_a2a(1_000_000, 13_000))
    assert gate.main(["--fresh", fast]) == 1


def test_all_to_all_leg_is_neutral_without_a_comparable_figure(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(gate, "committed_baseline", lambda path=None:
                        _with_a2a(1_000_000, None,
                                  aggregate_events_per_second=900_000))
    fresh = _write(tmp_path / "fresh.json", _with_a2a(1_000_000, 1))
    assert gate.main(["--fresh", fresh]) == 0
    assert "the committed side (schema predates it); skipping" in \
        capsys.readouterr().out

    monkeypatch.setattr(gate, "committed_baseline", lambda path=None:
                        _with_a2a(1_000_000, 10_000))
    unshared = _write(tmp_path / "unshared.json",
                      _with_a2a(1_000_000, 1, required=False))
    assert gate.main(["--fresh", unshared]) == 0
    assert "fresh gate skipped (single-core box); neutral" in \
        capsys.readouterr().out
