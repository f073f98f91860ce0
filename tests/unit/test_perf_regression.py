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
