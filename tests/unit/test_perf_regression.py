"""Unit tests for the committed-baseline ratchet in
``benchmarks/check_perf_regression.py``."""

import json

from benchmarks import check_perf_regression as gate


def _report(machine_eps):
    return {"fastpath": {gate.ENGINE_FIGURE: machine_eps}}


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


def test_engine_leg_ratchets_the_calibrated_figure_not_the_micro_bench(
        tmp_path, monkeypatch, capsys):
    base = _report(200_000)
    base["engine_events"] = {"events_per_second": 2_000_000}
    monkeypatch.setattr(gate, "committed_baseline", lambda path=None: base)
    # A micro-bench collapse alone does not fail the gate.
    same = _report(205_000)
    same["engine_events"] = {"events_per_second": 500_000}
    assert gate.main(["--fresh", _write(tmp_path / "same.json",
                                        same)]) == 0
    assert "machine calibrated events/s" in capsys.readouterr().out

    # The floor is narrowed to ENGINE_THRESHOLD even at --threshold 0.2.
    below = 200_000 * (1 - gate.ENGINE_THRESHOLD) * 0.99
    slow = _write(tmp_path / "slow.json", _report(below))
    assert gate.main(["--fresh", slow, "--threshold", "0.2"]) == 1
    assert "FAIL: machine calibrated events/s regressed" in \
        capsys.readouterr().out

    fast = _write(tmp_path / "fast.json", _report(250_000))
    assert gate.main(["--fresh", fast]) == 1


def test_engine_leg_is_neutral_while_the_stamp_lacks_the_figure(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(gate, "committed_baseline", lambda path=None: {
        "engine_events": {"events_per_second": 2_000_000}})
    fresh = _write(tmp_path / "fresh.json", _report(1))
    assert gate.main(["--fresh", fresh]) == 0
    assert ("machine calibrated events/s: no figure on the committed "
            "side (schema predates it); skipping") in capsys.readouterr().out


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
    # The committed side had far more events/s and raw messages/s; only
    # the calibrated messages/s counts.
    monkeypatch.setattr(gate, "committed_baseline", lambda path=None:
                        _with_a2a(1_000_000, 10_000,
                                  aggregate_events_per_second=900_000,
                                  sharded_messages_per_second=50_000))
    same = _write(tmp_path / "same.json", _with_a2a(
        1_000_000, 10_500, aggregate_events_per_second=300_000,
        sharded_messages_per_second=5_000))
    assert gate.main(["--fresh", same]) == 0
    assert "shard all-to-all calibrated messages/s" in \
        capsys.readouterr().out

    # The floor is narrowed to A2A_THRESHOLD even at --threshold 0.2.
    below = 10_000 * (1 - gate.A2A_THRESHOLD) * 0.99
    slow = _write(tmp_path / "slow.json", _with_a2a(1_000_000, below))
    assert gate.main(["--fresh", slow, "--threshold", "0.2"]) == 1
    assert "FAIL: shard all-to-all calibrated messages/s regressed" in \
        capsys.readouterr().out
    above = 10_000 * (1 - gate.A2A_THRESHOLD) * 1.01
    assert gate.main(["--fresh", _write(tmp_path / "above.json",
                                        _with_a2a(1_000_000, above))]) == 0

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


def test_obs_gate_fails_only_on_a_confident_overhead():
    """The obs gate reads the bootstrap lower bound, not the median: a
    noisy unchanged-tree sample whose median overhead is 11% passes,
    pair ratios of a 20% injected slowdown fail."""
    import statistics

    from benchmarks import perf_smoke

    limit = perf_smoke.OBS_OVERHEAD_LIMIT
    noisy = [0.70, 0.78, 0.84, 0.86, 0.87, 0.88, 0.89, 0.89, 0.93, 0.96,
             0.99, 1.02, 1.06, 1.12, 1.18]
    assert 1.0 - statistics.median(noisy) > limit
    assert perf_smoke.overhead_lower_bound(noisy) <= limit
    slowed = [0.628, 0.647, 0.682, 0.714, 0.715, 0.72, 0.734, 0.738,
              0.739, 0.748, 0.77, 0.801, 0.816, 0.859, 1.017]
    assert perf_smoke.overhead_lower_bound(slowed) > limit
    # Seeded resampling: the bound is a function of the ratios alone.
    assert (perf_smoke.overhead_lower_bound(noisy)
            == perf_smoke.overhead_lower_bound(list(noisy)))


def _with_calls(calls, python="3.12"):
    report = _report(1_000_000)
    report["fastpath"].update(calls=calls, calls_python=python)
    return report


def test_calls_gate_is_exact_in_both_directions(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.setattr(gate, "committed_baseline",
                        lambda path=None: _with_calls(600_000))
    same = _write(tmp_path / "same.json", _with_calls(600_000))
    assert gate.main(["--fresh", same]) == 0
    assert "machine calls per run: fresh 600,000 vs committed 600,000" \
        in capsys.readouterr().out
    for moved in (600_001, 599_999):
        fresh = _write(tmp_path / "moved.json", _with_calls(moved))
        assert gate.main(["--fresh", fresh]) == 1
        assert "FAIL: machine calls per run moved" in \
            capsys.readouterr().out


def test_calls_gate_is_neutral_across_python_minors(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.setattr(gate, "committed_baseline",
                        lambda path=None: _with_calls(600_000))
    other = _write(tmp_path / "other.json", _with_calls(600_002, "3.11"))
    assert gate.main(["--fresh", other]) == 0
    out = capsys.readouterr().out
    assert ("fresh under Python 3.11, committed under 3.12: not "
            "comparable; neutral") in out
    assert "exact" not in out


def test_call_count_repeats_in_one_process():
    from benchmarks import perf_smoke

    calls, events = perf_smoke.count_calls()
    assert calls > events > 0
    assert perf_smoke.count_calls() == (calls, events)


def test_closure_counter_sees_closures_passed_to_call_soon(monkeypatch):
    from benchmarks import perf_smoke
    from repro.sim.engine import Engine

    monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    engine = Engine()
    counts = perf_smoke._attach_closure_counter(engine)
    hits = []
    engine.call_soon(lambda: hits.append(1))
    assert counts == {"closures": 1, "scheduled": 1}

    # call_soon does not route through schedule: without its own
    # shadow the same closure goes uncounted.
    del engine.call_soon
    engine.call_soon(lambda: hits.append(2))
    assert counts == {"closures": 1, "scheduled": 1}
    engine.run()
    assert hits == [1, 2]
