"""Tables 4 and 5 through the runner: cached, keyed, and replayable.

The microbenchmarks are runner kinds (``fast_path``, ``buffered_path``),
so a warm ``repro report`` replays them from the result cache instead
of re-simulating. Exact Table 4/5 drift stays covered by the uncached
runs in ``test_experiments.py``.
"""

import itertools

import pytest

from repro.cli import main
from repro.core.costs import AtomicityMode
from repro.experiments.micro import table4_fold, table4_specs, table5_fold
from repro.machine.machine import Machine
from repro.runner import ResultCache, RunnerError, bind_spec, run_specs
from repro.runner.spec import spec_key
from repro.validate.report import run_report


def _buffered(**params):
    return bind_spec("buffered_path", **params)


def _no_simulation(*_args, **_kwargs):
    raise AssertionError("ran a simulation")


class TestColdThenReplay:
    def test_four_entries_replay_exactly(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = table4_specs(rounds=100) + [_buffered(count=300)]
        cold = run_specs(specs, jobs=1, cache=cache)
        assert len(cache) == 4
        assert cache.misses == 4 and cache.hits == 0

        # The metrics are those of the run each entry describes: the
        # paced null stream's mean handler duration is Table 4's
        # receive-by-interrupt total, and every message of the
        # forced-buffered stream is buffered.
        hard, buffered = cold[1], cold[3]
        assert hard.require().t_hand == \
            hard.extra["measured_receive_interrupt"]
        assert buffered.require().buffered_messages == \
            buffered.extra["messages"] > 0

        warm4 = table4_fold(run_specs(table4_specs(rounds=100),
                                      cache=cache))
        warm5 = table5_fold(run_specs([_buffered(count=300)],
                                      cache=cache))
        assert cache.hits == 4 and cache.misses == 4
        # Replayed results equal the direct measurement field by field
        # (the cache round-trips floats exactly).
        assert warm4[1] == table4_fold(run_specs([specs[1]], jobs=1))[0]
        assert [r.mode for r in warm4] == list(AtomicityMode)
        assert warm5.messages == buffered.extra["messages"]
        assert warm5.measured_extract == buffered.extra["measured_extract"]


class TestSpecKeys:
    def test_keys_differ_by_every_parameter(self):
        fast = [bind_spec("fast_path", mode=mode.value, rounds=rounds)
                for mode, rounds in itertools.product(AtomicityMode,
                                                      (100, 300))]
        buffered = [_buffered(count=count, payload_words=words)
                    for count, words in itertools.product((300, 400),
                                                          (0, 4))]
        keys = [spec_key(spec) for spec in fast + buffered]
        assert len(set(keys)) == len(keys) == 10


class TestWarmReport:
    def test_warm_report_runs_no_engine(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        kwargs = dict(only=["table4", "table5"], check=True, jobs=1,
                      cache=cache, experiments_path=tmp_path / "EXP.md",
                      echo=lambda _line: None)
        assert run_report(out_dir=tmp_path / "cold", **kwargs) == 0
        assert cache.misses == 4

        monkeypatch.setattr(Machine, "run_until_job_done", _no_simulation)
        assert run_report(out_dir=tmp_path / "warm", **kwargs) == 0
        assert cache.misses == 4 and cache.hits == 4
        for name in ("table4.json", "table5.json"):
            assert (tmp_path / "warm" / name).read_bytes() == \
                (tmp_path / "cold" / name).read_bytes()


class TestCli:
    @pytest.mark.parametrize("argv", [["table4", "--rounds", "60"],
                                      ["table5", "--rounds", "100"]])
    def test_warm_output_matches_cold(self, argv, capsys, monkeypatch):
        assert main(argv) == 0  # cold, stores
        cold = capsys.readouterr().out
        monkeypatch.setattr(Machine, "run_until_job_done", _no_simulation)
        assert main(argv) == 0  # warm, replays
        assert capsys.readouterr().out == cold
        # --no-cache bypasses the warm cache and simulates again.
        with pytest.raises(RunnerError, match="ran a simulation"):
            main(argv + ["--no-cache"])
