"""End-to-end observability: payloads through the runner and cache,
the overhead guard, the no-unwired-metric assertion and the ``repro
stats`` / ``repro cache`` commands."""

import json
from dataclasses import asdict

from repro.cli import main
from repro.apps.null_app import NullApplication
from repro.experiments.config import SimulationConfig
from repro.experiments.multiprog import execute_multiprog
from repro.experiments.standalone import execute_standalone
from repro.experiments.workloads import make_workload, run_jobs
from repro.obs.snapshots import TimelineSampler
from repro.runner import ResultCache, bind_spec, run_specs
from tests.conftest import SinkApplication, make_machine


def _obs_spec(**overrides):
    params = dict(name="barrier", num_nodes=2, seed=1, scale="fast",
                  obs_interval=50_000)
    params.update(overrides)
    return bind_spec("standalone", **params)


class TestObsPayloadThroughRunner:
    def test_payload_rides_extra_and_replays_bit_identically(
            self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _obs_spec()

        [fresh] = run_specs([spec], jobs=1, cache=cache)
        payload = fresh.require() and fresh.extra["obs"]
        assert not fresh.cached
        assert payload["metrics"]["fabric.messages_sent"] > 0
        assert payload["snapshots"], "sampler produced no snapshots"
        assert payload["snapshots"][0]["t"] == 0
        assert payload["snapshots"][-1]["t"] == \
            fresh.metrics.elapsed_cycles

        [replay] = run_specs([spec], jobs=1, cache=cache)
        assert replay.cached
        # Bit-identical through the cache: the JSON views match exactly.
        assert json.dumps(replay.extra["obs"], sort_keys=True) == \
            json.dumps(payload, sort_keys=True)
        assert asdict(replay.metrics) == asdict(fresh.metrics)

    def test_obs_flag_changes_the_cache_key(self):
        from repro.runner import spec_key

        plain = bind_spec("standalone", name="barrier", num_nodes=2,
                          scale="fast")
        observed = _obs_spec()
        assert spec_key(plain) != spec_key(observed)
        # ... but obs_interval=0 (no observatory) keeps the plain key.
        assert spec_key(plain) == spec_key(_obs_spec(obs_interval=0))


class TestOverheadGuard:
    def test_observation_never_perturbs_metrics(self):
        """The determinism contract: an obs-enabled run produces
        RunMetrics bit-identical to the plain (seed) run."""
        plain = execute_standalone("barrier", num_nodes=2,
                                   scale="fast")[0]
        [observed] = run_specs([_obs_spec()], jobs=1)
        assert asdict(observed.require()) == asdict(plain)


class TestNoUnwiredMetrics:
    def test_finalize_touches_every_counter_and_gauge(self):
        """Regression guard for the ``RunMetrics.retries`` class of bug:
        after finalize, no declared counter or gauge may remain
        untouched — a new stats field that never reaches the registry
        fails here instead of silently reading zero."""
        _metrics, extra = execute_multiprog(
            "barrier", skew=0.05, num_nodes=2, scale="fast",
            timeslice=100_000, obs_interval=100_000)
        assert extra["obs"]["metrics"]["two_case.buffered_messages"] >= 0
        # Re-run the executor's build-run body to reach the registry.
        config = SimulationConfig(num_nodes=2, seed=1, skew_fraction=0.05,
                                  timeslice=100_000)
        app = make_workload("barrier", seed=1, num_nodes=2, scale="fast")
        machine = run_jobs(config, [app, NullApplication()],
                           obs_interval=100_000)[2]
        assert machine.obs.registry.unwired(("counter", "gauge")) == []


class TestRetriesThreaded:
    def test_faulted_run_carries_nonzero_retries(self, tmp_path):
        """Regression: ``collect_metrics`` used to leave
        ``RunMetrics.retries`` at zero; it now sums transport
        retransmissions — including through the persistent cache."""
        cache = ResultCache(tmp_path)
        spec = bind_spec("faulted", num_nodes=3, messages=6, seed=7,
                         faults="drop=0.2,seed=7")
        [fresh] = run_specs([spec], jobs=1, cache=cache)
        assert fresh.require().retries > 0
        assert fresh.metrics.invariant_violations == 0
        [replay] = run_specs([spec], jobs=1, cache=cache)
        assert replay.cached
        assert replay.metrics.retries == fresh.metrics.retries


class TestStatsCli:
    def test_standalone_report_renders_subsystems(self, capsys):
        assert main(["stats", "standalone", "--name", "barrier",
                     "--nodes", "2", "--scale", "fast",
                     "--interval", "50000",
                     "--no-cache", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "== standalone barrier" in out
        for group in ("engine", "fabric", "ni", "kernel", "buffering",
                      "two_case", "timeline"):
            assert group in out
        assert "messages_sent" in out
        # The timeline table carries sparkline block characters.
        assert any(block in out for block in "▁▂▃▄▅▆▇█")

    def test_multiprog_report_renders(self, capsys):
        assert main(["stats", "multiprog", "--name", "barrier",
                     "--nodes", "2", "--scale", "fast",
                     "--skew", "0.05", "--timeslice", "100000",
                     "--interval", "100000",
                     "--no-cache", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "== multiprog barrier vs null (skew 5%" in out
        assert "buffered_fraction" in out

    def test_export_writes_jsonl(self, capsys, tmp_path):
        out_path = tmp_path / "obs.jsonl"
        assert main(["stats", "standalone", "--name", "barrier",
                     "--nodes", "2", "--scale", "fast",
                     "--interval", "50000",
                     "--no-cache", "--jobs", "1",
                     "--export", str(out_path)]) == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["type"] == "meta"
        assert "standalone" in parsed[0]["spec"]
        types = {p["type"] for p in parsed}
        assert {"meta", "metric", "snapshot"} <= types


class TestCacheCli:
    def test_cache_status_prune_and_clear(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache"]) == 0
        assert "0 entries" in capsys.readouterr().out

        from repro.analysis.metrics import RunMetrics
        from repro.runner import RunSpec

        cache = ResultCache()
        cache.put(RunSpec.make("multiprog", seed=1), RunMetrics())
        (tmp_path / "orphan.tmp").write_text("", encoding="utf-8")

        assert main(["cache", "--prune"]) == 0
        out = capsys.readouterr().out
        assert "pruned 0 stale entries and 1 orphaned temp files" in out
        assert "(1 kept)" in out

        assert main(["cache", "--clear"]) == 0
        assert "cleared 1 entries" in capsys.readouterr().out
        assert len(cache) == 0


class TestSamplerDispatchIdentity:
    """The bounded run loop counts events exactly per event, like
    ``step()``: a timeline sampler reads ``events_executed`` from inside
    a bucket, so both drives must record identical samples."""

    @staticmethod
    def _samples(drive):
        machine = make_machine(num_nodes=2)
        job = machine.add_job(SinkApplication(count=30, gap=50))
        machine.start()
        # 50 cycles, like the sink's send gap: ticks share buckets with
        # compute wakes, so they read the count mid-bucket.
        sampler = TimelineSampler(machine, interval=50)
        sampler.start()
        drive(machine, job)
        assert job.finished
        return sampler.samples

    def test_run_and_step_record_identical_samples(self):
        def run(machine, job):
            machine.run_until_job_done(job, limit=50_000_000)

        def step(machine, job):
            while not job.finished:
                assert machine.engine.step()

        by_run = self._samples(run)
        assert len(by_run) > 10
        assert by_run == self._samples(step)
