"""Serial-vs-parallel-vs-cache determinism of the runner.

The tentpole invariant: an identical :class:`RunSpec` produces
bit-identical :class:`RunMetrics` whether executed in-process
(``jobs=1``), fanned out over worker processes (``jobs=4``), or
replayed from the persistent on-disk cache.
"""

from dataclasses import asdict

from repro.runner import ResultCache, bind_spec, run_specs


def _specs():
    """A cheap but heterogeneous batch: both run kinds, several seeds."""
    specs = [
        bind_spec("multiprog", name="barrier", skew=skew, seed=seed,
                  scale="fast", timeslice=100_000)
        for skew in (0.0, 0.1)
        for seed in (1, 2)
    ]
    specs += [
        bind_spec("synth", group_size=10, t_betw=100, seed=seed,
                  messages_per_node=300)
        for seed in (1, 2)
    ]
    return specs


def _fingerprints(results):
    return [asdict(result.require()) for result in results]


class TestSerialVsParallel:
    def test_jobs_1_and_jobs_4_identical_metrics(self):
        specs = _specs()
        serial = run_specs(specs, jobs=1)
        # mode="parallel" forces the pool even on a small machine where
        # auto mode would (correctly) pick serial — this test is about
        # the pool path itself.
        info = {}
        parallel = run_specs(specs, jobs=4, mode="parallel", info=info)
        assert info["mode"] == "parallel"
        assert _fingerprints(serial) == _fingerprints(parallel)
        assert not any(result.cached for result in parallel)

    def test_result_order_matches_spec_order(self):
        specs = _specs()
        results = run_specs(specs, jobs=4, mode="parallel")
        for spec, result in zip(specs, results):
            assert result.spec == spec


class TestCacheDeterminism:
    def test_cached_replay_is_bit_identical(self, tmp_path):
        specs = _specs()
        cache = ResultCache(tmp_path / "cache")
        fresh = run_specs(specs, jobs=4, cache=cache, mode="parallel")
        assert len(cache) == len(specs)
        replay = run_specs(specs, jobs=1, cache=cache)
        assert all(result.cached for result in replay)
        assert _fingerprints(fresh) == _fingerprints(replay)

    def test_mixed_hit_miss_batch(self, tmp_path):
        specs = _specs()
        cache = ResultCache(tmp_path)
        run_specs(specs[:3], jobs=1, cache=cache)
        results = run_specs(specs, jobs=2, cache=cache, mode="parallel")
        assert [result.cached for result in results[:3]] == [True] * 3
        assert not any(result.cached for result in results[3:])
        # And the mixed batch still equals a pure serial run.
        assert _fingerprints(results) == _fingerprints(
            run_specs(specs, jobs=1))
