"""Unit tests for the parallel runner: specs, hashing, cache."""

import pytest

from repro.analysis.metrics import RunMetrics
from repro.runner import (
    ResultCache, RunnerError, RunResult, RunSpec, UnknownRunKind,
    bind_spec, execute_spec, run_specs, spec_key, trial_means,
)


class TestRunSpec:
    def test_param_order_does_not_matter(self):
        a = RunSpec.make("multiprog", name="barrier", skew=0.1, seed=2)
        b = RunSpec.make("multiprog", seed=2, skew=0.1, name="barrier")
        assert a == b
        assert hash(a) == hash(b)
        assert spec_key(a) == spec_key(b)

    def test_different_params_different_key(self):
        a = RunSpec.make("multiprog", name="barrier", seed=1)
        b = RunSpec.make("multiprog", name="barrier", seed=2)
        assert spec_key(a) != spec_key(b)

    def test_different_kind_different_key(self):
        a = RunSpec.make("multiprog", seed=1)
        b = RunSpec.make("synth", seed=1)
        assert spec_key(a) != spec_key(b)

    def test_key_is_stable_across_calls(self):
        spec = RunSpec.make("standalone", name="lu", scale="fast")
        assert spec_key(spec) == spec_key(spec)

    def test_non_scalar_params_rejected(self):
        with pytest.raises(TypeError):
            RunSpec.make("multiprog", skews=[0.0, 0.1])

    def test_getitem_and_describe(self):
        spec = RunSpec.make("synth", group_size=10, t_betw=275)
        assert spec["group_size"] == 10
        with pytest.raises(KeyError):
            spec["missing"]
        assert "synth" in spec.describe()

    def test_unknown_kind_raises(self):
        with pytest.raises(UnknownRunKind):
            execute_spec(RunSpec.make("definitely_not_registered"))


class TestBindSpec:
    """The executor's signature is the kind's schema."""

    def test_unknown_parameter_raises_at_plan_time(self):
        with pytest.raises(TypeError, match="t_betwe"):
            bind_spec("synth", group_size=10, t_betwe=275)

    def test_missing_parameter_raises_at_plan_time(self):
        with pytest.raises(TypeError, match="group_size"):
            bind_spec("synth", t_betw=275)

    def test_defaults_join_and_keyword_only_defaults_do_not(self):
        spec = bind_spec("synth", group_size=10, t_betw=275,
                         delivery="twocase", shards=1)
        assert spec.as_dict() == dict(
            group_size=10, t_betw=275, seed=1, buffer_cost_extra=0,
            messages_per_node=2000, timeslice=500_000)
        assert bind_spec("synth", group_size=10, t_betw=275,
                         shards=2)["shards"] == 2

    def test_side_channels_cannot_join_a_spec(self):
        with pytest.raises(TypeError, match="info"):
            bind_spec("synth", group_size=10, t_betw=275, info={})


def _metrics(**overrides) -> RunMetrics:
    base = RunMetrics(name="x", elapsed_cycles=123, messages_sent=7,
                      buffered_fraction=0.25, t_betw=3.5)
    for key, value in overrides.items():
        setattr(base, key, value)
    return base


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = RunSpec.make("multiprog", name="barrier", seed=1)
        assert cache.get(spec) is None
        metrics = _metrics()
        cache.put(spec, metrics, {"aux": 4.0})
        loaded, extra = cache.get(spec)
        assert loaded == metrics
        assert extra == {"aux": 4.0}
        assert cache.hits == 1 and cache.misses == 1

    def test_floats_roundtrip_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec.make("synth", seed=3)
        metrics = _metrics(buffered_fraction=1 / 3, t_betw=0.1 + 0.2)
        cache.put(spec, metrics)
        loaded, _ = cache.get(spec)
        assert loaded.buffered_fraction == metrics.buffered_fraction
        assert loaded.t_betw == metrics.t_betw

    def test_cost_model_version_bump_busts_cache(self, tmp_path,
                                                 monkeypatch):
        cache = ResultCache(tmp_path)
        spec = RunSpec.make("multiprog", name="enum", seed=1)
        cache.put(spec, _metrics())
        assert cache.get(spec) is not None

        from repro.core import costs
        monkeypatch.setattr(costs, "COST_MODEL_VERSION",
                            costs.COST_MODEL_VERSION + 1)
        assert cache.get(spec) is None  # the old entry is orphaned

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec.make("multiprog", name="lu", seed=1)
        cache.put(spec, _metrics())
        path = cache._path(spec)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(spec) is None

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        for seed in range(3):
            cache.put(RunSpec.make("multiprog", seed=seed), _metrics())
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0


class TestCachePrune:
    def test_prune_removes_stale_version_entries(self, tmp_path,
                                                 monkeypatch):
        cache = ResultCache(tmp_path)
        for seed in range(3):
            cache.put(RunSpec.make("multiprog", seed=seed), _metrics())

        from repro.core import costs
        monkeypatch.setattr(costs, "COST_MODEL_VERSION",
                            costs.COST_MODEL_VERSION + 1)
        # Under the bumped version one fresh entry joins the directory.
        fresh = RunSpec.make("multiprog", seed=99)
        cache.put(fresh, _metrics())

        report = cache.prune()
        assert report.stale == 3
        assert report.kept == 1
        assert report.removed == 3
        assert len(cache) == 1
        assert cache.get(fresh) is not None  # survivor still hits

    def test_prune_removes_orphaned_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(RunSpec.make("multiprog", seed=1), _metrics())
        # Simulate writers killed between mkstemp and the rename.
        (tmp_path / "deadbeef.tmp").write_text("{", encoding="utf-8")
        (tmp_path / "cafe.tmp").write_text("", encoding="utf-8")
        report = cache.prune()
        assert report.tmp == 2
        assert report.stale == 0 and report.kept == 1
        assert not list(tmp_path.glob("*.tmp"))

    def test_prune_removes_corrupt_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec.make("multiprog", seed=1)
        cache.put(spec, _metrics())
        cache._path(spec).write_text("{not json", encoding="utf-8")
        report = cache.prune()
        assert report.stale == 1 and report.kept == 0
        assert len(cache) == 0

    def test_prune_on_missing_directory_is_a_noop(self, tmp_path):
        cache = ResultCache(tmp_path / "never_created")
        report = cache.prune()
        assert report.removed == 0 and report.kept == 0

    def test_prune_survives_files_deleted_mid_prune(self, tmp_path,
                                                    monkeypatch):
        """A concurrent writer/pruner deleting a globbed file between
        the staleness check and the unlink must not abort the prune —
        the race is counted in ``missing`` and the walk completes."""
        cache = ResultCache(tmp_path)
        specs = [RunSpec.make("multiprog", seed=seed) for seed in range(3)]
        for spec in specs:
            cache.put(spec, _metrics())
        # Resolve before the version bump: spec_key embeds the version.
        victim = cache._path(specs[0])

        from repro.core import costs
        monkeypatch.setattr(costs, "COST_MODEL_VERSION",
                            costs.COST_MODEL_VERSION + 1)
        fresh = RunSpec.make("multiprog", seed=99)
        cache.put(fresh, _metrics())
        real_is_stale = ResultCache._is_stale

        def racing_is_stale(path):
            stale = real_is_stale(path)
            if path == victim and path.exists():
                path.unlink()  # the concurrent party wins the race
            return stale

        monkeypatch.setattr(ResultCache, "_is_stale",
                            staticmethod(racing_is_stale))
        report = cache.prune()
        assert report.missing == 1      # the raced victim
        assert report.stale == 2        # the other stale entries
        assert report.kept == 1         # the fresh entry survives
        assert report.removed == 2
        assert cache.get(fresh) is not None

    def test_prune_counts_tmp_files_deleted_mid_prune(self, tmp_path,
                                                      monkeypatch):
        cache = ResultCache(tmp_path)
        cache.put(RunSpec.make("multiprog", seed=1), _metrics())
        orphan = tmp_path / "orphan.tmp"
        orphan.write_text("", encoding="utf-8")

        from pathlib import Path
        real_unlink = Path.unlink

        def racing_unlink(self, *args, **kwargs):
            if self == orphan:
                real_unlink(self)           # someone else got it first
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        report = cache.prune()
        assert report.tmp == 0
        assert report.missing == 1
        assert report.kept == 1

    def test_clear_also_removes_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(RunSpec.make("multiprog", seed=1), _metrics())
        (tmp_path / "orphan.tmp").write_text("", encoding="utf-8")
        assert cache.clear() == 1  # counts json entries only
        assert not list(tmp_path.glob("*"))


class TestErrorCapture:
    def test_failed_run_captured_not_raised(self):
        bad = RunSpec.make("standalone", name="no_such_workload",
                           scale="fast")
        [result] = run_specs([bad], jobs=1)
        assert not result.ok
        assert "no_such_workload" in result.error
        with pytest.raises(RunnerError):
            result.require()

    def test_failure_does_not_kill_the_batch(self):
        bad = RunSpec.make("standalone", name="no_such_workload",
                           scale="fast")
        good = RunSpec.make("standalone", name="barrier", scale="fast",
                            num_nodes=2, seed=1)
        results = run_specs([bad, good], jobs=1)
        assert not results[0].ok
        assert results[1].ok
        assert results[1].metrics.messages_sent > 0

    def test_failed_runs_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        bad = RunSpec.make("standalone", name="no_such_workload",
                           scale="fast")
        run_specs([bad], jobs=1, cache=cache)
        assert len(cache) == 0


class TestTrialMeans:
    """The one trial-averaging fold, on hand-built results."""

    @staticmethod
    def _trial(skew, seed, error=None, **metrics):
        spec = RunSpec.make("multiprog", name="enum", skew=skew,
                            seed=seed)
        if error is not None:
            return RunResult(spec=spec, error=error)
        return RunResult(spec=spec, metrics=_metrics(**metrics))

    def test_failed_trial_raises_its_runner_error(self):
        results = [
            self._trial(0.0, 1, elapsed_cycles=100),
            self._trial(0.0, 2, error="Traceback: trial 2 crashed"),
            self._trial(0.0, 3, elapsed_cycles=300),
        ]
        with pytest.raises(RunnerError, match="trial 2 crashed") as caught:
            trial_means(results)
        assert "seed=2" in str(caught.value)

    def test_repeated_configuration_is_a_new_point(self):
        results = [self._trial(0.0, seed, elapsed_cycles=100 * seed)
                   for seed in (1, 2, 1, 2)]
        points = trial_means(results)
        assert [m.elapsed_cycles for _s, m in points] == [150, 150]

    def test_grid_fold_keeps_a_repeated_x_as_its_own_point(self):
        from repro.experiments.synth_sweeps import (
            buffer_cost_fold, buffer_cost_specs)

        # 100 runs at the baseline cost, so it is read back as 232.
        specs = buffer_cost_specs(costs=(100, 232, 350),
                                  group_sizes=(2, 4), trials=2)
        results = [RunResult(spec=spec,
                             metrics=_metrics(buffered_fraction=i / 100))
                   for i, spec in enumerate(specs)]
        sweep = buffer_cost_fold(results)
        assert sweep.xs == [232, 232, 350]
        assert sweep.series == {
            2: pytest.approx([0.5, 2.5, 4.5]),
            4: pytest.approx([6.5, 8.5, 10.5]),
        }
