"""``repro report`` plans before it runs.

Every selected artifact plans its runs (``ArtifactSpec.runs``); the
report sends all of them to the runner in one batch and folds each
artifact from that batch's in-memory results. Only Tables 4 and 5
simulate here (4 runs, parallel at ``jobs=2``); the sweep-sized plans
are checked against a fake runner.
"""

import os

import pytest

from repro.runner import EXECUTORS, ResultCache, RunnerError, RunResult
from repro.runner import executor
from repro.validate import artifacts
from repro.validate.artifacts import ARTIFACT_IDS, ARTIFACTS, ReportContext
from repro.validate.report import run_report

MICRO = ["table4", "table5"]


def _report(tmp_path, name, **kwargs):
    lines = []
    code = run_report(only=MICRO, check=True, jobs=2,
                      out_dir=tmp_path / name,
                      experiments_path=tmp_path / "EXPERIMENTS.md",
                      echo=lines.append, **kwargs)
    return code, lines


def _count_batches(monkeypatch):
    """Record every batch the report context sends to the runner."""
    batches = []
    real = artifacts.run_specs

    def recording(specs, **kwargs):
        batches.append(list(specs))
        return real(specs, **kwargs)

    monkeypatch.setattr(artifacts, "run_specs", recording)
    return batches


class CountingCache(ResultCache):
    def __init__(self, directory):
        super().__init__(directory)
        self.stored = []

    def put(self, spec, metrics, extra=None):
        self.stored.append(spec)
        super().put(spec, metrics, extra)


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One cold table4+table5 report into a fresh cache."""
    tmp_path = tmp_path_factory.mktemp("plan")
    cache = CountingCache(tmp_path / "cache")
    with pytest.MonkeyPatch.context() as mp:
        batches = _count_batches(mp)
        code, lines = _report(tmp_path, "cold", cache=cache)
    return dict(cache=cache, batches=batches, code=code, lines=lines,
                tmp_path=tmp_path, stored=list(cache.stored),
                hits=cache.hits, misses=cache.misses)


def test_cold_report_runs_each_declared_spec_once_in_one_batch(cold):
    declared = ARTIFACTS["table4"].runs() + ARTIFACTS["table5"].runs()
    assert cold["code"] == 0
    assert cold["batches"] == [declared]
    assert len(declared) == 4
    assert sorted(map(repr, cold["stored"])) == sorted(map(repr, declared))
    assert cold["misses"] == 4 and cold["hits"] == 0
    mode = ("parallel, 2 worker(s): misses amortize dispatch"
            if (os.cpu_count() or 1) >= 2
            else "serial, 0 worker(s): effective jobs == 1")
    assert [line for line in cold["lines"] if line.startswith("batch:")] \
        == [f"batch: 4 runs declared, 4 distinct: 0 cached, 4 simulated "
            f"({mode})"]


def test_warm_report_reads_each_entry_once(cold, monkeypatch):
    cache = cold["cache"]
    hits, misses = cache.hits, cache.misses
    batches = _count_batches(monkeypatch)
    code, lines = _report(cold["tmp_path"], "warm", cache=cache)
    assert code == 0
    assert len(batches) == 1
    assert cache.hits - hits == len(cold["stored"]) == 4
    assert cache.misses - misses == 0
    assert any("4 cached, 0 simulated" in line for line in lines)


def test_produce_alone_prefetches_its_own_runs(cold, monkeypatch):
    batches = _count_batches(monkeypatch)
    ctx = ReportContext(jobs=1, cache=cold["cache"])
    run = ctx.produce("table5")
    assert run.values["per_message"] == 232
    assert batches == [ARTIFACTS["table5"].runs()]
    ctx.produce("table5")
    assert len(batches) == 1


def test_no_cache_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env_cache"))
    batches = _count_batches(monkeypatch)
    code, _lines = _report(tmp_path, "report", cache=None)
    assert code == 0
    assert len(batches) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["EXPERIMENTS.md", "report"]


def test_failed_planned_run_is_the_producers_runner_error(tmp_path,
                                                          monkeypatch):
    real = executor.execute_spec

    def failing(spec):
        if spec.kind == "buffered_path":
            raise ValueError("injected buffered_path failure")
        return real(spec)

    monkeypatch.setattr(executor, "execute_spec", failing)
    with pytest.raises(RunnerError) as caught:
        ReportContext(jobs=1, cache=None).produce("table5")
    message = str(caught.value)
    assert message.startswith("run buffered_path(count=400, "
                              "payload_words=0) failed:")
    assert "ValueError: injected buffered_path failure" in message


def test_fig7_and_fig8_share_one_plan(monkeypatch):
    assert ARTIFACTS["fig7"].runs() == ARTIFACTS["fig8"].runs()

    submitted = []

    def fake_run_specs(specs, jobs=None, cache=None, info=None):
        submitted.append(list(specs))
        return [RunResult(spec=spec, error="not simulated")
                for spec in specs]

    monkeypatch.setattr(artifacts, "run_specs", fake_run_specs)
    info = ReportContext().prefetch(["fig8", "fig7"])
    sweep = ARTIFACTS["fig7"].runs()
    assert submitted == [sweep]
    assert info["declared"] == 2 * len(sweep)
    assert info["planned"] == len(sweep)

    info = ReportContext().prefetch(ARTIFACT_IDS)
    declared = [spec for aid in ARTIFACT_IDS
                for spec in ARTIFACTS[aid].runs()]
    assert len(submitted) == 2
    assert submitted[1] == list(dict.fromkeys(declared))
    assert info["planned"] < info["declared"] == len(declared)


def test_every_declared_kind_is_registered():
    for artifact_id in ARTIFACT_IDS:
        runs = ARTIFACTS[artifact_id].runs()
        assert runs, artifact_id
        assert {spec.kind for spec in runs} <= set(EXECUTORS), artifact_id
