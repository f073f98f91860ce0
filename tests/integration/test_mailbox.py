"""Integration tests for the internet-scale mailbox workload.

The obligations from the ISSUE:

* **Discipline equivalence** — the mailbox converges under all three
  NI delivery disciplines, and every recipient sees the *identical
  per-(client, recipient) submission sequence* regardless of
  discipline; only cost/occupancy metrics may differ.
* **Bounded aggregation** — ``clients`` in the millions must not grow
  resident state past the flow-table cap, and runtime must track the
  message count, not the population.
* **Determinism** — one spec produces bit-identical RunMetrics and
  extras across serial, parallel and cache-replay execution.
* **Crash faults** — seeded mailbox crashes wipe queued mail, and
  reconnecting recipients trigger bounded replay-on-reconnect; the
  injector's count and the service's count must agree.
"""

import dataclasses
import json

import pytest

from repro.analysis.metrics import collect_metrics
from repro.apps.mailbox import (
    MailboxApplication, MailboxStats, heavy_tail_rank,
)
from repro.sim.random import DeterministicRng
from repro.experiments.config import SimulationConfig
from repro.experiments.mailbox_sweeps import run_mailbox
from repro.machine.machine import Machine
from repro.ni.delivery import DELIVERY_KINDS
from repro.runner import ResultCache, bind_spec, run_specs
from repro.stats import rules

#: A small-but-contended configuration that finishes in well under a
#: second per discipline while still exercising dedup, reconnects and
#: the final drain.
SMALL = dict(num_nodes=6, mailbox_nodes=2, clients=5_000,
             recipients=16, messages_per_gateway=80, seed=11)


def _run(delivery: str = "twocase", faults: str = "", **overrides):
    params = dict(SMALL)
    params.update(overrides)
    config = SimulationConfig(num_nodes=params["num_nodes"],
                              seed=params["seed"], delivery=delivery)
    if faults:
        config = config.with_faults(faults)
    machine = Machine(config)
    app = MailboxApplication(**params)
    job = machine.add_job(app)
    machine.start()
    machine.run_until_job_done(job, limit=50_000_000_000)
    return machine, app


class TestDisciplineEquivalence:
    def test_identical_sequences_under_all_disciplines(self):
        logs = {}
        for kind in DELIVERY_KINDS:
            machine, app = _run(delivery=kind, record_deliveries=True)
            # Full convergence: everything submitted was absorbed,
            # everything enqueued was eventually delivered.
            assert app.stats.absorbed == app.stats.submitted, kind
            assert app.stats.delivered == app.stats.enqueued, kind
            assert app.service.queued_total() == 0, kind
            logs[kind] = app.retrieved_log
        base = logs["twocase"]
        assert base  # the workload actually delivered something
        for kind in DELIVERY_KINDS:
            assert logs[kind] == base, (
                f"{kind} delivered a different per-(client, recipient) "
                f"sequence than twocase"
            )

    def test_sequences_are_in_submission_order(self):
        _, app = _run(record_deliveries=True)
        for (client, recipient), seqs in app.retrieved_log.items():
            assert seqs == sorted(seqs), (
                f"out-of-order delivery for client {client} -> "
                f"recipient {recipient}: {seqs}"
            )
            assert len(seqs) == len(set(seqs)), "duplicate delivery"


class TestBoundedAggregation:
    def test_million_clients_bounded_flows(self):
        # A tight cap (16 resident flows per gateway) forces the LRU
        # to actually cycle under a million-client population.
        machine, app = _run(clients=1_000_000, max_active_flows=64)
        assert app.stats.active_flows_peak <= app.max_active_flows
        assert app.stats.flows_evicted > 0  # the LRU actually cycled
        assert app.stats.delivered == app.stats.enqueued

    def test_flow_counters_match_a_recount_of_the_tables(self,
                                                         monkeypatch):
        """The running flow total behind ``active_flows_peak`` agrees
        with summing every gateway's table after each submission."""
        recount = {"peak": 0, "created": 0}

        def note_flow(self, gateway_node, client):
            table = self._flow_tables[gateway_node]
            recount["created"] += client not in table
            original(self, gateway_node, client)
            active = sum(len(t) for t in self._flow_tables.values())
            recount["peak"] = max(recount["peak"], active)

        original = MailboxApplication._note_flow
        monkeypatch.setattr(MailboxApplication, "_note_flow", note_flow)
        _, app = _run(clients=1_000_000, max_active_flows=8)
        resident = sum(len(t) for t in app._flow_tables.values())
        assert app.stats.flows_evicted > 0  # the LRU actually cycled
        assert app.stats.active_flows_peak == recount["peak"]
        assert app.stats.flows_created == recount["created"]
        assert app.stats.flows_evicted == recount["created"] - resident

    def test_runtime_tracks_messages_not_population(self):
        cycles = {}
        for clients in (1_000, 1_000_000):
            machine, app = _run(clients=clients)
            cycles[clients] = machine.engine.now
        assert cycles[1_000_000] <= 2 * cycles[1_000]

    def test_heavy_tail_rank_is_bounded_and_skewed(self):
        rng = DeterministicRng(3, "test/heavy-tail")
        n = 1_000_000
        draws = [heavy_tail_rank(rng, n) for _ in range(4_000)]
        assert all(0 <= d < n for d in draws)
        # Octave-equal mass: the bottom 1% of the id space gets a
        # vastly over-proportional share of the draws.
        low = sum(1 for d in draws if d < n // 100)
        assert low > len(draws) // 5


class TestDeterminism:
    def test_serial_parallel_cache_replay_identical(self, tmp_path):
        spec = bind_spec("mailbox", clients=10_000, recipients=16,
                         messages=60, num_nodes=6, seed=5)
        decoy = bind_spec("mailbox", clients=10_000, recipients=16,
                          messages=60, num_nodes=6, seed=6)
        cache = ResultCache(directory=tmp_path)
        serial = run_specs([spec], jobs=1)[0]
        parallel = run_specs([spec, decoy], jobs=2)[0]
        first = run_specs([spec], cache=cache)[0]
        replay = run_specs([spec], cache=cache)[0]
        assert not first.cached and replay.cached
        want = dataclasses.asdict(serial.require())
        want_extra = json.dumps(serial.extra, sort_keys=True)
        for result in (parallel, first, replay):
            assert dataclasses.asdict(result.require()) == want
            assert json.dumps(result.extra,
                              sort_keys=True) == want_extra

    def test_spec_omits_default_delivery_and_faults(self):
        plain = bind_spec("mailbox").as_dict()
        assert "delivery" not in plain
        assert "faults" not in plain
        assert bind_spec("mailbox", delivery="damq")["delivery"] == "damq"
        assert bind_spec("mailbox", faults="drop=0.01")["faults"]


class TestCrashFaults:
    def test_crash_replay_roundtrip(self):
        machine, app = _run(
            faults="mailbox_crashes=2,mailbox_crash_horizon=40000,"
                   "seed=9",
            reconnects=3)
        stats = app.stats
        assert stats.crashes > 0
        assert machine.fault_injector.mailbox_crashes == stats.crashes
        assert stats.crash_losses > 0
        # Reconnecting recipients triggered replay of the bounded
        # per-gateway logs.
        assert stats.replays > 0
        # The run still quiesces: nothing left queued, and everything
        # the service kept (or had replayed) was delivered.
        assert app.service.queued_total() == 0
        assert stats.delivered == stats.retrieved

    def test_crash_free_run_has_no_crash_metrics(self):
        machine, app = _run()
        assert app.stats.crashes == 0
        assert app.stats.crash_losses == 0
        assert app.stats.replays == 0


class TestShardedMailbox:
    #: Divides gateways (4), mailboxes (2) and recipients (16), so the
    #: locality layout can confine every flow to one shard's nodes.
    KWARGS = dict(clients=5_000, recipients=16, messages=60,
                  num_nodes=6, seed=2)

    def test_sharded_matches_serial_bit_for_bit(self):
        serial_metrics, serial_extra = run_mailbox(
            locality_groups=2, **self.KWARGS)
        sharded_metrics, sharded_extra = run_mailbox(
            shards=2, locality_groups=2, **self.KWARGS)
        assert dataclasses.asdict(sharded_metrics) == \
            dataclasses.asdict(serial_metrics)
        # Merged per-shard app snapshots equal the serial app's own.
        assert sharded_extra["mailbox"] == serial_extra["mailbox"]
        assert sharded_extra["queued_at_exit"] == \
            serial_extra["queued_at_exit"]

    def test_group_disjoint_traffic_free_runs(self):
        # The locality groups align with the partition, so the shards
        # never exchange a message; the finish-alignment barrier alone
        # keeps early-finishing shards running their queued NI drains
        # up to the global finish cycle (the bug this pins down showed
        # as a handful of missing handler invocations).
        _metrics, extra = run_mailbox(shards=2, locality_groups=2,
                                      **self.KWARGS)
        assert extra["shard_mode"] in ("free-run", "serial-fallback")
        if extra["shard_mode"] == "free-run":
            assert extra["cross_shard_messages"] == 0
            assert extra["serial_fallbacks"] == 0



class TestMetricsPlumbing:
    def test_run_mailbox_metrics_and_extra(self):
        metrics, extra = run_mailbox(clients=5_000, recipients=16,
                                     messages=60, num_nodes=6, seed=2)
        assert metrics.mailbox_enqueued > 0
        assert metrics.mailbox_retrieved == metrics.mailbox_enqueued
        assert metrics.mailbox_active_flows_peak > 0
        assert metrics.retrieval_latency_mean > 0
        assert extra["queued_at_exit"] == 0
        snap = extra["mailbox"]
        assert snap["delivered"] == metrics.mailbox_retrieved
        assert len(snap["latency_counts"]) == \
            len(extra["latency_edges"]) + 1
        assert sum(snap["latency_counts"]) == snap["latency_count"]
        # JSON-safe for the persistent cache.
        assert json.loads(json.dumps(extra)) == extra


class TestObservedMailbox:
    """An observed mailbox run: the ``mailbox.*`` obs metrics, the
    ``RunMetrics.mailbox_*`` fields and ``MailboxStats`` share one
    declaration per counter, so all three must agree."""

    def test_obs_totals_match_stats_and_run_metrics(self):
        machine = Machine(SimulationConfig(num_nodes=6, seed=2))
        app = MailboxApplication(
            num_nodes=6, mailbox_nodes=2, clients=5_000, recipients=16,
            messages_per_gateway=60, seed=2)
        job = machine.add_job(app)
        obs = machine.enable_observability()
        machine.start()
        machine.run_until_job_done(job)
        metrics = collect_metrics(machine, job)
        reg = obs.finalize()
        stats = app.stats
        assert stats.enqueued > 0 and stats.latency_count > 0

        published = 0
        for name, rule in rules(MailboxStats):
            if rule.obs is not None:
                assert reg.get(f"mailbox.{rule.obs}").value == \
                    getattr(stats, name), name
                published += 1
        assert published == 17  # 15 counters and 2 high-water gauges
        for field in dataclasses.fields(metrics):
            source = field.metadata.get("harvest", "")
            if source.startswith("mailbox."):
                assert getattr(metrics, field.name) == \
                    reg.get(source).value, field.name
        assert metrics.mailbox_enqueued == stats.enqueued
        assert metrics.retrieval_latency_mean == \
            stats.latency_total / stats.latency_count

        hist = reg.get("mailbox.retrieval_latency")
        assert hist.count == stats.latency_count
        assert hist.counts == stats.latency_counts
        assert hist.total == stats.latency_total
        assert reg.unwired(("counter", "gauge")) == []
