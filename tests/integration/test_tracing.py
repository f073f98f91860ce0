"""Message tracing: Figure 2/5 timelines reconstructed from live runs."""

from repro.analysis.trace import TraceEvent

from tests.conftest import ScriptedApplication, make_machine


def _run_traced(flip_buffered: bool):
    got = []

    def handler(rt, msg):
        yield from rt.dispose_current()
        yield 4
        got.append(msg.msg_id)

    def script(app, rt, idx):
        if idx == 1:
            if flip_buffered:
                yield from rt.force_buffered_mode()
            while len(got) < 5:
                yield 500
        else:
            for i in range(5):
                yield 200
                yield from rt.inject(1, handler, (i,))
            while len(got) < 5:
                yield 500

    machine = make_machine(num_nodes=2)
    tracer = machine.enable_tracing()
    app = ScriptedApplication(script)
    job = machine.add_job(app)
    machine.start()
    machine.run_until_job_done(job, limit=20_000_000)
    return tracer, got


class TestFastPathTimeline:
    def test_events_in_causal_order(self):
        tracer, got = _run_traced(flip_buffered=False)
        for msg_id in got:
            trace = tracer.trace_of(msg_id)
            inject = trace.time_of(TraceEvent.INJECT)
            deliver = trace.time_of(TraceEvent.DELIVER)
            handled = trace.time_of(TraceEvent.HANDLED)
            assert inject is not None
            assert inject <= deliver <= handled
            assert not trace.was_buffered

    def test_fast_latency_matches_cost_model(self):
        tracer, got = _run_traced(flip_buffered=False)
        summary = tracer.summary()
        assert summary["buffered"] == 0
        # Wire (15) + receive entry (54) + handler <= latency <= a
        # generous bound; the exact decomposition is bench territory.
        assert 60 < summary["mean_latency_fast"] < 200

    def test_render_timeline_is_readable(self):
        tracer, got = _run_traced(flip_buffered=False)
        text = tracer.render_timeline(got[0])
        assert "inject" in text
        assert "handled" in text


class TestBufferedPathTimeline:
    def test_buffered_messages_show_insert_stage(self):
        tracer, got = _run_traced(flip_buffered=True)
        buffered = [t for t in tracer.complete_traces() if t.was_buffered]
        assert buffered
        for trace in buffered:
            insert = trace.time_of(TraceEvent.BUFFER_INSERT)
            handled = trace.time_of(TraceEvent.HANDLED)
            assert insert is not None and insert <= handled

    def test_buffered_latency_exceeds_fast(self):
        fast_tracer, _ = _run_traced(flip_buffered=False)
        buf_tracer, _ = _run_traced(flip_buffered=True)
        assert (buf_tracer.summary()["mean_latency_buffered"]
                > fast_tracer.summary()["mean_latency_fast"])


class TestTracerLimits:
    def test_record_limit_drops_excess(self):
        from repro.analysis.trace import MessageTracer

        tracer = MessageTracer(limit=3)
        for i in range(5):
            tracer.record(i, TraceEvent.INJECT, i, 0)
        assert tracer.records == 3
        assert tracer.dropped == 2

    def test_saturation_is_exposed_not_silent(self):
        """Regression: a full tracer used to drop metadata stamps and
        mode records without any way to tell the trace was incomplete,
        so the invariant checker derived spurious violations from it."""
        from repro.analysis.trace import MessageTracer

        class _Msg:
            def __init__(self, msg_id):
                self.msg_id = msg_id
                self.src, self.dst, self.gid = 0, 1, 7

        tracer = MessageTracer(limit=2)
        assert not tracer.saturated
        for i in range(4):
            tracer.note_message(_Msg(i))
        for i in range(4):
            tracer.record_mode(i, node=0, gid=7, entered=True,
                               reason="quantum-start")
        assert tracer.meta_dropped == 2
        assert tracer.mode_dropped == 2
        assert len(tracer.meta) == 2
        assert tracer.saturated
        summary = tracer.summary()
        assert summary["saturated"] is True
        assert summary["meta_dropped"] == 2
        assert summary["mode_dropped"] == 2
        assert summary["records_dropped"] == 0

    def test_unbounded_tracer_never_saturates(self):
        from repro.analysis.trace import MessageTracer

        tracer = MessageTracer(limit=None)
        for i in range(10):
            tracer.record(i, TraceEvent.INJECT, i, 0)
        assert not tracer.saturated
        assert tracer.summary()["saturated"] is False


class TestCheckerOnSaturatedTrace:
    def test_truncated_trace_reports_itself_not_false_losses(self):
        """Regression: the checker on a saturated trace used to report
        untraced messages as conservation violations. It must instead
        flag the truncation and skip the trace-derived invariants."""
        from repro.faults.checker import DeliveryInvariantChecker

        machine = make_machine(num_nodes=2)
        machine.enable_tracing(limit=5)  # far below the run's traffic
        app = ScriptedApplication(_chatter_script)
        job = machine.add_job(app)
        checker = DeliveryInvariantChecker(machine)
        machine.start()
        machine.run_until_job_done(job, limit=20_000_000)

        assert machine.tracer.saturated
        violations = checker.check()
        codes = [v.code for v in violations]
        assert codes == ["trace-truncated"]
        assert "limit=5" in violations[0].detail

    def test_unbounded_checker_run_stays_clean(self):
        """Control: same workload, unbounded trace, no violations."""
        machine = make_machine(num_nodes=2)
        checker = machine.enable_invariant_checker()
        app = ScriptedApplication(_chatter_script)
        job = machine.add_job(app)
        machine.start()
        machine.run_until_job_done(job, limit=20_000_000)
        assert not machine.tracer.saturated
        assert checker.check() == []


def _chatter_script(app, rt, idx):
    """Enough traffic to blow a tiny tracer limit quickly."""
    done = getattr(app, "_done", None)
    if done is None:
        done = app._done = []

    def handler(rt, msg):
        yield from rt.dispose_current()
        done.append(msg.msg_id)

    if idx == 0:
        for i in range(10):
            yield 100
            yield from rt.inject(1, handler, (i,))
        while len(done) < 10:
            yield 500
    else:
        while len(done) < 10:
            yield 500
