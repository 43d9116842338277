"""Unit tests for the trace recorder and RNG registry."""

import numpy as np
import pytest

from repro.simcore import (
    Environment,
    Mark,
    NullTracer,
    RngRegistry,
    Span,
    SpanSink,
    TraceContext,
    Tracer,
    jittered,
)


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def tracer(env):
    return Tracer(env)


class TestTracer:
    def test_record_span(self, tracer):
        span = tracer.record("phase", 1.0, 3.5, site="RM1")
        assert span.duration == 2.5
        assert tracer.spans_named("phase") == [span]

    def test_span_context_manager(self, env, tracer):
        def proc(env):
            with tracer.span("sync-work", tag="x"):
                pass  # synchronous section
            yield env.timeout(1)

        env.run(env.process(proc(env)))
        (span,) = tracer.spans_named("sync-work")
        assert span.duration == 0.0
        assert span.attrs == {"tag": "x"}

    def test_open_span_across_yields(self, env, tracer):
        def proc(env):
            open_span = tracer.span("slow-work")
            yield env.timeout(2.5)
            open_span.close()

        env.run(env.process(proc(env)))
        (span,) = tracer.spans_named("slow-work")
        assert span.duration == 2.5

    def test_attr_filtering(self, tracer):
        tracer.record("op", 0, 1, site="a")
        tracer.record("op", 1, 2, site="b")
        assert len(tracer.spans_named("op")) == 2
        assert len(tracer.spans_named("op", site="a")) == 1

    def test_total(self, tracer):
        tracer.record("op", 0, 1)
        tracer.record("op", 5, 7)
        assert tracer.total("op") == 3.0

    def test_marks(self, env, tracer):
        def proc(env):
            yield env.timeout(4)
            tracer.mark("commit", job="j1")

        env.run(env.process(proc(env)))
        (mark,) = tracer.marks_named("commit")
        assert mark.time == 4.0
        assert tracer.marks_named("commit", job="j2") == []

    def test_timeline_ordering(self, tracer):
        tracer.record("b", 1, 3)
        tracer.record("a", 0, 2)
        entries = list(tracer.timeline())
        times = [t for t, _, _ in entries]
        assert times == sorted(times)

    def test_fingerprint_order_insensitive(self, env):
        # Storage order must not matter; allocation order (which fixes
        # span ids) is part of a trace's identity and is kept equal.
        t1, t2 = Tracer(env), Tracer(env)
        t1.record("x", 0, 1)
        t1.record("y", 1, 2)
        t2.record("x", 0, 1)
        t2.record("y", 1, 2)
        t2.spans.reverse()
        assert t1.fingerprint() == t2.fingerprint()

    def test_fingerprint_detects_difference(self, env):
        t1, t2 = Tracer(env), Tracer(env)
        t1.record("x", 0, 1)
        t2.record("x", 0, 1.5)
        assert t1.fingerprint() != t2.fingerprint()

    def test_null_tracer_drops_everything(self):
        tracer = NullTracer()
        tracer.record("x", 0, 1)
        tracer.mark("m")
        assert tracer.spans == []
        assert tracer.marks == []

    def test_name_index_survives_non_append_mutation(self, tracer):
        tracer.record("op", 0, 1)
        tracer.record("op", 1, 2)
        assert len(tracer.spans_named("op")) == 2  # index built
        tracer.spans.clear()  # a consumer reset the trace
        assert tracer.spans_named("op") == []
        tracer.record("op", 2, 3)
        assert len(tracer.spans_named("op")) == 1

    def test_record_dataclasses_are_slotted(self, tracer):
        # perf-no-slots: one Span per completion at event rate; none of
        # the record types may carry a per-instance __dict__.
        span = tracer.record("x", 0, 1)
        for obj in (span, Mark("m", 0.0), TraceContext("t", 1)):
            assert not hasattr(obj, "__dict__"), type(obj).__name__


class _CountingSink(SpanSink):
    """Observes everything, retains nothing, buffers what it's told."""

    def __init__(self, buffered: int = 0) -> None:
        self.started: list[tuple] = []
        self.spans: list[Span] = []
        self.marks: list[Mark] = []
        self.closed = 0
        self._buffered = buffered

    def on_span_start(self, trace_id, span_id, parent_id, name):
        self.started.append((trace_id, span_id, parent_id, name))

    def on_span(self, span):
        self.spans.append(span)
        return False

    def on_mark(self, mark):
        self.marks.append(mark)
        return False

    def retained(self):
        return self._buffered

    def close(self):
        self.closed += 1


class TestSpanSink:
    def test_sink_sees_completions_tracer_retains_nothing(self, env):
        sink = _CountingSink()
        tracer = Tracer(env, sink=sink)
        with tracer.span("a") as a:
            tracer.record("b", 0.0, 0.0, parent=a)
        tracer.mark("m", parent=a)
        assert [s.name for s in sink.spans] == ["b", "a"]  # completion order
        assert [m.name for m in sink.marks] == ["m"]
        assert tracer.spans == [] and tracer.marks == []

    def test_span_start_announced_with_final_ids(self, env):
        sink = _CountingSink()
        tracer = Tracer(env, sink=sink)
        with tracer.span("parent") as parent:
            child = tracer.record("child", 0.0, 0.0, parent=parent)
        # Parent announced before the child, ids match the records.
        assert [entry[3] for entry in sink.started] == ["parent", "child"]
        assert sink.started[1][2] == sink.started[0][1] == child.parent_id

    def test_retaining_sink_keeps_records_on_tracer(self, env):
        class Keep(SpanSink):
            pass  # base hooks return True

        tracer = Tracer(env, sink=Keep())
        tracer.record("x", 0, 1)
        tracer.mark("m")
        assert len(tracer.spans) == 1 and len(tracer.marks) == 1

    def test_self_metering_counts_and_high_water(self, env):
        sink = _CountingSink(buffered=2)
        tracer = Tracer(env, sink=sink)
        tracer.record("x", 0, 1)
        tracer.record("y", 1, 2)
        tracer.mark("m")
        metrics = tracer.metrics
        assert metrics.counter("obs.spans_recorded_total").total() == 3
        assert metrics.counter("obs.spans_dropped_total").total() == 3
        # Held = tracer lists (0) + the sink's buffered claim.
        assert tracer.spans_retained_high_water == 2
        assert metrics.gauge("obs.spans_retained").high_water() == 2

    def test_high_water_reported_to_probe(self, env):
        peaks = []

        class Peak:
            def on_retained(self, source, count):
                peaks.append((source, count))

        env.probe = Peak()
        tracer = Tracer(env, sink=SpanSink())  # base sink retains all
        tracer.record("x", 0, 1)
        tracer.record("y", 1, 2)
        assert peaks == [("spans", 1), ("spans", 2)]
        assert tracer.spans_retained_high_water == 2

    def test_close_flushes_sink(self, env):
        sink = _CountingSink()
        tracer = Tracer(env, sink=sink)
        tracer.close()
        tracer.close()
        assert sink.closed == 2

    def test_no_sink_means_no_metering(self, tracer):
        tracer.record("x", 0, 1)
        tracer.mark("m")
        # The legacy path must not even create the metrics registry.
        assert tracer._metrics is None
        assert tracer.spans_retained_high_water == 0


class TestRngRegistry:
    def test_streams_are_deterministic(self):
        a = RngRegistry(seed=5).stream("gram").random(4)
        b = RngRegistry(seed=5).stream("gram").random(4)
        assert np.allclose(a, b)

    def test_streams_differ_by_name(self):
        rngs = RngRegistry(seed=5)
        assert not np.allclose(
            rngs.stream("x").random(4), rngs.stream("y").random(4)
        )

    def test_streams_differ_by_seed(self):
        assert not np.allclose(
            RngRegistry(0).stream("x").random(4),
            RngRegistry(1).stream("x").random(4),
        )

    def test_stream_is_cached(self):
        rngs = RngRegistry()
        assert rngs.stream("a") is rngs.stream("a")
        assert "a" in rngs

    def test_adding_stream_does_not_perturb_existing(self):
        rngs1 = RngRegistry(seed=3)
        s1 = rngs1.stream("alpha")
        first = s1.random(3)

        rngs2 = RngRegistry(seed=3)
        rngs2.stream("beta")  # extra stream created first
        second = rngs2.stream("alpha").random(3)
        assert np.allclose(first, second)


class TestJittered:
    def test_zero_cv_is_exact(self):
        rng = np.random.default_rng(0)
        assert jittered(rng, 2.0, cv=0.0) == 2.0
        assert jittered(None, 2.0, cv=0.5) == 2.0

    def test_positive_and_near_mean(self):
        rng = np.random.default_rng(0)
        draws = [jittered(rng, 2.0, cv=0.3) for _ in range(500)]
        assert all(d > 0 for d in draws)
        assert abs(sum(draws) / len(draws) - 2.0) < 0.1

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            jittered(None, -1.0)
