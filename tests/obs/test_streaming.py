"""Streaming telemetry: sampling, bounded sinks, incremental export.

The properties gated here are the pipeline's contract (and CI's
``benchmarks/streaming_gate.py`` re-asserts them at stress scale):

* head-based sampling is a pure function of (seed, trace_id) — same
  seed, same kept set; whole causal trees live or die together;
* the incremental JSONL exporter is byte-identical to the end-of-run
  ``export_jsonl`` over every bench-scenario shape and buffer size;
* the streamed aggregate equals the replay of the full dump, even
  when the exporter samples;
* the aggregator's exclusive time equals a reference interval sweep
  over any span forest, whichever order parents and children close;
* a sinked tracer meters itself and stays bounded.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridenv import GridBuilder
from repro.obs.export import TraceDump, export_jsonl
from repro.obs.query import build_forest
from repro.obs.streaming import (
    AggregatingSink,
    JsonlStreamSink,
    TelemetryPipeline,
    TraceSampler,
    load_aggregate,
    replay,
    rollup,
)
from repro.prof.bench import (
    DEFAULT_SEED,
    _coallocate,
    _figure1_request,
    _kernel_stress_run,
)
from repro.simcore.tracing import Span

# -- bench-scenario shapes, runnable with or without a sink ------------------


def _figure1_run(sink=None):
    builder = (
        GridBuilder(seed=DEFAULT_SEED)
        .add_machine("RM1", nodes=16)
        .add_machine("RM2", nodes=64)
        .add_machine("RM3", nodes=64)
    )
    if sink is not None:
        builder.with_span_sink(sink)
    grid = builder.build()
    _coallocate(grid, _figure1_request(grid))
    return grid.tracer


def _duroc_scaling_run(sink=None):
    from repro.core.request import CoAllocationRequest, SubjobSpec, SubjobType
    from repro.gridenv import DEFAULT_EXECUTABLE

    builder = GridBuilder(seed=DEFAULT_SEED)
    sites = [f"RM{i}" for i in range(1, 7)]
    for site in sites:
        builder.add_machine(site, nodes=16)
    if sink is not None:
        builder.with_span_sink(sink)
    grid = builder.build()
    request = CoAllocationRequest([
        SubjobSpec(
            contact=grid.site(site).contact,
            count=2,
            executable=DEFAULT_EXECUTABLE,
            start_type=SubjobType.REQUIRED,
        )
        for site in sites
    ])
    _coallocate(grid, request)
    return grid.tracer


def _kernel_stress_traced(sink=None):
    tracer, _ = _kernel_stress_run(DEFAULT_SEED, sink=sink, trace_spans=True)
    return tracer


#: Scenario name -> (runner, spill-forcing buffer size).  The stress
#: shape uses a larger buffer so the merge fans in over a handful of
#: spill runs rather than thousands of open files.
SCENARIOS = {
    "figure1": (_figure1_run, 4),
    "duroc_scaling": (_duroc_scaling_run, 4),
    "kernel_stress": (_kernel_stress_traced, 512),
}


def _dump_of(tracer):
    return TraceDump(spans=list(tracer.spans), marks=list(tracer.marks))


class TestTraceSampler:
    def test_same_seed_same_kept_set(self):
        ids = [f"trace-{i}" for i in range(500)]
        kept_a = TraceSampler(8, seed=3).kept_ids(ids)
        kept_b = TraceSampler(8, seed=3).kept_ids(ids)
        assert kept_a == kept_b
        # Roughly 1-in-8, and never empty at this population.
        assert 20 <= len(kept_a) <= 130

    def test_different_seeds_differ(self):
        ids = [f"trace-{i}" for i in range(500)]
        assert TraceSampler(8, seed=3).kept_ids(ids) != TraceSampler(
            8, seed=4
        ).kept_ids(ids)

    def test_keep_everything_cases(self):
        sampler = TraceSampler(5, seed=1)
        assert sampler.keep(None)  # unattributed records are never dropped
        assert all(
            TraceSampler(1, seed=9).keep(f"trace-{i}") for i in range(50)
        )

    def test_decision_is_cached_and_stable(self):
        sampler = TraceSampler(4, seed=0)
        first = sampler.keep("trace-7")
        assert all(sampler.keep("trace-7") == first for _ in range(3))

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            TraceSampler(0)


class TestWholeTreeAtomicity:
    def test_sampled_traces_keep_or_drop_every_record(self):
        # 190 root spans -> 190 traces: plenty on both sides of a 1/4
        # sampling decision.
        reference = _kernel_stress_traced()
        sampler = TraceSampler(4, seed=DEFAULT_SEED)
        pipeline = TelemetryPipeline(sampler=sampler, retain=True)
        sinked = _kernel_stress_traced(sink=pipeline)

        by_trace = {}
        for span in reference.spans:
            by_trace.setdefault(span.trace_id, set()).add(span.key())
        retained = {}
        for span in sinked.spans:
            retained.setdefault(span.trace_id, set()).add(span.key())

        check = TraceSampler(4, seed=DEFAULT_SEED)
        kept = {tid for tid in by_trace if check.keep(tid)}
        assert kept and kept != set(by_trace)  # both fates occur
        for trace_id, keys in by_trace.items():
            if trace_id in kept:
                assert retained.get(trace_id) == keys, trace_id
            else:
                assert trace_id not in retained, trace_id
        # Marks follow their tree's fate too.
        mark_keys = {m.key() for m in sinked.marks}
        for mark in reference.marks:
            assert (mark.key() in mark_keys) == check.keep(mark.trace_id)


class TestIncrementalJsonl:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_byte_identical_to_export_jsonl(self, tmp_path, name):
        runner, buffer_size = SCENARIOS[name]
        reference = export_jsonl(_dump_of(runner()))

        out = tmp_path / f"{name}.jsonl"
        sink = JsonlStreamSink(out, buffer_size=buffer_size)
        tracer = runner(sink=sink)
        tracer.close()
        assert tracer.spans == [] and tracer.marks == []
        assert out.read_text() == reference
        # The spill runs were merged and removed.
        assert list(tmp_path.glob("*.run")) == []

    def test_close_is_idempotent(self, tmp_path):
        out = tmp_path / "t.jsonl"
        sink = JsonlStreamSink(out, buffer_size=2)
        tracer = _figure1_run(sink=sink)
        tracer.close()
        first = out.read_text()
        tracer.close()
        assert out.read_text() == first

    def test_rejects_bad_buffer(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlStreamSink(tmp_path / "t.jsonl", buffer_size=0)


class TestAggregation:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_streamed_equals_posthoc(self, name):
        runner, _ = SCENARIOS[name]
        reference = runner()
        aggregator = AggregatingSink()
        runner(sink=TelemetryPipeline(aggregator=aggregator))
        streamed = aggregator.snapshot()
        posthoc = replay(reference.spans, reference.marks).snapshot()
        assert json.dumps(streamed, sort_keys=True) == json.dumps(
            posthoc, sort_keys=True
        )

    def test_aggregates_complete_under_sampling(self):
        # The Dapper split: the exporter samples, the aggregates do not.
        reference = _kernel_stress_traced()
        aggregator = AggregatingSink()
        _kernel_stress_traced(
            sink=TelemetryPipeline(
                sampler=TraceSampler(16, seed=DEFAULT_SEED),
                aggregator=aggregator,
            )
        )
        snapshot = aggregator.snapshot()
        assert snapshot["spans"] == len(reference.spans)
        assert snapshot["paths"]["storm.client;storm.trip"]["count"] == 4000

    def test_per_label_series(self):
        aggregator = AggregatingSink()
        _kernel_stress_traced(sink=TelemetryPipeline(aggregator=aggregator))
        snapshot = aggregator.snapshot()
        tenants = snapshot["labels"]["tenant"]
        assert len(tenants) == 8
        # 40 clients over 8 tenants: 5 roots + 500 trips each.
        assert all(entry["count"] == 505 for entry in tenants.values())
        jobs = snapshot["labels"]["job"]
        assert len(jobs) == 10
        for entry in list(tenants.values()) + list(jobs.values()):
            assert entry["window"]["end"] > entry["window"]["start"]

    def test_write_and_load_roundtrip(self, tmp_path):
        aggregator = AggregatingSink()
        _figure1_run(sink=TelemetryPipeline(aggregator=aggregator))
        path = aggregator.write(tmp_path / "agg.json")
        assert load_aggregate(path) == aggregator.snapshot()

    def test_load_rejects_other_json(self, tmp_path):
        path = tmp_path / "not_agg.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_aggregate(path)


# -- exclusive time against a reference sweep --------------------------------


def _covered(span, children):
    """Reference: length of the union of child windows clipped to ``span``.

    A sort-and-sweep over every child at once — the batch computation
    the streaming aggregator's incremental union must agree with.
    """
    intervals = sorted(
        (max(child.span.start, span.start), min(child.span.end, span.end))
        for child in children
        if child.span.end > span.start and child.span.start < span.end
    )
    covered = 0.0
    cursor = span.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def _reference_exclusive(spans):
    """Per-path exclusive time, by the reference sweep over the forest."""
    totals = {}

    def visit(node, prefix):
        path = f"{prefix};{node.span.name}" if prefix else node.span.name
        own = max(node.span.duration - _covered(node.span, node.children), 0.0)
        totals[path] = totals.get(path, 0.0) + own
        for child in node.children:
            visit(child, path)

    for root in build_forest(spans):
        visit(root, "")
    return {path: round(total, 9) for path, total in totals.items()}


def _emit(sink, spans, parent_first):
    """Announce in pre-order; close each span before or after its children."""

    def visit(node):
        span = node.span
        if span.trace_id is not None:
            sink.on_span_start(
                span.trace_id, span.span_id, span.parent_id, span.name
            )
        if parent_first(span):
            sink.on_span(span)
        for child in node.children:
            visit(child)
        if not parent_first(span):
            sink.on_span(span)

    for root in build_forest(spans):
        visit(root)
    return sink


#: Quarter-second grid: every sum is exact, so rounding cannot differ.
_TIMES = st.integers(min_value=0, max_value=160).map(lambda q: q / 4)


@st.composite
def _forests(draw):
    """Random span forests: nested, overlapping, spilling and orphan spans."""
    spans = []
    for sid in range(1, draw(st.integers(min_value=1, max_value=24)) + 1):
        start = draw(_TIMES)
        end = start + draw(_TIMES)
        parent = draw(
            st.one_of(
                st.none(),
                st.just(999),  # an orphan: its parent was never recorded
                st.integers(min_value=1, max_value=max(1, sid - 1)),
            )
        )
        if parent == sid:
            parent = None
        # A trace-less span cannot be a parent or a child.
        untraced = draw(st.integers(min_value=0, max_value=9)) == 0
        spans.append(
            Span(
                draw(st.sampled_from("abc")), start, end, {},
                None if untraced else "t1",
                sid,
                None if untraced else parent,
            )
        )
    late = draw(st.frozensets(st.integers(min_value=1, max_value=24)))
    return spans, late


class TestExclusiveTime:
    @settings(max_examples=200, deadline=None)
    @given(_forests())
    def test_matches_reference_sweep(self, forest):
        spans, late = forest
        expected = _reference_exclusive(spans)
        orders = {
            "children close first": lambda span: False,
            "parent recorded first": lambda span: True,
            "mixed": lambda span: span.span_id in late,
        }
        for order, parent_first in orders.items():
            snapshot = _emit(AggregatingSink(), spans, parent_first).snapshot()
            got = {path: r["exclusive"] for path, r in snapshot["paths"].items()}
            assert got == expected, order

    def test_late_child_subtracts_only_new_cover(self):
        sink = AggregatingSink()
        sink.on_span_start("t", 1, None, "root")
        sink.on_span(Span("root", 0.0, 10.0, {}, "t", 1, None))
        for sid, (start, end) in enumerate([(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)], 2):
            sink.on_span_start("t", sid, 1, "kid")
            sink.on_span(Span("kid", start, end, {}, "t", sid, 1))
        paths = sink.snapshot()["paths"]
        # Covered: [1, 6] plus [8, 10] of the root's window.
        assert paths["root"]["exclusive"] == 3.0
        assert paths["root;kid"]["exclusive"] == 10.0


class TestRollup:
    def test_merges_every_path_ending_in_a_name(self):
        spans = [
            Span("root", 0.0, 10.0, {}, "t", 1, None),
            Span("auth", 1.0, 2.0, {}, "t", 2, 1),
            Span("other", 3.0, 6.0, {}, "t", 3, 1),
            Span("auth", 4.0, 4.5, {}, "t", 4, 3),
        ]
        (root, other, auth) = rollup(replay(spans).snapshot())
        assert [r["name"] for r in (root, other, auth)] == [
            "root", "other", "auth"
        ]
        assert auth["count"] == 2
        assert auth["sum"] == 1.5
        assert auth["exclusive"] == 1.5
        assert (auth["min"], auth["max"]) == (0.5, 1.0)
        assert auth["buckets"][-1] == {"le": "+Inf", "count": 2}
        assert other["exclusive"] == 2.5


class TestPipelineMetering:
    def test_bounded_memory_and_counters(self, tmp_path):
        buffer_size = 256
        pipeline = TelemetryPipeline(
            sampler=TraceSampler(16, seed=DEFAULT_SEED),
            aggregator=AggregatingSink(),
            exporter=JsonlStreamSink(
                tmp_path / "s.jsonl", buffer_size=buffer_size
            ),
        )
        tracer = _kernel_stress_traced(sink=pipeline)
        tracer.close()

        total = 13193  # the telemetry_stress span count (no marks)
        assert 0 < tracer.spans_retained_high_water <= 2 * buffer_size
        metrics = tracer.metrics
        recorded = metrics.counter("obs.spans_recorded_total").total()
        dropped = metrics.counter("obs.spans_dropped_total").total()
        assert recorded == total
        assert dropped == total  # retain=False: nothing stays on the tracer
        gauge = metrics.gauge("obs.spans_retained")
        assert gauge.high_water() == tracer.spans_retained_high_water

    def test_probe_sees_high_water(self):
        tracer, counters = _kernel_stress_run(
            DEFAULT_SEED,
            sink=TelemetryPipeline(aggregator=AggregatingSink(), retain=True),
            trace_spans=True,
        )
        assert (
            counters.spans_retained_high_water
            == tracer.spans_retained_high_water
            == len(tracer.spans)
        )
        assert "obs.spans_retained_high_water" in counters.snapshot()

    def test_no_sink_no_metering(self):
        tracer = _figure1_run()
        assert tracer.spans_retained_high_water == 0
        assert "obs.spans_recorded_total" not in tracer.metrics.names()


class TestReportCli:
    def _report_json(self, capsys, source):
        from repro.obs.cli import main

        assert main(["--format", "json", "report", str(source)]) == 0
        return json.loads(capsys.readouterr().out)

    def test_stream_and_dump_agree(self, tmp_path, capsys):
        from repro.obs.export import write_jsonl

        reference = _figure1_run()
        dump_path = write_jsonl(_dump_of(reference), tmp_path / "dump.jsonl")

        aggregator = AggregatingSink()
        _figure1_run(sink=TelemetryPipeline(aggregator=aggregator))
        agg_path = aggregator.write(tmp_path / "agg.json")

        from_stream = self._report_json(capsys, agg_path)
        from_dump = self._report_json(capsys, dump_path)
        assert from_stream["paths"] == from_dump["paths"]
        assert from_stream["labels"] == from_dump["labels"]
        # p50/p90/p99 summaries ride on every series record.
        assert all("summary" in rec for rec in from_stream["paths"].values())

    def test_text_report(self, tmp_path, capsys):
        from repro.obs.cli import main

        aggregator = AggregatingSink()
        _kernel_stress_traced(sink=TelemetryPipeline(aggregator=aggregator))
        path = aggregator.write(tmp_path / "agg.json")
        assert main(["report", str(path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "telemetry report: 13193 spans" in out
        assert "(+4 more paths)" in out
        assert "by tenant:" in out
        assert "tenant-0" in out

    def test_bad_snapshot_is_usage_error(self, tmp_path):
        from repro.obs.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "nope"}')
        with pytest.raises(SystemExit) as excinfo:
            main(["report", str(bad)])
        assert excinfo.value.code == 2
