"""Unit tests for trace-tree assembly, validation, and name summaries."""

import pytest

from repro.obs.query import (
    build_forest,
    critical_path,
    parentage,
    trace_ids,
    tree,
)
from repro.obs.metrics import histogram_summary
from repro.obs.streaming import replay, rollup
from repro.simcore import Environment, Tracer


@pytest.fixture
def tracer():
    return Tracer(Environment())


def build_sample(tracer):
    """root -> (a -> a1, b); b ends latest."""
    root = tracer.record("root", 0.0, 10.0)
    a = tracer.record("a", 0.0, 4.0, parent=root)
    tracer.record("a1", 1.0, 2.0, parent=a)
    tracer.record("b", 4.0, 9.0, parent=root)
    return root


class TestForest:
    def test_single_tree(self, tracer):
        build_sample(tracer)
        roots = build_forest(tracer.spans)
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "root"
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in root.children[0].children] == ["a1"]
        assert len(root.walk()) == 4

    def test_orphan_becomes_root(self, tracer):
        from repro.simcore.tracing import Span

        build_sample(tracer)
        orphan = Span("orphan", 0.0, 1.0, {}, "trace-1", 99, 42)
        roots = build_forest(list(tracer.spans) + [orphan])
        assert sorted(r.name for r in roots) == ["orphan", "root"]

    def test_independent_traces_stay_separate(self, tracer):
        build_sample(tracer)
        other = tracer.record("other", 20.0, 21.0)
        assert trace_ids(tracer.spans) == [
            tracer.spans[0].trace_id,
            other.trace_id,
        ]
        (root,) = tree(tracer.spans, other.trace_id)
        assert root.name == "other"
        assert root.children == []


class TestParentage:
    def test_fully_linked(self, tracer):
        build_sample(tracer)
        assert parentage(tracer.spans) == (4, 4)

    def test_broken_chain_detected(self, tracer):
        from repro.simcore.tracing import Span

        build_sample(tracer)
        orphan = Span("orphan", 0.0, 1.0, {}, "trace-1", 99, 42)
        linked, total = parentage(list(tracer.spans) + [orphan])
        assert (linked, total) == (4, 5)

    def test_unidentified_spans_count_as_unlinked(self, tracer):
        from repro.simcore.tracing import Span

        bare = Span("bare", 0.0, 1.0)
        assert parentage([bare]) == (0, 1)


class TestCriticalPath:
    def test_walks_latest_ending_children(self, tracer):
        build_sample(tracer)
        (root,) = build_forest(tracer.spans)
        assert [n.name for n in critical_path(root)] == ["root", "b"]

    def test_single_span_path(self, tracer):
        tracer.record("only", 0.0, 1.0)
        (root,) = build_forest(tracer.spans)
        assert [n.name for n in critical_path(root)] == ["only"]


def summarize(spans):
    """The ``obs summary`` rows: the per-name rollup of a replay."""
    return rollup(replay(spans).snapshot())


class TestSummarize:
    def test_percentiles_nearest_rank(self, tracer):
        for d in range(1, 11):  # durations 1..10
            tracer.record("op", 0.0, float(d))
        (stats,) = summarize(tracer.spans)
        quantiles = histogram_summary(stats, (0.5, 0.95))
        assert stats["count"] == 10
        assert quantiles["p50"] == 5.0
        assert quantiles["p95"] == 10.0
        assert stats["max"] == 10.0
        assert stats["sum"] == 55.0

    def test_sorted_by_total_descending(self, tracer):
        tracer.record("small", 0.0, 1.0)
        tracer.record("large", 0.0, 50.0)
        assert [s["name"] for s in summarize(tracer.spans)] == ["large", "small"]

    def test_empty(self):
        assert summarize([]) == []
