"""Edge cases for the ASCII renderers: degenerate spans and forests.

The Gantt chart and causal tree must stay well-defined for traces that
real runs can legitimately produce: zero-duration spans (instantaneous
events recorded as spans), spans whose parent never closed (missing
parents), and single-event traces.
"""

from repro.obs.query import build_forest
from repro.obs.render import BAR, render_gantt, render_summary, render_tree
from repro.obs.streaming import replay, rollup
from repro.simcore.tracing import Mark, Span


def span(name, start, end, trace="t1", sid=1, parent=None):
    return Span(name, start, end, {}, trace, sid, parent)


class TestZeroDurationSpans:
    def test_single_zero_duration_span_renders(self):
        out = render_gantt([span("instant", 2.0, 2.0)])
        assert "instant" in out
        assert BAR in out

    def test_zero_duration_does_not_divide_by_zero(self):
        # All spans at the same instant: extent would be 0 without the
        # renderer's epsilon fallback.
        spans = [span("a", 1.0, 1.0, sid=1), span("b", 1.0, 1.0, sid=2)]
        out = render_gantt(spans)
        lines = out.splitlines()
        assert len(lines) == 3  # header + two lanes
        assert all(BAR in line for line in lines[1:])

    def test_zero_duration_span_among_real_spans(self):
        spans = [span("long", 0.0, 10.0, sid=1), span("blip", 5.0, 5.0, sid=2)]
        out = render_gantt(spans)
        blip_line = next(line for line in out.splitlines() if "blip" in line)
        # A zero-duration span still gets a minimum one-character bar.
        assert blip_line.count(BAR) == 1

    def test_zero_duration_summary_stats(self):
        stats = rollup(replay([span("z", 3.0, 3.0)]).snapshot())
        assert stats[0]["count"] == 1
        assert stats[0]["sum"] == 0.0
        assert stats[0]["exclusive"] == 0.0
        assert stats[0]["max"] == 0.0
        assert "z" in render_summary(stats)


class TestMissingParents:
    def test_orphan_span_becomes_root(self):
        # parent_id 99 never appears: the span must surface as a root
        # rather than vanish from the tree.
        spans = [
            span("root", 0.0, 4.0, sid=1),
            span("orphan", 1.0, 2.0, sid=2, parent=99),
        ]
        roots = build_forest(spans)
        names = sorted(node.span.name for node in roots)
        assert names == ["orphan", "root"]

    def test_orphan_rendered_in_tree(self):
        spans = [
            span("root", 0.0, 4.0, sid=1),
            span("orphan", 1.0, 2.0, sid=2, parent=99),
        ]
        out = render_tree(build_forest(spans))
        assert "root" in out
        assert "orphan" in out

    def test_orphan_keeps_its_children(self):
        # Children of an orphan still hang off it.
        spans = [
            span("orphan", 1.0, 3.0, sid=2, parent=99),
            span("child", 1.5, 2.0, sid=3, parent=2),
        ]
        roots = build_forest(spans)
        assert len(roots) == 1
        assert roots[0].span.name == "orphan"
        assert [c.span.name for c in roots[0].children] == ["child"]

    def test_all_orphans_render_gantt(self):
        spans = [
            span(f"orphan{i}", float(i), float(i) + 0.5, sid=10 + i, parent=99)
            for i in range(3)
        ]
        out = render_gantt(spans)
        assert all(f"orphan{i}" in out for i in range(3))


class TestRowBudget:
    def _many(self, count, names=("alpha", "beta")):
        return [
            span(names[i % len(names)], float(i), float(i) + 1.0, sid=i + 1)
            for i in range(count)
        ]

    def test_under_budget_renders_every_span(self):
        out = render_gantt(self._many(10), max_rows=10)
        assert len(out.splitlines()) == 11  # header + one lane per span
        assert "collapsed" not in out

    def test_over_budget_collapses_same_name_lanes(self):
        out = render_gantt(self._many(300))  # default budget is 200
        lines = out.splitlines()
        # Header + two aggregate lanes + footer, not 300 rows.
        assert len(lines) == 4
        assert "(150 spans, 150s total)" in lines[1]
        assert "(300 spans collapsed into 2 lanes)" in lines[-1]

    def test_budget_overflow_gets_more_footer(self):
        spans = [
            span(f"name{i}", float(i), float(i) + 1.0, sid=i + 1)
            for i in range(12)
        ]
        out = render_gantt(spans, max_rows=5)
        assert "+7 more in 7 lanes not shown" in out

    def test_marks_collapse_with_the_chart(self):
        marks = [Mark("tick", float(i)) for i in range(20)]
        out = render_gantt(self._many(250), marks=marks)
        (mark_line,) = [line for line in out.splitlines() if "tick" in line]
        assert "@0 (+19 more)" in mark_line

    def test_max_rows_none_never_collapses(self):
        out = render_gantt(self._many(250), max_rows=None)
        assert len(out.splitlines()) == 251
        assert "collapsed" not in out


class TestSingleEventTraces:
    def test_empty_trace_renders_placeholder(self):
        assert "(no spans)" in render_gantt([])
        assert render_tree([]) == "(no spans)"
        assert render_summary([]) == "(no spans)"

    def test_single_span_trace(self):
        out = render_gantt([span("only", 0.0, 1.0)])
        lines = out.splitlines()
        assert len(lines) == 2  # header + one lane
        assert "only" in lines[1]

    def test_single_mark_no_spans(self):
        # Marks alone: nothing to chart, placeholder wins.
        out = render_gantt([], marks=[Mark("tick", 1.0)])
        assert "(no spans)" in out

    def test_single_span_with_mark(self):
        out = render_gantt(
            [span("only", 0.0, 2.0)], marks=[Mark("tick", 1.0)]
        )
        assert "tick" in out
        assert "^" in out

    def test_single_span_tree(self):
        roots = build_forest([span("only", 0.0, 1.0)])
        out = render_tree(roots)
        assert "only" in out
        assert "(1s)" in out
