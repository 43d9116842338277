"""Text renderers for traces and metrics.

ASCII output only — these back the ``python -m repro.obs`` CLI and the
Fig. 5 style timeline reproduction, and they must render identically
everywhere (CI logs included).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.obs.metrics import histogram_summary
from repro.obs.query import SpanNode, critical_path
from repro.simcore.tracing import Mark, Span

#: Character used for span bars in the Gantt chart.
BAR = "#"

#: Quantiles in the ``summary`` table (bucket nearest-rank, as in
#: ``report`` and ``metrics``).
NAME_QUANTILES: tuple[float, ...] = (0.5, 0.95)

#: Row budget above which :func:`render_gantt` collapses same-name
#: spans into aggregate lanes instead of drawing one lane per span.
DEFAULT_MAX_ROWS = 200


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_gantt(
    spans: Sequence[Span],
    marks: Sequence[Mark] = (),
    width: int = 64,
    title: Optional[str] = None,
    max_rows: Optional[int] = DEFAULT_MAX_ROWS,
) -> str:
    """One lane per span, time left to right — the Fig. 5 shape.

    Lanes are ordered by start time; each shows the span name, its
    ``[start, end]`` window, and a proportional bar.  Marks are listed
    below the chart with their times.

    Above ``max_rows`` spans the chart downsamples instead of scrolling
    forever: same-name spans collapse into one aggregate lane covering
    their envelope, lanes beyond the budget are cut, and a ``(+N
    more)`` footer accounts for everything not drawn.  Pass
    ``max_rows=None`` to force the full per-span rendering.
    """
    lines: list[str] = []
    if title:
        lines.append(title)
    if not spans:
        lines.append("(no spans)")
        return "\n".join(lines)

    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans)
    extent = max(t1 - t0, 1e-12)
    label_width = min(32, max(len(s.name) for s in spans) + 2)

    def bar_for(start: float, end: float) -> str:
        begin = round((start - t0) / extent * (width - 1))
        finish = max(round((end - t0) / extent * (width - 1)), begin)
        return (" " * begin + BAR * (finish - begin + 1)).ljust(width)

    lines.append(
        f"{'span':<{label_width}} {'':{width}} "
        f"[{_fmt(t0)} .. {_fmt(t1)}]s"
    )
    if max_rows is not None and len(spans) > max_rows:
        return "\n".join(
            lines
            + _collapsed_lanes(spans, marks, label_width, width, max_rows, bar_for)
        )
    ordered = sorted(spans, key=lambda s: (s.start, s.end, s.name, s.span_id or 0))
    for span in ordered:
        lines.append(
            f"{span.name:<{label_width}} {bar_for(span.start, span.end)} "
            f"{_fmt(span.start)} -> {_fmt(span.end)} "
            f"({_fmt(span.duration)}s)"
        )
    for mark in sorted(marks, key=lambda m: (m.time, m.name)):
        offset = round((mark.time - t0) / extent * (width - 1))
        pointer = " " * offset + "^"
        lines.append(f"{mark.name:<{label_width}} {pointer.ljust(width)} @{_fmt(mark.time)}")
    return "\n".join(lines)


def _collapsed_lanes(
    spans: Sequence[Span],
    marks: Sequence[Mark],
    label_width: int,
    width: int,
    max_rows: int,
    bar_for: Any,
) -> list[str]:
    """Aggregate same-name lanes for an over-budget Gantt chart."""
    groups: dict[str, list[Span]] = {}
    for span in spans:
        groups.setdefault(span.name, []).append(span)
    lanes = sorted(
        groups.items(),
        key=lambda kv: (min(s.start for s in kv[1]), kv[0]),
    )
    shown = lanes[:max_rows]
    lines: list[str] = []
    for name, members in shown:
        first = min(s.start for s in members)
        last = max(s.end for s in members)
        total = sum(s.duration for s in members)
        lines.append(
            f"{name:<{label_width}} {bar_for(first, last)} "
            f"{_fmt(first)} -> {_fmt(last)} "
            f"({len(members)} spans, {_fmt(total)}s total)"
        )
    hidden_lanes = len(lanes) - len(shown)
    hidden_spans = sum(len(members) for _, members in lanes[max_rows:])
    footer = f"({len(spans)} spans collapsed into {len(shown)} lanes"
    if hidden_lanes:
        footer += f", +{hidden_spans} more in {hidden_lanes} lanes not shown"
    lines.append(footer + ")")
    if marks:
        mark_groups: dict[str, list[Mark]] = {}
        for mark in marks:
            mark_groups.setdefault(mark.name, []).append(mark)
        for name in sorted(mark_groups):
            members = mark_groups[name]
            times = sorted(m.time for m in members)
            suffix = f" (+{len(times) - 1} more)" if len(times) > 1 else ""
            lines.append(
                f"{name:<{label_width}} {'^'.ljust(width)} "
                f"@{_fmt(times[0])}{suffix}"
            )
    return lines


def render_tree(roots: Sequence[SpanNode]) -> str:
    """Indented causal tree with per-span windows and durations."""
    if not roots:
        return "(no spans)"
    lines: list[str] = []

    def visit(node: SpanNode, prefix: str, is_last: bool, is_root: bool) -> None:
        span = node.span
        connector = "" if is_root else ("`-- " if is_last else "|-- ")
        attrs = ""
        if span.attrs:
            attrs = "  " + " ".join(
                f"{k}={span.attrs[k]}" for k in sorted(span.attrs)
            )
        lines.append(
            f"{prefix}{connector}{span.name} "
            f"[{_fmt(span.start)} -> {_fmt(span.end)}] "
            f"({_fmt(span.duration)}s){attrs}"
        )
        child_prefix = prefix if is_root else prefix + ("    " if is_last else "|   ")
        for idx, child in enumerate(node.children):
            visit(child, child_prefix, idx == len(node.children) - 1, False)

    for root in roots:
        visit(root, "", True, True)
    return "\n".join(lines)


def render_critical_path(root: SpanNode) -> str:
    """The longest-ending chain under ``root``, one hop per line."""
    path = critical_path(root)
    lines = [
        f"critical path: {len(path)} span(s), "
        f"{_fmt(path[-1].span.end - path[0].span.start)}s "
        f"from {path[0].name!r} start to {path[-1].name!r} end"
    ]
    for depth, node in enumerate(path):
        span = node.span
        lines.append(
            f"  {'  ' * depth}{span.name} "
            f"[{_fmt(span.start)} -> {_fmt(span.end)}] ({_fmt(span.duration)}s)"
        )
    return "\n".join(lines)


def render_summary(names: Sequence[dict[str, Any]]) -> str:
    """Fixed-width per-name duration table, in seconds.

    Consumes :func:`repro.obs.streaming.rollup` records: count, total
    and exclusive time, bucket p50/p95 and the exact max.
    """
    if not names:
        return "(no spans)"
    name_width = max(4, max(len(r["name"]) for r in names))
    header = (
        f"{'span':<{name_width}} {'count':>6} {'total':>12} "
        f"{'exclusive':>12} {'p50':>12} {'p95':>12} {'max':>12}"
    )
    lines = [header, "-" * len(header)]
    for record in names:
        summary = histogram_summary(record, NAME_QUANTILES)
        lines.append(
            f"{record['name']:<{name_width}} {record['count']:>6} "
            f"{_fmt(record['sum']):>12} {_fmt(record['exclusive']):>12} "
            f"{_fmt(summary['p50']):>12} {_fmt(summary['p95']):>12} "
            f"{_fmt(record['max']):>12}"
        )
    return "\n".join(lines)


def render_report(aggregate: dict[str, Any], top: int = 20) -> str:
    """A streamed-aggregate report: top paths, then per-label sections.

    Consumes the ``repro.obs.aggregate/2`` snapshot written by
    :class:`repro.obs.streaming.AggregatingSink` — the same numbers
    whether the aggregate was folded live or replayed from a
    full dump, which is exactly what the byte-identity tests assert.
    """
    lines = [
        f"telemetry report: {aggregate.get('spans', 0)} spans, "
        f"{aggregate.get('marks', 0)} marks"
    ]
    window = aggregate.get("window")
    span_seconds = 0.0
    if window:
        span_seconds = float(window["end"]) - float(window["start"])
        lines[0] += f" over [{_fmt(window['start'])} .. {_fmt(window['end'])}]s"

    paths = aggregate.get("paths", {})
    if not paths:
        lines.append("(no paths)")
    else:
        ordered = sorted(
            paths.items(), key=lambda kv: (-kv[1]["sum"], kv[0])
        )
        name_width = max(
            4, min(48, max(len(path) for path, _ in ordered[:top]))
        )
        header = (
            f"{'path':<{name_width}} {'count':>7} {'total':>12} "
            f"{'p50':>10} {'p90':>10} {'p99':>10} {'max':>10}"
        )
        lines += [header, "-" * len(header)]
        for path, record in ordered[:top]:
            summary = histogram_summary(record)
            if len(path) > name_width:  # keep the tail: it names the leaf
                path = "..." + path[len(path) - name_width + 3 :]
            lines.append(
                f"{path:<{name_width}} {record['count']:>7} "
                f"{_fmt(record['sum']):>12} {_fmt(summary['p50']):>10} "
                f"{_fmt(summary['p90']):>10} {_fmt(summary['p99']):>10} "
                f"{_fmt(record['max']):>10}"
            )
        if len(ordered) > top:
            lines.append(f"(+{len(ordered) - top} more paths)")

    for key in sorted(aggregate.get("labels", {})):
        series = aggregate["labels"][key]
        lines.append("")
        lines.append(f"by {key}:")
        name_width = max(len(key), max(len(name) for name in series))
        header = (
            f"  {key:<{name_width}} {'count':>7} {'total':>12} "
            f"{'p50':>10} {'p90':>10} {'p99':>10} {'goodput':>10}"
        )
        lines += [header, "  " + "-" * (len(header) - 2)]
        for name in sorted(series):
            record = series[name]
            summary = histogram_summary(record)
            rec_window = record.get("window")
            active = (
                float(rec_window["end"]) - float(rec_window["start"])
                if rec_window
                else span_seconds
            )
            goodput = record["count"] / active if active > 0 else 0.0
            lines.append(
                f"  {name:<{name_width}} {record['count']:>7} "
                f"{_fmt(record['sum']):>12} {_fmt(summary['p50']):>10} "
                f"{_fmt(summary['p90']):>10} {_fmt(summary['p99']):>10} "
                f"{_fmt(goodput):>8}/s"
            )
    return "\n".join(lines)


def render_metrics(snapshot: dict[str, Any]) -> str:
    """Flatten a metrics snapshot into one labelled value per line."""
    metrics = snapshot.get("metrics", {})
    if not metrics:
        return "(no metrics)"
    lines = [f"metrics at t={_fmt(snapshot.get('time', 0.0))}"]
    for name in sorted(metrics):
        entry = metrics[name]
        kind = entry.get("type", "?")
        for value in entry.get("values", []):
            labels = value.get("labels", {})
            label_text = (
                "{" + ",".join(f"{k}={labels[k]}" for k in sorted(labels)) + "}"
                if labels
                else ""
            )
            if kind == "histogram":
                summary = histogram_summary(value)
                quantiles = " ".join(
                    f"{key}={_fmt(summary[key])}" for key in sorted(
                        summary, key=lambda k: float(k[1:])
                    )
                )
                body = (
                    f"count={value.get('count')} sum={_fmt(value.get('sum', 0.0))} "
                    f"min={_fmt(value.get('min', 0.0))} max={_fmt(value.get('max', 0.0))} "
                    f"{quantiles}"
                )
            elif kind == "gauge":
                body = (
                    f"value={_fmt(value.get('value', 0.0))} "
                    f"high_water={_fmt(value.get('high_water', 0.0))}"
                )
            elif kind == "rate":
                body = (
                    f"rate={_fmt(value.get('rate', 0.0))}/s "
                    f"total={_fmt(value.get('total', 0.0))}"
                )
            else:
                body = f"value={_fmt(value.get('value', 0.0))}"
            lines.append(f"  {name}{label_text} [{kind}] {body}")
    return "\n".join(lines)
