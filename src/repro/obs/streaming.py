"""Streaming telemetry: bounded-memory sinks over the tracer seam.

At paper scale a run's whole trace fits in memory and the end-of-run
exporters in :mod:`repro.obs.export` are the right tool.  At the
10⁵–10⁶-event scale of the stress scenarios, retaining every
:class:`~repro.simcore.tracing.Span` makes the observability layer the
dominant memory cost.  This module keeps the repo's signature property
— byte-identical output across runs — while folding, sampling, or
spilling spans *as they complete*, through the
:class:`~repro.simcore.tracing.SpanSink` seam:

* :class:`TraceSampler` — Dapper-style head-based sampling: keep/drop
  is decided once per ``trace_id`` by a seeded pure hash (never
  ``hash()``, which varies per process), so whole causal trees are
  kept or dropped atomically and the kept set is identical across
  runs, machines, and interpreter invocations.
* :class:`AggregatingSink` — the one place spans become statistics:
  it folds every completed span into path-keyed count, duration
  histogram and exclusive (self) time, plus per-label — e.g.
  per-tenant — latency/goodput series, retaining no span objects.
  :func:`replay` feeds a retained trace through a fresh sink in the
  order a live tracer emits it, so post-hoc and streamed aggregates
  are the same bytes; :class:`repro.prof.profile.Profile`, ``obs
  summary`` (:func:`rollup`) and ``obs report`` are views of its
  snapshot.
* :class:`JsonlStreamSink` — an incremental exporter: completed
  records pass through a bounded in-memory buffer, overflowing to
  sorted spill runs on disk; ``close()`` merges the runs into a file
  **byte-identical** to :func:`repro.obs.export.export_jsonl` over the
  same spans.
* :class:`TelemetryPipeline` — composes the three: aggregation sees
  every span (aggregates stay complete), the exporter and in-tracer
  retention see only sampled traces.

All sinks are observation-only: they schedule no events and draw no
random numbers, so a sinked run's simulation is byte-identical to a
bare one (gated in CI by ``benchmarks/streaming_gate.py``).
"""

from __future__ import annotations

import hashlib
import heapq
from bisect import bisect_left
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover
    # Imported lazily at construction time: repro.core's package init
    # reaches repro.net, which imports this module's package — a
    # module-level import here would close that cycle.
    from repro.core.bounded import BoundedDict

from repro.obs.export import (
    FORMAT_VERSION,
    dumps_record,
    mark_record,
    span_record,
)
from repro.obs.metrics import Histogram
from repro.obs.query import SpanNode, build_forest
from repro.simcore.tracing import Mark, Span, SpanSink

#: Aggregate snapshot format identifier (the ``report`` CLI's input).
AGGREGATE_FORMAT = "repro.obs.aggregate/2"

#: Decimal places kept for duration sums and exclusive times in
#: aggregate snapshots — 1 ns resolution, so fold order (live
#: completion order vs. replay order) cannot leak into bytes.
ROUND = 9

#: Span attribute keys aggregated as label dimensions.
LABEL_KEYS: tuple[str, ...] = ("tenant", "job")

#: Default bound on records buffered by the incremental exporter.
DEFAULT_BUFFER_SIZE = 1024

#: Bound on cached per-trace state (sampling decisions, id→path
#: indexes).  LRU over trace ids: both caches are recomputable-or-
#: degradable for evicted traces, and the bound comfortably exceeds
#: the number of traces concurrently open in any workload.
TRACE_CACHE_MAX = 4096


class TraceSampler:
    """Deterministic head-based trace sampling: 1-in-``keep_one_in``.

    The decision is a pure function of ``(seed, trace_id)`` — the
    first 8 bytes of a SHA-256 digest reduced modulo ``keep_one_in`` —
    so it is identical across runs and machines, and every span or
    mark of a trace shares its root's fate (whole-tree atomicity).
    Records with no ``trace_id`` are always kept: they cannot be
    attributed to a tree, and dropping them would lose orphan context.
    """

    def __init__(self, keep_one_in: int, seed: int = 0) -> None:
        from repro.core.bounded import BoundedDict

        if keep_one_in < 1:
            raise ValueError(f"keep_one_in must be >= 1, got {keep_one_in!r}")
        self.keep_one_in = int(keep_one_in)
        self.seed = int(seed)
        #: Decision memo.  Bounded LRU: the decision is a pure function
        #: of (seed, trace_id), so an evicted entry is recomputed to
        #: the identical value — the cache only saves the digest.
        self._decisions: "BoundedDict[str, bool]" = BoundedDict(
            TRACE_CACHE_MAX
        )

    def keep(self, trace_id: Optional[str]) -> bool:
        """Whether the trace is in the kept set (cached per trace id)."""
        if trace_id is None or self.keep_one_in == 1:
            return True
        decision = self._decisions.get(trace_id)
        if decision is None:
            digest = hashlib.sha256(
                f"{self.seed}|{trace_id}".encode("utf-8")
            ).digest()
            decision = (
                int.from_bytes(digest[:8], "big") % self.keep_one_in == 0
            )
            self._decisions[trace_id] = decision
        return decision

    def kept_ids(self, trace_ids: Sequence[Optional[str]]) -> set[str]:
        """The subset of ``trace_ids`` this sampler keeps."""
        return {tid for tid in trace_ids if tid is not None and self.keep(tid)}


class _SpanEntry:
    """One announced span: its path, its parent's entry, and once it
    closes its window; ``union`` merges its closed children's intervals.
    """

    __slots__ = ("path", "parent", "start", "end", "union")

    def __init__(self, path: str, parent: Optional["_SpanEntry"]) -> None:
        self.path = path
        self.parent = parent
        self.start = 0.0
        self.end: Optional[float] = None
        self.union: list[tuple[float, float]] = []


def _cover(union: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Merge ``[lo, hi]`` into the sorted disjoint ``union``; return the growth."""
    if hi <= lo:
        return 0.0
    i = bisect_left(union, lo, key=lambda interval: interval[0])
    if i and union[i - 1][1] >= lo:
        i -= 1
    j = i
    removed = 0.0
    while j < len(union) and union[j][0] <= hi:
        start, end = union[j]
        removed += end - start
        lo, hi = min(lo, start), max(hi, end)
        j += 1
    union[i:j] = [(lo, hi)]
    return (hi - lo) - removed


def _widen(window: Optional[list[float]], span: Span) -> list[float]:
    """``window`` (or a new one) stretched to cover ``span``."""
    if window is None:
        return [span.start, span.end]
    window[0] = min(window[0], span.start)
    window[1] = max(window[1], span.end)
    return window


class AggregatingSink(SpanSink):
    """Folds completed spans into path- and label-keyed statistics.

    No span objects are retained: each completion lands in a
    fixed-bucket :class:`~repro.obs.metrics.Histogram` series keyed by
    the span's *path* (the ``;``-joined root-to-span name chain, the
    same convention as :mod:`repro.prof`) and, for every label key in
    :data:`LABEL_KEYS` present in its attrs, a per-label-value series
    plus an activity window for goodput.  Paths are resolved at span
    *open* time — the tracer announces ids through
    :meth:`~repro.simcore.tracing.SpanSink.on_span_start`, so a
    child's chain is known even while its ancestors are still open.

    Each path also sums **exclusive** (self) time: duration minus the
    union of the children's intervals clipped to the span's window, so
    concurrent children are never double-counted.  A span charges
    ``duration − covered`` when it closes; a child that closes after
    its parent (``Tracer.record`` is retroactive) then subtracts only
    the part of the parent's window it newly covers.
    """

    def __init__(self) -> None:
        from repro.core.bounded import BoundedDict

        #: Per-trace span-id→entry index, LRU-bounded over trace ids.
        #: The bound far exceeds concurrently-open traces; spans of a
        #: trace old enough to be evicted fold under their bare name.
        self._paths: "BoundedDict[str, dict[int, _SpanEntry]]" = BoundedDict(
            TRACE_CACHE_MAX
        )
        self._durations = Histogram("obs.path_duration", "span durations by path")
        self._exclusive: dict[str, float] = {}
        self._labels: dict[str, Histogram] = {
            key: Histogram(f"obs.{key}_duration", f"span durations by {key}")
            for key in LABEL_KEYS
        }
        self._label_windows: dict[str, dict[str, list[float]]] = {
            key: {} for key in LABEL_KEYS
        }
        self._mark_names: dict[str, int] = {}
        self._span_count = 0
        self._mark_count = 0
        self._window: Optional[list[float]] = None

    # -- sink hooks --------------------------------------------------------

    def on_span_start(
        self,
        trace_id: str,
        span_id: int,
        parent_id: Optional[int],
        name: str,
    ) -> None:
        per_trace = self._paths.get(trace_id)
        if per_trace is None:
            per_trace = self._paths[trace_id] = {}
        parent = per_trace.get(parent_id) if parent_id is not None else None
        path = f"{parent.path};{name}" if parent is not None else name
        per_trace[span_id] = _SpanEntry(sys.intern(path), parent)

    def on_span(self, span: Span) -> bool:
        entry = None
        if span.trace_id is not None and span.span_id is not None:
            per_trace = self._paths.get(span.trace_id)
            if per_trace is not None:
                entry = per_trace.get(span.span_id)
        path = entry.path if entry is not None else span.name
        self._span_count += 1
        duration = span.duration
        self._durations.observe(duration, path=path)
        self._charge(path, entry, span)
        self._window = _widen(self._window, span)
        for key in LABEL_KEYS:
            value = span.attrs.get(key)
            if value is None:
                continue
            text = str(value)
            self._labels[key].observe(duration, **{key: text})
            windows = self._label_windows[key]
            windows[text] = _widen(windows.get(text), span)
        return False

    def on_mark(self, mark: Mark) -> bool:
        self._mark_count += 1
        # Code-bounded: keyed by mark *name* (one per instrumentation
        # site), not per occurrence.
        self._mark_names[mark.name] = (  # repro: noqa mem-grow-only-attr
            self._mark_names.get(mark.name, 0) + 1
        )
        return False

    def _charge(self, path: str, entry: Optional[_SpanEntry], span: Span) -> None:
        """Charge ``span``'s self time, and its cover to its parent."""
        covered = 0.0
        parent = None
        if entry is not None:
            entry.start, entry.end = span.start, span.end
            for lo, hi in entry.union:
                covered += max(min(hi, span.end) - max(lo, span.start), 0.0)
            parent = entry.parent
        # Code-bounded: keyed by span path, like the path histogram.
        self._exclusive[path] = (  # repro: noqa mem-grow-only-attr
            self._exclusive.get(path, 0.0) + max(span.duration - covered, 0.0)
        )
        if parent is None:
            return
        if parent.end is None:
            _cover(parent.union, span.start, span.end)
        else:  # a late child: only what it newly covers of the window
            self._exclusive[parent.path] -= _cover(
                parent.union, max(span.start, parent.start), min(span.end, parent.end)
            )

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The aggregates as a canonical, JSON-ready dict.

        Counts, min/max, and bucket counts are fold-order-insensitive
        by construction; sums and exclusive times are rounded to
        :data:`ROUND` decimals so live completion order and replay
        order produce the same bytes.
        """
        paths: dict[str, Any] = {}
        for value in self._durations.snapshot()["values"]:
            path = value["labels"]["path"]
            record = paths[path] = _series_record(value)
            # max(0.0, …) also turns a float-noise -0.0 into 0.0.
            record["exclusive"] = max(0.0, round(self._exclusive[path], ROUND))
        labels: dict[str, Any] = {}
        for key in LABEL_KEYS:
            series: dict[str, Any] = {}
            for value in self._labels[key].snapshot()["values"]:
                name = value["labels"][key]
                record = _series_record(value)
                window = self._label_windows[key][name]
                record["window"] = {"start": window[0], "end": window[1]}
                series[name] = record
            if series:
                labels[key] = series
        return {
            "format": AGGREGATE_FORMAT,
            "spans": self._span_count,
            "marks": self._mark_count,
            "window": (
                {"start": self._window[0], "end": self._window[1]}
                if self._window is not None
                else None
            ),
            "paths": paths,
            "labels": labels,
            "mark_names": dict(sorted(self._mark_names.items())),
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Write the aggregate snapshot as sorted-key JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"
        )
        return path


def _series_record(value: dict[str, Any]) -> dict[str, Any]:
    """One histogram snapshot series, trimmed to the aggregate schema."""
    return {
        "count": value["count"],
        "sum": round(value["sum"], ROUND),
        "min": value["min"],
        "max": value["max"],
        "buckets": value["buckets"],
    }


def replay(spans: Sequence[Span], marks: Sequence[Mark] = ()) -> AggregatingSink:
    """Feed a retained trace through a fresh sink, as a live tracer would.

    Spans open (``on_span_start``) in pre-order over the causal forest
    and close (``on_span``) in post-order; orphans root their own
    paths.  For any run whose spans all completed with recorded
    parents the snapshot equals the live one byte for byte.
    """
    sink = AggregatingSink()

    def visit(node: SpanNode) -> None:
        span = node.span
        if span.trace_id is not None and span.span_id is not None:
            sink.on_span_start(span.trace_id, span.span_id, span.parent_id, span.name)
        for child in node.children:
            visit(child)
        sink.on_span(span)

    for root in build_forest(spans):
        visit(root)
    for mark in marks:
        sink.on_mark(mark)
    return sink


def rollup(aggregate: dict[str, Any]) -> list[dict[str, Any]]:
    """Per-leaf-name view of an aggregate snapshot, by total descending.

    The records of every path ending in a name merge: counts, sums,
    exclusive times and bucket counts add, min and max take the
    extremes.  This is the Fig. 3 self-time table.
    """
    by_name: dict[str, dict[str, Any]] = {}
    for path, record in aggregate["paths"].items():
        name = path.rsplit(";", 1)[-1]
        merged = by_name.get(name)
        if merged is None:
            buckets = [dict(bucket) for bucket in record["buckets"]]
            by_name[name] = {**record, "name": name, "buckets": buckets}
            continue
        for key in ("count", "sum", "exclusive"):
            merged[key] += record[key]
        merged["min"] = min(merged["min"], record["min"])
        merged["max"] = max(merged["max"], record["max"])
        for bucket, other in zip(merged["buckets"], record["buckets"]):
            bucket["count"] += other["count"]
    for merged in by_name.values():
        merged["sum"] = round(merged["sum"], ROUND)
        merged["exclusive"] = round(merged["exclusive"], ROUND)
    return sorted(by_name.values(), key=lambda r: (-r["sum"], r["name"]))


def load_aggregate(path: Union[str, Path]) -> dict[str, Any]:
    """Load an aggregate snapshot, validating its format marker."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("format") != AGGREGATE_FORMAT:
        raise ValueError(f"{path}: not a {AGGREGATE_FORMAT} snapshot")
    return data


class JsonlStreamSink(SpanSink):
    """Incremental JSONL export through a bounded buffer.

    Completed records accumulate as ``(sort_key, line)`` pairs; when a
    buffer reaches ``buffer_size`` it is sorted and spilled to a run
    file next to the destination.  :meth:`close` merges the sorted
    runs (``heapq.merge`` — streaming, never all in memory) and writes
    the final file: meta line, spans by ``(start, line)``, marks by
    ``(time, line)`` — the exact order and bytes of
    :func:`repro.obs.export.export_jsonl`, proven by the byte-identity
    tests over every bench scenario.
    """

    def __init__(
        self,
        path: Union[str, Path],
        buffer_size: int = DEFAULT_BUFFER_SIZE,
    ) -> None:
        if buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size!r}")
        self.path = Path(path)
        self.buffer_size = int(buffer_size)
        self._spans: list[tuple[float, str]] = []
        self._marks: list[tuple[float, str]] = []
        self._span_runs: list[Path] = []
        self._mark_runs: list[Path] = []
        self._span_count = 0
        self._mark_count = 0
        self._closed = False

    # -- sink hooks --------------------------------------------------------

    def on_span(self, span: Span) -> bool:
        self._span_count += 1
        self._spans.append((span.start, dumps_record(span_record(span))))
        if len(self._spans) >= self.buffer_size:
            self._spill(self._spans, self._span_runs, "spans")
        return False

    def on_mark(self, mark: Mark) -> bool:
        self._mark_count += 1
        self._marks.append((mark.time, dumps_record(mark_record(mark))))
        if len(self._marks) >= self.buffer_size:
            self._spill(self._marks, self._mark_runs, "marks")
        return False

    def retained(self) -> int:
        return len(self._spans) + len(self._marks)

    # -- spill and merge ---------------------------------------------------

    def _spill(
        self,
        buffer: list[tuple[float, str]],
        runs: list[Path],
        kind: str,
    ) -> None:
        buffer.sort()
        run = self.path.with_name(f"{self.path.name}.{kind}{len(runs)}.run")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with run.open("w") as fh:
            for key, line in buffer:
                # repr() round-trips floats exactly, so the merge key
                # survives the disk trip bit-for-bit.
                fh.write(f"{key!r}\t{line}\n")
        runs.append(run)
        buffer.clear()

    @staticmethod
    def _iter_run(run: Path) -> Iterator[tuple[float, str]]:
        with run.open() as fh:
            for raw in fh:
                key, _, line = raw.rstrip("\n").partition("\t")
                yield (float(key), line)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._spans.sort()
        self._marks.sort()
        meta = dumps_record(
            {
                "record": "meta",
                "version": FORMAT_VERSION,
                "spans": self._span_count,
                "marks": self._mark_count,
            }
        )
        span_streams = [self._iter_run(r) for r in self._span_runs]
        span_streams.append(iter(self._spans))
        mark_streams = [self._iter_run(r) for r in self._mark_runs]
        mark_streams.append(iter(self._marks))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("w") as fh:
            fh.write(meta + "\n")
            for _, line in heapq.merge(*span_streams):
                fh.write(line + "\n")
            for _, line in heapq.merge(*mark_streams):
                fh.write(line + "\n")
        for run in self._span_runs + self._mark_runs:
            run.unlink(missing_ok=True)
        self._span_runs.clear()
        self._mark_runs.clear()
        self._spans.clear()
        self._marks.clear()


class TelemetryPipeline(SpanSink):
    """The composed streaming pipeline: sample, aggregate, export.

    Aggregation sees **every** completion — the Dapper split: aggregates
    stay complete while traces are sampled — and the exporter plus the
    tracer's in-memory retention see only traces the sampler keeps.
    With ``retain=False`` (the default) nothing is kept on the tracer
    at all, so telemetry memory is bounded by the exporter's buffer
    plus the aggregate tables.
    """

    def __init__(
        self,
        sampler: Optional[TraceSampler] = None,
        aggregator: Optional[AggregatingSink] = None,
        exporter: Optional[JsonlStreamSink] = None,
        retain: bool = False,
    ) -> None:
        self.sampler = sampler
        self.aggregator = aggregator
        self.exporter = exporter
        self.retain = bool(retain)

    def on_span_start(
        self,
        trace_id: str,
        span_id: int,
        parent_id: Optional[int],
        name: str,
    ) -> None:
        if self.aggregator is not None:
            self.aggregator.on_span_start(trace_id, span_id, parent_id, name)

    def on_span(self, span: Span) -> bool:
        if self.aggregator is not None:
            self.aggregator.on_span(span)
        kept = self.sampler is None or self.sampler.keep(span.trace_id)
        if kept and self.exporter is not None:
            self.exporter.on_span(span)
        return kept and self.retain

    def on_mark(self, mark: Mark) -> bool:
        if self.aggregator is not None:
            self.aggregator.on_mark(mark)
        kept = self.sampler is None or self.sampler.keep(mark.trace_id)
        if kept and self.exporter is not None:
            self.exporter.on_mark(mark)
        return kept and self.retain

    def retained(self) -> int:
        return self.exporter.retained() if self.exporter is not None else 0

    def close(self) -> None:
        if self.exporter is not None:
            self.exporter.close()
