"""Trace-derived profiles: cost attribution per span path.

A :class:`Profile` is a view of a
:class:`~repro.obs.streaming.AggregatingSink` snapshot, keyed by
*path* — the root-to-span chain of names joined with ``;`` (the
collapsed-stack convention), e.g.
``duroc.request;duroc.submit;gram.submit;gram.auth``.  Each path
carries a call count, **inclusive** simulated time (summed span
durations) and **exclusive** self time (inclusive minus the time
covered by child spans; children that overlap — simulated concurrency
— are merged as an interval union first, so exclusive time is never
negative and the attribution stays exact).  A profile of a retained
trace replays it through a fresh aggregator; a live aggregator's
snapshot gives the same profile.

Profiles serialize to canonical JSON — sorted keys, fixed float
rounding, trailing newline — so two runs of the same seed produce
byte-identical files, which the CI perf gate compares with ``cmp``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence, Union

from repro.obs.streaming import ROUND, replay
from repro.simcore.tracing import Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.gridenv import Grid

#: Profile format identifier, bumped on incompatible schema changes.
FORMAT = "repro.prof/1"

#: Path separator between span names (the collapsed-stack convention).
SEP = ";"

#: Metrics-registry counters folded into a profile's op-count section,
#: mapped to their profile counter names.  Totals are summed across
#: label sets, so the counts stay machine- and label-layout-independent.
METRIC_COUNTERS: tuple[tuple[str, str], ...] = (
    ("rpc.calls_total", "rpc.round_trips"),
    ("rpc.timeouts_total", "rpc.timeouts"),
    ("net.messages_sent_total", "net.messages_sent"),
    ("net.messages_delivered_total", "net.messages_delivered"),
    ("net.messages_dropped_total", "net.messages_dropped"),
    ("resilience.retries_total", "resilience.retries"),
    ("resilience.exhausted_total", "resilience.exhausted"),
    ("resilience.breaker_trips_total", "resilience.breaker_trips"),
    ("obs.spans_recorded_total", "obs.spans_recorded"),
    ("obs.spans_dropped_total", "obs.spans_dropped"),
)


@dataclass(frozen=True)
class PathStats:
    """Aggregated cost of one span path."""

    path: str
    count: int
    inclusive: float
    exclusive: float

    @property
    def leaf(self) -> str:
        """The span name at the end of the path."""
        return self.path.rsplit(SEP, 1)[-1]

    def record(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "inclusive": self.inclusive,
            "exclusive": self.exclusive,
        }


class Profile:
    """A run's cost attribution: path stats plus op counters.

    ``meta`` is free-form provenance (scenario name, seed, source
    file); it participates in serialization but never in diffing.
    """

    def __init__(
        self,
        paths: Mapping[str, PathStats],
        counters: Optional[Mapping[str, float]] = None,
        meta: Optional[Mapping[str, Any]] = None,
        span_count: int = 0,
        total_time: float = 0.0,
    ) -> None:
        self.paths: dict[str, PathStats] = dict(paths)
        self.counters: dict[str, float] = dict(counters or {})
        self.meta: dict[str, Any] = dict(meta or {})
        self.span_count = span_count
        self.total_time = total_time

    # -- queries -----------------------------------------------------------

    def exclusive(self, path: str) -> float:
        """Exclusive time of one exact path (0.0 if absent)."""
        stats = self.paths.get(path)
        return stats.exclusive if stats is not None else 0.0

    def exclusive_by_name(self, name: str) -> float:
        """Summed exclusive time over every path ending in ``name``.

        This is the Fig. 3 query: ``exclusive_by_name("gram.auth")`` is
        the total authentication self-time wherever it occurred.
        """
        return sum(s.exclusive for s in self.paths.values() if s.leaf == name)

    def count_by_name(self, name: str) -> int:
        return sum(s.count for s in self.paths.values() if s.leaf == name)

    def top_exclusive(self, n: int = 10) -> list[PathStats]:
        """The ``n`` paths with the most self time, descending."""
        ranked = sorted(
            self.paths.values(), key=lambda s: (-s.exclusive, s.path)
        )
        return ranked[:n]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        return {
            "format": FORMAT,
            "meta": dict(self.meta),
            "span_count": self.span_count,
            "total_time": self.total_time,
            "paths": {path: self.paths[path].record() for path in sorted(self.paths)},
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
        }

    def dumps(self) -> str:
        """Canonical byte form: sorted keys, 2-space indent, newline."""
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.dumps())
        return path

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Profile":
        fmt = data.get("format")
        if fmt != FORMAT:
            raise ValueError(f"not a {FORMAT} profile (format={fmt!r})")
        paths = {
            path: PathStats(
                path=path,
                count=int(entry["count"]),
                inclusive=float(entry["inclusive"]),
                exclusive=float(entry["exclusive"]),
            )
            for path, entry in data.get("paths", {}).items()
        }
        return cls(
            paths=paths,
            counters={k: float(v) for k, v in data.get("counters", {}).items()},
            meta=dict(data.get("meta", {})),
            span_count=int(data.get("span_count", 0)),
            total_time=float(data.get("total_time", 0.0)),
        )

    @classmethod
    def from_aggregate(
        cls,
        aggregate: Mapping[str, Any],
        counters: Optional[Mapping[str, float]] = None,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> "Profile":
        """A profile view of a :mod:`repro.obs.streaming` snapshot."""
        window = aggregate["window"]
        return cls(
            paths={
                path: PathStats(path, r["count"], r["sum"], r["exclusive"])
                for path, r in aggregate["paths"].items()
            },
            counters=counters,
            meta=meta,
            span_count=aggregate["spans"],
            total_time=round(window["end"] - window["start"], ROUND) if window else 0.0,
        )

    @classmethod
    def loads(cls, text: str) -> "Profile":
        return cls.from_json(json.loads(text))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Profile":
        return cls.loads(Path(path).read_text())

    def __repr__(self) -> str:
        return (
            f"<Profile paths={len(self.paths)} spans={self.span_count} "
            f"total={self.total_time:g}s>"
        )


# -- building ----------------------------------------------------------------


def profile_spans(
    spans: Sequence[Span],
    counters: Optional[Mapping[str, float]] = None,
    meta: Optional[Mapping[str, Any]] = None,
) -> Profile:
    """Aggregate ``spans`` into a :class:`Profile`.

    The spans are replayed through the streaming aggregator in causal
    forest order (orphans — spans whose parent was not recorded — root
    their own paths, so a profile can always be built from any trace
    slice).
    """
    return Profile.from_aggregate(replay(spans).snapshot(), counters, meta)


def counters_from_metrics(snapshot: Mapping[str, Any]) -> dict[str, float]:
    """Extract the profile's op counts from a metrics snapshot.

    Only the allowlisted deterministic counters in
    :data:`METRIC_COUNTERS` are folded in; absent metrics are simply
    omitted so profiles from partially instrumented runs stay small.
    """
    metrics = snapshot.get("metrics", {})
    out: dict[str, float] = {}
    for metric_name, counter_name in METRIC_COUNTERS:
        entry = metrics.get(metric_name)
        if entry is None:
            continue
        total = sum(value.get("value", 0.0) for value in entry.get("values", []))
        out[counter_name] = total
    return out


def profile_grid(
    grid: "Grid",
    meta: Optional[Mapping[str, Any]] = None,
) -> Profile:
    """Profile a finished :class:`~repro.gridenv.Grid` run.

    Combines the tracer's spans, the metrics registry's op counters,
    and — when the grid was built ``with_profiling()`` — the kernel op
    counts recorded by its :class:`~repro.prof.counters.OpCounters`.
    """
    counters = counters_from_metrics(grid.tracer.metrics.snapshot())
    if grid.counters is not None:
        counters.update(grid.counters.snapshot())
    return profile_spans(grid.tracer.spans, counters=counters, meta=meta)
