"""Measurement helpers of the host-clock benchmark.

Everything here observes the program from outside: percentiles over
simulated latencies, the rule that decides whether a co-allocation
failed, the fold of a cProfile run into per-package self time, and a
counting :class:`~repro.simcore.probe.Probe` attached through
``GridBuilder.with_probe``.  The pure functions take plain data so the
benchmark's own tests can pin them without running a simulation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.core.barrier import CHECKIN
from repro.simcore.probe import Probe
from repro.verify.recorder import Recorder

#: Percentiles the tail is chosen from, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile for it to count as the tail.
TAIL_MIN_BEYOND = 10


def nearest_rank(ordered: Sequence[float], p: float) -> float:
    """The ``p``-th percentile of sorted ``ordered`` by nearest rank."""
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(
    samples: Sequence[float], min_beyond: int = TAIL_MIN_BEYOND
) -> Optional[tuple[float, float]]:
    """``(p, value)`` of the highest ladder percentile with enough samples beyond.

    A percentile qualifies when at least ``min_beyond`` samples rank
    above its nearest rank.  Returns None when even the median does not
    qualify (fewer than ``2 * min_beyond`` samples).
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= min_beyond:
            return p, ordered[rank - 1]
    return None


@dataclass(frozen=True)
class Coalloc:
    """What the benchmark saw of one attempted co-allocation."""

    #: ``committed``, ``aborted``, ``raised`` or ``unfinished`` (the
    #: simulation ended before its commit returned).
    outcome: str
    #: Simulated seconds from submit to barrier release (committed only).
    latency: Optional[float] = None
    #: ``repro.verify`` monitor findings attributed to it.
    findings: int = 0
    #: Released slots whose GRAM job had already ended at release.
    ended_released: int = 0
    #: Benchmark output checks it failed (e.g. released sizes differ
    #: from the requested counts).
    check_failures: int = 0


def is_failed(coalloc: Coalloc) -> bool:
    """Whether a co-allocation counts against ``failed_share``.

    It failed if it did not commit, if a monitor reported a finding
    on it, if its commit released a slot whose GRAM job had already
    ended, or if one of the benchmark's output checks failed.
    """
    return (
        coalloc.outcome != "committed"
        or coalloc.findings > 0
        or coalloc.ended_released > 0
        or coalloc.check_failures > 0
    )


def ended_before(job_state_terminal: bool, finished_at: Optional[float], at: float) -> bool:
    """A GRAM job counts as ended at ``at`` if it is terminal by then."""
    return job_state_terminal and finished_at is not None and finished_at <= at


def package_of(filename: str) -> str:
    """The layer a profiled function belongs to.

    ``src/repro/<pkg>/...`` folds to ``<pkg>`` and a top-level module
    ``src/repro/<mod>.py`` to ``<mod>``; interpreter built-ins (cProfile
    files ``~``) fold to ``builtin`` and everything else — standard
    library, numpy, the benchmark itself — to ``other``.
    """
    if filename == "~" or filename.startswith("<built-in"):
        return "builtin"
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return "other"
    rest = path[at + len(marker):]
    head = rest.split("/", 1)[0]
    return head[:-3] if head.endswith(".py") else head


def fold_self_time(rows: Iterable[tuple[str, float]]) -> dict[str, float]:
    """Sum ``(filename, self_seconds)`` rows by :func:`package_of`."""
    totals: dict[str, float] = {}
    for filename, seconds in rows:
        key = package_of(filename)
        totals[key] = totals.get(key, 0.0) + seconds
    return totals


def call_count(stats: dict, suffix: str, functions: Sequence[str]) -> int:
    """Calls of ``functions`` defined in a file ending ``suffix``.

    ``stats`` is ``pstats.Stats(...).stats``: keys are
    ``(filename, line, name)`` and values start with the primitive and
    total call counts.
    """
    total = 0
    for (filename, _line, name), value in stats.items():
        if name in functions and filename.replace("\\", "/").endswith(suffix):
            total += value[1]
    return total


class CountingProbe(Probe):
    """Counts kernel, network and protocol work; never perturbs the run."""

    def __init__(self) -> None:
        self.steps = 0
        self.queue_high_water = 0
        self.sends = 0
        self.drops = 0
        self.sends_by_kind: Counter[str] = Counter()
        self.events: Counter[str] = Counter()
        #: Distinct process check-ins the co-allocators received.
        self.checkins_received = 0
        self._checkins_seen: set[tuple[str, int, int]] = set()

    def on_schedule(self, when: float, queue_size: int) -> None:
        if queue_size > self.queue_high_water:
            self.queue_high_water = queue_size

    def on_step(self, now: float) -> None:
        self.steps += 1

    def on_send(self, message) -> None:
        self.sends += 1
        self.sends_by_kind[message.kind] += 1

    def on_deliver(self, message) -> None:
        if message.kind == CHECKIN:
            payload = message.payload
            key = (str(message.dst), payload["slot_id"], payload["rank"])
            if key not in self._checkins_seen:
                self._checkins_seen.add(key)
                self.checkins_received += 1

    def on_drop(self, message, reason: str) -> None:
        self.drops += 1

    def event(self, node: str, name: str, attrs: dict) -> None:
        self.events[name] += 1

    def add(self, other: "CountingProbe") -> None:
        """Fold another run's counts into this one (high-water: max)."""
        self.steps += other.steps
        self.queue_high_water = max(self.queue_high_water, other.queue_high_water)
        self.sends += other.sends
        self.drops += other.drops
        self.sends_by_kind.update(other.sends_by_kind)
        self.events.update(other.events)
        self.checkins_received += other.checkins_received


class CountingRecorder(Recorder):
    """A verification recorder that also feeds a :class:`CountingProbe`.

    ``run_trial`` takes a recorder, not arbitrary probes, so the
    campaign workload counts through this subclass.
    """

    def __init__(self) -> None:
        super().__init__()
        self.counts = CountingProbe()

    def on_schedule(self, when: float, queue_size: int) -> None:
        self.counts.on_schedule(when, queue_size)

    def on_step(self, now: float) -> None:
        self.counts.on_step(now)

    def on_send(self, message) -> None:
        super().on_send(message)
        self.counts.on_send(message)

    def on_deliver(self, message) -> None:
        super().on_deliver(message)
        self.counts.on_deliver(message)

    def on_drop(self, message, reason: str) -> None:
        super().on_drop(message, reason)
        self.counts.on_drop(message, reason)

    def event(self, node: str, name: str, attrs: dict) -> None:
        super().event(node, name, attrs)
        self.counts.event(node, name, attrs)
