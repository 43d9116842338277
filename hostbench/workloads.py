"""The benchmark's workloads: seeded inputs and one simulated unit each.

A workload turns the benchmark seed into inputs (``inputs``) and runs
one *unit* of them (``run_unit``): independent simulations driven
through the program's public entry points — ``GridBuilder``,
``Duroc.submit``/``DurocJob.commit``, the ``repro.broker`` agents,
``resilience.campaign.run_trial`` and ``verify.runner.verify_recorder``.
The program receives only the generated inputs.

``prepare(unit, mode)`` does everything up to the first simulated
event and returns a callable that runs the simulations and returns a
:class:`UnitRun`, so set-up and run can be timed apart.  The
:class:`Mode` selects the program as users run it (default tracing),
its tracer off, the benchmark's counting probe, or, for the campaigns,
with or without the ``repro.verify`` recorder and flight recorder.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from measure import Coalloc, CountingProbe, CountingRecorder, ended_before
from repro.broker.atomic_agent import AtomicAgent
from repro.broker.interactive_agent import InteractiveAgent
from repro.core.applib import make_program
from repro.core.request import CoAllocationRequest, SubjobSpec, SubjobType
from repro.errors import AllocationAborted, ReproError
from repro.experiments.apps import SUBMIT_TIMEOUT, wasted_node_seconds
from repro.gridenv import DEFAULT_EXECUTABLE, Grid, GridBuilder
from repro.mds.directory import Directory
from repro.obs.flightrec import FlightRecorder
from repro.resilience.campaign import CAMPAIGNS, run_trial
from repro.verify.events import SEND
from repro.verify.recorder import Recorder
from repro.verify.runner import verify_recorder
from repro.workloads.scenarios import SF_EXPRESS_COUNTS, SF_EXPRESS_SIZES


@dataclass(frozen=True)
class Mode:
    """How a unit is observed."""

    #: The program's own tracer (``GridBuilder(trace=...)``); on by default.
    trace: bool = True
    #: Attach a :class:`~measure.CountingProbe` (per-layer counts).
    count: bool = False
    #: Run campaign trials under ``repro.verify`` monitors and a flight
    #: recorder.
    observed: bool = False


@dataclass
class UnitRun:
    """What one unit did in simulated terms, and what it cost on the host."""

    coallocs: list[Coalloc] = field(default_factory=list)
    messages: int = 0
    #: Node-seconds of GRAM jobs started then killed; None where the
    #: grid is not visible through the entry point (``run_trial``).
    wasted_node_s: Optional[float] = None
    #: Host seconds spent in ``verify_recorder`` (observed campaigns).
    evaluate_s: float = 0.0
    #: Events held by the verification recorders (observed campaigns).
    events_recorded: int = 0
    counts: Optional[CountingProbe] = None
    #: Per-layer counts read from the program's results and metrics.
    layer: dict[str, float] = field(default_factory=dict)
    #: Canonical per-trial records (campaigns), for the bare-vs-observed check.
    records: list[dict] = field(default_factory=list)

    def digest(self) -> tuple:
        """The unit's simulated outcome; equal across repeats of one input."""
        return (tuple(self.coallocs), self.messages, self.wasted_node_s)

    def bump(self, key: str, value: float) -> None:
        self.layer[key] = self.layer.get(key, 0.0) + float(value)


class Observers:
    """The counting probes a unit attaches to each grid it builds."""

    def __init__(self, mode: Mode) -> None:
        self.mode = mode
        self.probes: list[CountingProbe] = []
        self.grids: list[Grid] = []

    def build(self, builder: GridBuilder) -> Grid:
        if self.mode.count:
            self.probes.append(CountingProbe())
            builder.with_probe(self.probes[-1])
        grid = builder.build()
        self.grids.append(grid)
        return grid

    def collect(self, run: UnitRun) -> None:
        """Fold probe counts and the program's retry metrics into ``run``."""
        if self.probes:
            run.counts = CountingProbe()
            for probe in self.probes:
                run.counts.add(probe)
            for grid in self.grids:
                metrics = grid.tracer.metrics
                run.bump("resilience.retries",
                         metrics.counter("resilience.retries_total").total())
                run.bump("resilience.breaker_trips",
                         metrics.counter("resilience.breaker_trips_total").total())


def _verify(run: UnitRun, recorder: Recorder, flightrec: FlightRecorder, label: str) -> int:
    """Evaluate the monitors over one observed run; returns its findings."""
    started = time.perf_counter()
    _entry, findings = verify_recorder(recorder, label, flightrec=flightrec)
    run.evaluate_s += time.perf_counter() - started
    run.events_recorded += len(recorder.events)
    return len(findings)


def _ended_released(grid: Grid, slots, at: float) -> int:
    """Released slots whose GRAM job had already ended at ``at``."""
    sites = {site.contact: site for site in grid.sites.values()}
    count = 0
    for slot in slots:
        site = sites.get(slot.spec.contact)
        if slot.gram_handle is None or site is None:
            continue
        manager = site.gatekeeper.job_managers.peek(slot.gram_handle.job_id)
        if manager is not None and ended_before(
            manager.job.state.terminal, manager.job.finished_at, at
        ):
            count += 1
    return count


def _sizes_match(request: CoAllocationRequest, released, sizes) -> bool:
    """Commit sizes equal the requested counts of every non-optional subjob."""
    if list(sizes) != [slot.spec.count for slot in released]:
        return False
    got = {
        slot.index: slot.spec.count
        for slot in released
        if slot.spec.start_type is not SubjobType.OPTIONAL
    }
    want = {
        index: spec.count
        for index, spec in enumerate(request)
        if spec.start_type is not SubjobType.OPTIONAL
    }
    return got == want


# ---------------------------------------------------------------------------
# duroc_burst
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BurstInput:
    grid_seed: int
    #: Simulated arrival time of each request (open loop).
    arrivals: tuple[float, ...]
    #: Each request's RSL multi-request text.
    rsl: tuple[str, ...]


class DurocBurst:
    """Independent DUROC requests arriving as a Poisson stream."""

    name = "duroc_burst"
    #: How users run it: default tracing, no monitors.
    mode = Mode()
    sites = 16
    nodes = 64
    requests = 200
    #: Mean arrivals per simulated second.
    rate = 1.0
    subjobs = 4
    max_count = 8
    #: Start types drawn for the subjobs after the first (required) one.
    start_types = ("required", "interactive", "optional")

    def inputs(self, seed: int) -> list[BurstInput]:
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(rng.exponential(1.0 / self.rate, size=self.requests))
        texts = []
        for _ in range(self.requests):
            sites = rng.choice(self.sites, size=self.subjobs, replace=False)
            kinds = ["required"] + [
                str(k) for k in rng.choice(self.start_types, size=self.subjobs - 1)
            ]
            counts = rng.integers(1, self.max_count + 1, size=self.subjobs)
            texts.append("+" + "".join(
                f"(&(resourceManagerContact=S{int(s) + 1}:gatekeeper)"
                f"(count={int(c)})(executable={DEFAULT_EXECUTABLE})"
                f"(subjobStartType={k}))"
                for s, k, c in zip(sites, kinds, counts)
            ))
        return [BurstInput(seed, tuple(float(t) for t in arrivals), tuple(texts))]

    def prepare(self, unit: BurstInput, mode: Mode) -> Callable[[], UnitRun]:
        observers = Observers(mode)
        builder = GridBuilder(seed=unit.grid_seed, trace=mode.trace)
        grid = observers.build(builder.add_machines("S", self.sites, nodes=self.nodes))
        duroc = grid.duroc()
        # A request whose commit never returned stays "unfinished".
        coallocs: list[Coalloc] = [Coalloc("unfinished")] * len(unit.rsl)

        def request(env, index: int, at: float, text: str):
            yield env.timeout(at)
            try:
                req = CoAllocationRequest.from_rsl(text)
                job = duroc.submit(req)
                result = yield from job.commit()
            except AllocationAborted:
                coallocs[index] = Coalloc("aborted")
                return
            except ReproError:
                coallocs[index] = Coalloc("raised")
                return
            released = job.released_slots()
            coallocs[index] = Coalloc(
                "committed",
                latency=result.elapsed,
                ended_released=_ended_released(grid, released, grid.now),
                check_failures=int(not _sizes_match(req, released, result.sizes)),
            )

        for index, (at, text) in enumerate(zip(unit.arrivals, unit.rsl)):
            grid.process(request(grid.env, index, at, text))

        def finish() -> UnitRun:
            grid.run()
            run = UnitRun(
                coallocs=coallocs,
                messages=grid.network.sent_count,
                wasted_node_s=wasted_node_seconds(grid),
            )
            observers.collect(run)
            return run

        return finish


# ---------------------------------------------------------------------------
# long_barrier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BarrierInput:
    grid_seed: int
    #: Machines overloaded 50x.
    slow: tuple[str, ...]


class LongBarrier:
    """The paragraph-4.3 restart experiment, with waits past the resend cap."""

    name = "long_barrier"
    mode = Mode()
    #: SF-Express machine sizes and process counts are divided by this.
    scale = 4
    #: Per-process startup.  The subjob timeout is twice this, so healthy
    #: processes wait in the barrier past the 122 s CHECKIN resend cap.
    startup = 120.0
    overload = 50.0
    #: Overload candidates of near-equal size (116 or 86 processes), so
    #: the seed moves the run's cost little.
    slow_candidates = ("RM4", "RM5", "RM6", "RM7", "RM8", "RM9")
    slow_count = 3
    spares = 3
    #: Network latency jitter, drawn from the grid seed.
    latency_jitter_cv = 0.05

    def inputs(self, seed: int) -> list[BarrierInput]:
        rng = np.random.default_rng(seed)
        slow = rng.choice(self.slow_candidates, size=self.slow_count, replace=False)
        return [BarrierInput(seed, tuple(sorted(str(s) for s in slow)))]

    def _scenario(self, unit: BarrierInput, observers: Observers, strategy: str):
        builder = GridBuilder(
            seed=unit.grid_seed,
            trace=observers.mode.trace,
            latency_jitter_cv=self.latency_jitter_cv,
        )
        names = [f"RM{index}" for index in range(1, len(SF_EXPRESS_SIZES) + 1)]
        for name, size in zip(names, SF_EXPRESS_SIZES):
            builder.add_machine(name, nodes=math.ceil(size / self.scale))
        builder.add_machines(
            "spare", self.spares, nodes=math.ceil(max(SF_EXPRESS_SIZES) / self.scale)
        )
        builder.program("sf_express", make_program(startup=self.startup, runtime=60.0))
        grid = observers.build(builder)
        request = CoAllocationRequest([
            SubjobSpec(
                contact=grid.site(name).contact,
                count=math.ceil(count / self.scale),
                executable="sf_express",
                start_type=SubjobType.REQUIRED if index == 0 else SubjobType.INTERACTIVE,
                timeout=2 * self.startup,
            )
            for index, (name, count) in enumerate(zip(names, SF_EXPRESS_COUNTS))
        ])
        for name in unit.slow:
            grid.machine(name).overload(self.overload)
        directory = Directory(grid.env, refresh_interval=5.0)
        for site in grid.sites.values():
            directory.register(site)
        if strategy == "atomic":
            agent = AtomicAgent(
                grid.grab(submit_timeout=SUBMIT_TIMEOUT),
                max_attempts=self.slow_count + 2,
                directory=directory,
            )
        else:
            agent = InteractiveAgent(
                grid.duroc(submit_timeout=SUBMIT_TIMEOUT), directory=directory
            )
        return grid, request, agent

    def prepare(self, unit: BarrierInput, mode: Mode) -> Callable[[], UnitRun]:
        observers = Observers(mode)
        scenarios = [
            self._scenario(unit, observers, strategy)
            for strategy in ("atomic", "interactive")
        ]
        return lambda: self._run(scenarios, observers)

    def _run(self, scenarios, observers: Observers) -> UnitRun:
        run = UnitRun(wasted_node_s=0.0)
        for grid, request, agent in scenarios:

            def drive(env, grid=grid, request=request, agent=agent):
                outcome = yield from agent.allocate(request)
                # Inspect the slots at the release instant, before a later
                # event can move their GRAM jobs on.
                ended = 0
                if outcome.success:
                    ended = _ended_released(
                        grid, outcome.result.job.released_slots(), grid.now
                    )
                return outcome, ended

            outcome, ended = grid.run(grid.process(drive(grid.env)))
            aborted = outcome.attempts - (1 if outcome.success else 0)
            run.coallocs.extend(Coalloc("aborted") for _ in range(aborted))
            if outcome.success:
                run.coallocs.append(Coalloc(
                    "committed", latency=outcome.result.elapsed, ended_released=ended
                ))
            run.messages += grid.network.sent_count
            run.wasted_node_s += wasted_node_seconds(grid)
            run.bump("broker.attempts", outcome.attempts)
            run.bump("broker.substitutions", outcome.substitutions)
        observers.collect(run)
        return run


# ---------------------------------------------------------------------------
# monitored_campaigns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignInput:
    #: ``(campaign name, trial seed)`` pairs, campaign-major.
    trials: tuple[tuple[str, int], ...]


class MonitoredCampaigns:
    """The six fault campaigns, each trial under monitors and a black box.

    ``run_trial`` builds its own grid, so the unit observes it through
    the recorder it passes in: message counts come from the recorded
    sends, and the wasted node-seconds are not visible.
    """

    name = "monitored_campaigns"
    #: As the CI verify job runs them: under monitors and a black box.
    mode = Mode(observed=True)
    trials_per_campaign = 20

    def inputs(self, seed: int) -> list[CampaignInput]:
        rng = np.random.default_rng(seed)
        trials = [
            (name, int(trial_seed))
            for name in sorted(CAMPAIGNS)
            for trial_seed in rng.integers(0, 2**31 - 1, size=self.trials_per_campaign)
        ]
        return [CampaignInput(tuple(trials))]

    def prepare(self, unit: CampaignInput, mode: Mode) -> Callable[[], UnitRun]:
        return lambda: self._run(unit, mode)

    def _run(self, unit: CampaignInput, mode: Mode) -> UnitRun:
        run = UnitRun()
        counts = CountingProbe() if mode.count else None
        for name, seed in unit.trials:
            campaign = CAMPAIGNS[name]
            if not mode.observed:
                record = run_trial(campaign, seed)
                run.records.append(record)
                run.coallocs.append(_trial_coalloc(record, 0))
                continue
            recorder = CountingRecorder() if counts is not None else Recorder()
            flightrec = FlightRecorder()
            record = run_trial(campaign, seed, recorder=recorder, flightrec=flightrec)
            findings = _verify(run, recorder, flightrec, f"{name}/seed{seed}")
            run.messages += sum(1 for event in recorder.events if event.kind == SEND)
            record.pop("flight_dump", None)
            run.records.append(record)
            run.coallocs.append(_trial_coalloc(record, findings))
            run.bump("resilience.retries", record["retries_used"])
            run.bump("resilience.breaker_trips", record["breaker_trips"])
            run.bump("broker.attempts", 1)
            run.bump("broker.substitutions", record["substitutions"])
            if counts is not None:
                counts.add(recorder.counts)
        run.counts = counts
        return run


def _trial_coalloc(record: dict, findings: int) -> Coalloc:
    if not record["success"]:
        return Coalloc("aborted", findings=findings)
    return Coalloc("committed", latency=record["time_to_commit"], findings=findings)


WORKLOADS = {w.name: w for w in (DurocBurst(), LongBarrier(), MonitoredCampaigns())}
