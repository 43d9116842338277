"""The seeded benchmark suite behind the CI perf gate.

Each scenario below runs a deterministic simulated workload with
tracing and op counters attached and reduces it to a
:class:`~repro.prof.profile.Profile`.  The checked-in baselines under
``benchmarks/baselines/`` are regenerated with ``python -m repro.prof
bench --update``; a plain ``bench`` run re-profiles every scenario,
diffs against its baseline, and fails on regression — that, run twice
and ``cmp``-ed, is the CI ``perf`` job.

The suite also emits the repo's perf-trajectory snapshot
(``BENCH_5.json``): a compact, deterministic digest of every scenario
(makespan, span counts, op counts, top self-time paths) that future
revisions can be compared against.

Simulated numbers only — the one exception is the optional
``--wallclock`` micro-bench mode, which times the simulator's own hot
paths (event heap, network delivery) on the host clock.  Those numbers
are machine-dependent by design and never checked against baselines.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.errors import ReproError
from repro.gram.states import JobState
from repro.gridenv import DEFAULT_EXECUTABLE, Grid, GridBuilder
from repro.prof.diff import ProfileDiff, diff_profiles
from repro.prof.profile import Profile, profile_grid, profile_spans
from repro.simcore.probe import Probe

#: Default root seed for the suite (matches the chaos harness).
DEFAULT_SEED = 42

#: Where the checked-in baselines live, relative to the repo root.
BASELINE_DIR = Path("benchmarks") / "baselines"

#: The perf-trajectory snapshot emitted by this PR's suite.
SNAPSHOT_FORMAT = "repro.prof.bench/1"

#: Counters surfaced in the snapshot digest (absent ones are skipped).
SNAPSHOT_COUNTERS = (
    "sim.events_processed",
    "sim.heap_high_water",
    "net.messages_delivered",
    "rpc.round_trips",
    "resilience.retries",
    "obs.spans_recorded",
    "obs.spans_retained_high_water",
    "net.delivery_slots",
    "ref.sim.heap_high_water",
    "mem.retained_high_water",
    "ref.mem.retained_high_water",
    "obs.flightrec_retained",
)


@dataclass(frozen=True)
class Scenario:
    """One named, seeded workload producing a profile."""

    name: str
    description: str
    build: Callable[[int], Profile]

    def run(self, seed: int) -> Profile:
        return self.build(seed)


def _meta(name: str, seed: int) -> dict[str, Any]:
    return {"source": "repro.prof.bench", "scenario": name, "seed": seed}


def _profiled_builder(seed: int) -> GridBuilder:
    return GridBuilder(seed=seed).with_profiling()


def _run_fig3_gram(seed: int) -> Profile:
    """Fig. 3 shape: one single-process GRAM submission, to ACTIVE."""
    grid = _profiled_builder(seed).add_machine("origin", nodes=64).build()
    client = grid.gram_client()
    contact = grid.site("origin").contact
    rsl = (
        f"&(resourceManagerContact={contact})"
        f"(count=1)(executable={DEFAULT_EXECUTABLE})"
    )

    def scenario(env):
        handle = yield from client.submit(contact, rsl)
        yield from client.wait_for_state(handle, JobState.ACTIVE, poll=0.005)

    grid.run(grid.process(scenario(grid.env)))
    return profile_grid(grid, meta=_meta("fig3_gram", seed))


def _coallocate(grid: Grid, request) -> None:
    duroc = grid.duroc()

    def agent(env):
        job = duroc.submit(request)
        yield from job.commit()
        yield from job.wait_done()

    grid.run(grid.process(agent(grid.env)))


def _figure1_request(grid: Grid):
    from repro.core.request import CoAllocationRequest, SubjobSpec, SubjobType

    def spec(site: str, count: int, start_type: SubjobType) -> SubjobSpec:
        return SubjobSpec(
            contact=grid.site(site).contact,
            count=count,
            executable=DEFAULT_EXECUTABLE,
            start_type=start_type,
        )

    return CoAllocationRequest([
        spec("RM1", 1, SubjobType.REQUIRED),
        spec("RM2", 4, SubjobType.INTERACTIVE),
        spec("RM3", 4, SubjobType.INTERACTIVE),
    ])


def _run_figure1(seed: int) -> Profile:
    """The quickstart shape: a three-subjob DUROC co-allocation."""
    grid = (
        _profiled_builder(seed)
        .add_machine("RM1", nodes=16)
        .add_machine("RM2", nodes=64)
        .add_machine("RM3", nodes=64)
        .build()
    )
    _coallocate(grid, _figure1_request(grid))
    return profile_grid(grid, meta=_meta("figure1", seed))


def _run_duroc_scaling(seed: int) -> Profile:
    """Fig. 4 shape: co-allocation across six sites (cost vs. fan-out)."""
    from repro.core.request import CoAllocationRequest, SubjobSpec, SubjobType

    builder = _profiled_builder(seed)
    sites = [f"RM{i}" for i in range(1, 7)]
    for site in sites:
        builder.add_machine(site, nodes=16)
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
    return profile_grid(grid, meta=_meta("duroc_scaling", seed))


def _run_campaign_baseline(seed: int) -> Profile:
    """The chaos harness's clean Figure-1 trial, profiled."""
    from repro.resilience.campaign import CAMPAIGNS, profile_trial

    profile = profile_trial(CAMPAIGNS["baseline"], seed)
    profile.meta.update(_meta("campaign_baseline", seed))
    return profile


#: kernel_stress workload shape (~5 × 10⁴ events): enough churn for the
#: heap high-water mark to separate the lazy-deletion kernel from the
#: compacting one, small enough to run in seconds under CI.
_STRESS_WORKERS = 150
_STRESS_ROUNDS = 60
_STRESS_CLIENTS = 40
_STRESS_TRIPS = 100


def _kernel_stress_run(
    seed: int,
    compact_cancelled: bool = True,
    sink=None,
    trace_spans: bool = False,
    probes: Sequence = (),
):
    """Run the raw-kernel stress workload; returns ``(tracer, counters)``.

    Two concurrent phases exercise the event kernel directly, below the
    protocol layers:

    * **timer churn** — workers repeatedly arm a long watchdog timeout,
      finish their (short) work, and retire the watchdog: the classic
      pattern that floods a lazy-deletion heap with cancelled entries;
    * **message storm** — clients ping an echo server through the
      simulated network, one round trip at a time.

    The workload draws no random numbers, so it is deterministic by
    construction; ``seed`` only stamps the profile metadata.  The
    ``compact_cancelled`` knob exists so benchmarks can measure the
    pre-compaction kernel against the same workload.

    ``trace_spans`` opts into per-operation telemetry — one tenant-
    labelled root span per storm client with a child span per round
    trip, one job-labelled root per churn worker with a child per
    round (~1.3 × 10⁴ spans) — the workload behind ``telemetry_stress``
    and the streaming-sink gate.  ``sink`` is handed to the tracer
    (see :class:`~repro.simcore.tracing.SpanSink`); extra ``probes``
    are fanned out with the op counters.
    """
    from repro.net.address import Endpoint
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.prof.counters import OpCounters
    from repro.simcore.environment import Environment
    from repro.simcore.probe import FanoutProbe
    from repro.simcore.tracing import Tracer

    env = Environment(compact_cancelled=compact_cancelled)
    counters = OpCounters()
    for probe in probes:
        # Env-aware probes (e.g. a FlightRecorder) need the clock.
        bind = getattr(probe, "bind", None)
        if bind is not None:
            bind(env)
    if probes:
        env.probe = FanoutProbe([counters, *probes])
    else:
        env.probe = counters
    tracer = Tracer(env, sink=sink)
    phase_end = {"churn": 0.0, "storm": 0.0}

    def churn_worker(env, worker):
        span = (
            tracer.span("churn.worker", job=f"job-{worker % 10}")
            if trace_spans
            else None
        )
        for _ in range(_STRESS_ROUNDS):
            round_start = env.now
            watchdog = env.timeout(1_000.0)
            yield env.timeout(0.01)
            # The work finished in time: retire the watchdog.
            watchdog.cancelled = True
            if span is not None:
                tracer.record(
                    "churn.round", round_start, env.now, parent=span,
                    job=f"job-{worker % 10}",
                )
        phase_end["churn"] = max(phase_end["churn"], env.now)
        if span is not None:
            span.close()

    network = Network(env)
    network.add_host("stress")
    echo_endpoint = Endpoint("stress", "echo")
    echo_box = network.bind(echo_endpoint)

    def echo_server(env):
        while True:
            message = yield echo_box.get()
            network.send(Message(
                src=echo_endpoint, dst=message.reply_to,
                kind="pong", payload=message.payload,
            ))

    def client(env, endpoint, box, idx):
        tenant = f"tenant-{idx % 8}"
        span = (
            tracer.span("storm.client", tenant=tenant, client=idx)
            if trace_spans
            else None
        )
        for i in range(_STRESS_TRIPS):
            trip_start = env.now
            network.send(Message(
                src=endpoint, dst=echo_endpoint,
                kind="ping", payload=i, reply_to=endpoint,
            ))
            yield box.get()
            if span is not None:
                tracer.record(
                    "storm.trip", trip_start, env.now, parent=span,
                    tenant=tenant,
                )
        phase_end["storm"] = max(phase_end["storm"], env.now)
        if span is not None:
            span.close()

    for worker in range(_STRESS_WORKERS):
        env.process(churn_worker(env, worker), name=f"churn-{worker}")
    env.process(echo_server(env), name="echo")
    for idx in range(_STRESS_CLIENTS):
        endpoint = Endpoint("stress", f"client-{idx}")
        env.process(
            client(env, endpoint, network.bind(endpoint), idx),
            name=f"client-{idx}",
        )

    env.run()

    root = tracer.record("kernel_stress", 0.0, env.now)
    tracer.record("timer_churn", 0.0, phase_end["churn"], parent=root)
    tracer.record("message_storm", 0.0, phase_end["storm"], parent=root)
    return tracer, counters


def _run_kernel_stress(seed: int) -> Profile:
    """ROADMAP item 1's yardstick: the raw kernel at ~5·10⁴ events."""
    tracer, counters = _kernel_stress_run(seed)
    return profile_spans(
        tracer.spans,
        counters=counters.snapshot(),
        meta=_meta("kernel_stress", seed),
    )


def _run_telemetry_stress(seed: int) -> Profile:
    """The kernel stress workload under full span telemetry.

    Every round trip and churn round records a span through the
    streaming pipeline (aggregation plus self-metering, retain-all so
    the profile still sees every span); the bounded-memory variant of
    the same run is asserted by ``benchmarks/streaming_gate.py``.
    """
    from repro.obs.streaming import AggregatingSink, TelemetryPipeline
    from repro.prof.profile import counters_from_metrics

    sink = TelemetryPipeline(aggregator=AggregatingSink(), retain=True)
    tracer, counters = _kernel_stress_run(seed, sink=sink, trace_spans=True)
    tracer.close()
    merged = counters_from_metrics(tracer.metrics.snapshot())
    merged.update(counters.snapshot())
    return profile_spans(
        tracer.spans,
        counters=merged,
        meta=_meta("telemetry_stress", seed),
    )


#: kernel_scale workload shape (~2 × 10⁵ events in each configuration):
#: synchronized client bursts at one ingest service over a slow WAN
#: link — with latency five wave periods deep, the reference kernel
#: holds ``5 × clients`` per-message delivery events in flight while
#: slotted delivery holds five slots — plus timer churn with
#: far-future watchdogs (heap compaction) and far-beyond-horizon
#: sentinels.
_SCALE_CLIENTS = 400
_SCALE_WAVES = 200
_SCALE_PERIOD = 1.0
_SCALE_LATENCY = 5.0
_SCALE_CHURN_WORKERS = 100
_SCALE_CHURN_ROUNDS = 100
_SCALE_WATCHDOG = 50_000.0
_SCALE_SENTINEL_BASE = 1_000_000.0


class _TraceSignature(Probe):
    """Order-sensitive digest of the simulation-visible event trace.

    Hashes every processed-event timestamp and every network
    send/deliver/drop in order, so two runs have equal digests exactly
    when their kernels dispatched the same events at the same times and
    the network moved the same messages in the same order — trace
    byte-identity checked in O(1) memory at 10⁵-event scale.
    """

    def __init__(self) -> None:
        import hashlib

        self._digest = hashlib.sha256()

    def on_step(self, now: float) -> None:
        self._digest.update(struct.pack("<d", now))

    def on_send(self, message) -> None:
        self._digest.update(
            f"s|{message.src}|{message.dst}|{message.kind}|{message.payload!r}".encode()
        )

    def on_deliver(self, message) -> None:
        self._digest.update(
            f"d|{message.src}|{message.dst}|{message.kind}|{message.payload!r}".encode()
        )

    def on_drop(self, message, reason: str) -> None:
        self._digest.update(f"x|{reason}|{message.src}|{message.dst}".encode())

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def _kernel_scale_run(seed: int, slotted: bool = False, probes: Sequence = ()):
    """Run one kernel_scale configuration; returns (env, network, counters, phase_end).

    Three concurrent phases, all deterministic (no RNG; ``seed`` only
    stamps metadata):

    * **burst storm** — ``_SCALE_CLIENTS`` clients fire a report at one
      ingest service at exactly the same instant every
      ``_SCALE_PERIOD`` seconds, for ``_SCALE_WAVES`` waves, across a
      WAN link ``_SCALE_LATENCY / _SCALE_PERIOD`` wave periods deep.
      The same-deadline fan-in is where slotted delivery collapses N
      in-flight delivery events into one slot per wave.
    * **timer churn** — workers repeatedly arm a far-future watchdog
      and retire it after a short round, flooding the heap with
      cancelled entries that compaction must reclaim.
    * **sentinels** — a handful of events scheduled far past the
      workload horizon; most are retired, the last two fire into a
      near-empty heap.
    """
    from repro.net.address import Endpoint
    from repro.net.message import Message
    from repro.net.network import LatencyModel, Network
    from repro.prof.counters import OpCounters
    from repro.simcore.environment import Environment
    from repro.simcore.probe import FanoutProbe

    env = Environment()
    counters = OpCounters()
    if probes:
        env.probe = FanoutProbe([counters, *probes])
    else:
        env.probe = counters
    network = Network(
        env, LatencyModel(base=_SCALE_LATENCY), slotted=slotted
    )
    network.add_host("edge")
    network.add_host("core")
    ingest_endpoint = Endpoint("core", "ingest").intern()
    ingest_box = network.bind(ingest_endpoint)
    phase_end = {"storm": 0.0, "churn": 0.0, "sentinel": 0.0}

    def ingest_server(env):
        while True:
            yield ingest_box.get()
            phase_end["storm"] = env.now

    def burst_client(env, endpoint, idx):
        for wave in range(_SCALE_WAVES):
            # Every client fires at exactly wave * period: maximal
            # same-deadline coalescing into one delivery slot.
            yield env.timeout(wave * _SCALE_PERIOD - env.now)
            network.send(Message(
                src=endpoint, dst=ingest_endpoint,
                kind="report", payload=(idx, wave),
            ))

    def churn_worker(env, worker):
        for _ in range(_SCALE_CHURN_ROUNDS):
            watchdog = env.timeout(_SCALE_WATCHDOG)
            yield env.timeout(0.25 + 0.001 * (worker % 16))
            # The round finished in time: retire the watchdog.
            watchdog.cancelled = True
        phase_end["churn"] = max(phase_end["churn"], env.now)

    def sentinel(env):
        pending = [
            env.timeout(_SCALE_SENTINEL_BASE + 1_000.0 * i) for i in range(6)
        ]
        yield env.timeout(1.0)
        for retired in pending[:4]:
            retired.cancelled = True
        yield pending[4]
        yield pending[5]
        phase_end["sentinel"] = env.now

    env.process(ingest_server(env), name="ingest")
    for idx in range(_SCALE_CLIENTS):
        endpoint = Endpoint("edge", f"client-{idx}")
        env.process(burst_client(env, endpoint, idx), name=f"client-{idx}")
    for worker in range(_SCALE_CHURN_WORKERS):
        env.process(churn_worker(env, worker), name=f"churn-{worker}")
    env.process(sentinel(env), name="sentinel")

    env.run()
    return env, network, counters, phase_end


def _run_kernel_scale(seed: int) -> Profile:
    """ROADMAP item 1 at ~2·10⁵ events: the slotted-delivery gate.

    Runs the workload twice —

    1. **reference**: per-message delivery (reported under
       ``ref.sim.*``);
    2. **slotted delivery** (the headline configuration, reported
       under plain ``sim.*``);

    and asserts the headline configuration beats the reference on
    scheduled events and heap high-water before pinning both sides in
    the baseline (with ``net.delivery_slots``).
    """
    from repro.simcore.tracing import Tracer

    _, ref_net, ref_counters, _ = _kernel_scale_run(seed)
    env, net, slotted_counters, phase_end = _kernel_scale_run(seed, slotted=True)

    ref = ref_counters.snapshot()
    counters = slotted_counters.snapshot()
    if counters["sim.heap_high_water"] >= ref["sim.heap_high_water"]:
        raise ReproError(
            "kernel_scale: slotted delivery did not reduce the heap "
            f"high-water mark ({counters['sim.heap_high_water']:g} vs "
            f"reference {ref['sim.heap_high_water']:g})"
        )
    if counters["sim.events_scheduled"] >= ref["sim.events_scheduled"]:
        raise ReproError(
            "kernel_scale: slotted delivery did not reduce scheduled events "
            f"({counters['sim.events_scheduled']:g} vs reference "
            f"{ref['sim.events_scheduled']:g})"
        )
    for key, value in sorted(ref.items()):
        counters[f"ref.{key}"] = value
    counters["net.delivery_slots"] = float(net.delivery_slots)
    counters["ref.net.delivery_slots"] = float(ref_net.delivery_slots)

    tracer = Tracer(env)
    root = tracer.record("kernel_scale", 0.0, env.now)
    tracer.record("burst_storm", 0.0, phase_end["storm"], parent=root)
    tracer.record("timer_churn", 0.0, phase_end["churn"], parent=root)
    tracer.record("sentinel_rollover", 0.0, phase_end["sentinel"], parent=root)
    return profile_spans(
        tracer.spans,
        counters=counters,
        meta=_meta("kernel_scale", seed),
    )


#: memory_stress workload shape (~10⁵ events of per-request state
#: churn): enough distinct submissions/sessions/reply ports for the
#: retained-object high-water mark to separate unbounded dicts from the
#: bounded collections, small enough to run in seconds under CI.
_MEMSTRESS_CLIENTS = 300
_MEMSTRESS_ROUNDS = 60
_MEMSTRESS_DEDUP_MAX = 1024
_MEMSTRESS_SESSION_TTL = 5.0
_MEMSTRESS_ROUND_PAUSE = 1.0


def _memory_stress_run(seed: int, bounded: bool, probes: Sequence = ()):
    """Run the retained-state churn workload.

    Returns ``(env, counters, dedup_table, phase_end)``.

    A long-lived *frontdoor* service handles a churn of one-shot
    requests — the per-request state pattern the ``mem-*`` lints
    police, below the protocol layers:

    * **submission dedup** — every client sends each submission twice
      (first copy, then an immediate retransmit); the frontdoor answers
      the duplicate from its dedup table.  One table entry per distinct
      submission: ``clients × rounds`` of them over the run.
    * **session touches** — each handled request stamps a write-only
      per-submission session token (never read back, so expiry cannot
      change behaviour) — the TTL showcase.
    * **ephemeral reply ports** — each client round binds a fresh reply
      port and, in the bounded configuration, closes it after its acks
      arrive (``Port.close`` → ``Network.unbind``).

    With ``bounded=False`` the tables are plain dicts and ports are
    never closed (the unremediated service); with ``bounded=True`` the
    dedup table is an LRU :class:`~repro.core.bounded.BoundedDict`, the
    session table adds a simulated-clock TTL, and ports are closed.  A
    :class:`~repro.core.bounded.RetainedCensus` over the tables and the
    mailbox registry reports the retained high-water through the probe
    seam after every handled request.  The workload draws no random
    numbers and the dedup bound exceeds the retransmit window, so both
    configurations produce byte-identical event traces — asserted via
    :class:`_TraceSignature` in the scenario wrapper.
    """
    from repro.core.bounded import BoundedDict, RetainedCensus
    from repro.net.address import Endpoint
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.net.transport import Port
    from repro.prof.counters import OpCounters
    from repro.simcore.environment import Environment
    from repro.simcore.probe import FanoutProbe

    env = Environment()
    counters = OpCounters()
    if probes:
        env.probe = FanoutProbe([counters, *probes])
    else:
        env.probe = counters
    network = Network(env)
    network.add_host("edge")
    network.add_host("core")
    frontdoor = Endpoint("core", "frontdoor")
    frontdoor_box = network.bind(frontdoor)

    submissions: Any
    sessions: Any
    if bounded:
        submissions = BoundedDict(_MEMSTRESS_DEDUP_MAX)
        sessions = BoundedDict(
            _MEMSTRESS_DEDUP_MAX,
            ttl=_MEMSTRESS_SESSION_TTL,
            clock=lambda: env.now,
        )
    else:
        submissions = {}
        sessions = {}
    census = RetainedCensus(env)
    census.register(submissions)
    census.register(sessions)
    census.register(network._mailboxes)
    phase_end = {"churn": 0.0}

    def frontdoor_server(env):
        while True:
            message = yield frontdoor_box.get()
            sub_id = message.payload
            sessions[sub_id] = env.now  # write-only: expiry is invisible
            cached = submissions.get(sub_id)
            if cached is None:
                outcome = "accepted"
                submissions[sub_id] = outcome
            else:
                outcome = "duplicate"
            network.send(Message(
                src=frontdoor, dst=message.reply_to,
                kind="ack", payload=(sub_id, outcome),
            ))
            census.observe()

    def client(env, idx):
        for round_no in range(_MEMSTRESS_ROUNDS):
            # Deterministic per-round reply port (module-global
            # ephemeral counters would make the two configurations'
            # port names — and trace digests — diverge).
            endpoint = Endpoint("edge", f"reply.c{idx}.r{round_no}")
            port = Port(network, endpoint)
            sub_id = f"sub-{idx}-{round_no}"
            # First copy, then an immediate retransmit: the dedup
            # window one LRU bound must cover.
            for _ in range(2):
                port.send(frontdoor, "submit", payload=sub_id,
                          reply_to=endpoint)
                yield port.recv()
            if bounded:
                port.close()
            phase_end["churn"] = max(phase_end["churn"], env.now)
            yield env.timeout(_MEMSTRESS_ROUND_PAUSE)

    env.process(frontdoor_server(env), name="frontdoor")
    for idx in range(_MEMSTRESS_CLIENTS):
        env.process(client(env, idx), name=f"client-{idx}")

    env.run()
    return env, counters, submissions, phase_end


def _run_memory_stress(seed: int) -> Profile:
    """The retained-memory proof gate: bounded vs. unbounded state.

    Runs the churn workload twice — unbounded reference (reported under
    ``ref.*``) and bounded collections (the headline, plain counters) —
    asserts the two event traces are byte-identical (bounding is
    behaviour-invisible on this workload) and that the bounded
    configuration's ``mem.retained_high_water`` is strictly below the
    reference's, then pins both sides in the baseline for the CI gate.
    """
    from repro.simcore.tracing import Tracer

    ref_sig = _TraceSignature()
    _ref_env, ref_counters, _ref_dedup, _ = _memory_stress_run(
        seed, bounded=False, probes=(ref_sig,)
    )
    sig = _TraceSignature()
    env, counters, dedup, phase_end = _memory_stress_run(
        seed, bounded=True, probes=(sig,)
    )
    if ref_sig.hexdigest() != sig.hexdigest():
        raise ReproError(
            "memory_stress: event traces diverged between unbounded and "
            "bounded collections on the same workload — bounding must be "
            "trace-invisible"
        )
    ref = ref_counters.snapshot()
    snap = counters.snapshot()
    if snap["mem.retained_high_water"] >= ref["mem.retained_high_water"]:
        raise ReproError(
            "memory_stress: bounded collections did not reduce the "
            f"retained-object high-water mark "
            f"({snap['mem.retained_high_water']:g} vs reference "
            f"{ref['mem.retained_high_water']:g})"
        )
    for key, value in sorted(ref.items()):
        snap[f"ref.{key}"] = value
    for name, stat in sorted(dedup.stats().items()):
        snap[f"mem.dedup.{name}"] = float(stat)

    tracer = Tracer(env)
    root = tracer.record("memory_stress", 0.0, env.now)
    tracer.record("submission_churn", 0.0, phase_end["churn"], parent=root)
    return profile_spans(
        tracer.spans,
        counters=snap,
        meta=_meta("memory_stress", seed),
    )


def _run_blackbox_stress(seed: int) -> Profile:
    """The flight recorder's proof gate: observation-only, byte-stable.

    Runs the kernel stress workload three times —

    1. **bare**: no recorder, trace digest only;
    2. **recorded** (the headline): a :class:`~repro.obs.flightrec.
       FlightRecorder` on both seams (probe fan-out and span sink) with
       a predicate trigger tripping on every storm client's final pong
       (40 trips against a dump cap of 8 — the suppression path runs at
       event rate);
    3. **recorded again**, for the dump-byte identity check;

    and asserts (a) the recorded run's event stream is byte-identical
    to the bare run (the observation-only contract) and (b) the two
    recorded runs' first dumps are byte-identical (dumps are pure
    functions of the observed stream).  The baseline pins
    ``obs.flightrec_retained`` — the recorder's retained high-water
    mark, which bounded rings keep flat no matter how many events flow
    by — alongside the usual kernel counters.
    """
    from repro.obs.flightrec import FlightRecorder, OnPredicate, dump_json

    def final_pong(op: str, message) -> Optional[str]:
        if (
            op == "deliver"
            and message.kind == "pong"
            and message.payload == _STRESS_TRIPS - 1
        ):
            return f"storm.final_pong:{message.dst}"
        return None

    def recorded_run():
        recorder = FlightRecorder(
            triggers=(OnPredicate(message=final_pong, name="final_pong"),)
        )
        sig = _TraceSignature()
        tracer, counters = _kernel_stress_run(
            seed, sink=recorder, trace_spans=True, probes=(recorder, sig)
        )
        return recorder, sig, tracer, counters

    bare_sig = _TraceSignature()
    _kernel_stress_run(seed, trace_spans=True, probes=(bare_sig,))
    recorder, sig, tracer, counters = recorded_run()
    recorder2, _sig2, _tracer2, _counters2 = recorded_run()

    if sig.hexdigest() != bare_sig.hexdigest():
        raise ReproError(
            "blackbox_stress: the flight recorder perturbed the event "
            "stream — probes must be observation-only"
        )
    if not recorder.dumps:
        raise ReproError(
            "blackbox_stress: the final-pong trigger never tripped"
        )
    if dump_json(recorder.dumps[0]) != dump_json(recorder2.dumps[0]):
        raise ReproError(
            "blackbox_stress: two identically seeded runs produced "
            "different dump bytes — dumps must be pure functions of the "
            "observed stream"
        )

    snap = counters.snapshot()
    snap["obs.flightrec_retained"] = float(recorder.retained_high_water)
    snap["obs.flightrec_records"] = float(recorder.records_observed)
    snap["obs.flightrec_dumps"] = float(len(recorder.dumps))
    snap["obs.flightrec_suppressed"] = float(recorder.dumps_suppressed)
    return profile_spans(
        tracer.spans,
        counters=snap,
        meta=_meta("blackbox_stress", seed),
    )


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "fig3_gram",
            "single-process GRAM submission (the Fig. 3 cost breakdown)",
            _run_fig3_gram,
        ),
        Scenario(
            "figure1",
            "three-subjob DUROC co-allocation (the quickstart shape)",
            _run_figure1,
        ),
        Scenario(
            "duroc_scaling",
            "six-subjob required co-allocation (the Fig. 4 shape)",
            _run_duroc_scaling,
        ),
        Scenario(
            "campaign_baseline",
            "clean fault-campaign trial under the retrying agent",
            _run_campaign_baseline,
        ),
        Scenario(
            "kernel_stress",
            "raw event-kernel stress: timer churn + message storm "
            "(~5e4 events, the ROADMAP item-1 yardstick)",
            _run_kernel_stress,
        ),
        Scenario(
            "telemetry_stress",
            "kernel stress with a span per operation through the "
            "streaming telemetry pipeline (~1.3e4 spans)",
            _run_telemetry_stress,
        ),
        Scenario(
            "kernel_scale",
            "burst storm + timer churn at ~2e5 events, per-message vs "
            "slotted delivery: scheduled-events and high-water proof gate",
            _run_kernel_scale,
        ),
        Scenario(
            "memory_stress",
            "per-request state churn (~1e5 events) under unbounded vs "
            "bounded collections: retained-memory proof gate",
            _run_memory_stress,
        ),
        Scenario(
            "blackbox_stress",
            "kernel stress under the flight recorder: observation-only "
            "and dump byte-identity proof gate",
            _run_blackbox_stress,
        ),
    )
}


def select_scenarios(names: Optional[Sequence[str]] = None) -> list[Scenario]:
    if not names:
        return [SCENARIOS[name] for name in sorted(SCENARIOS)]
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise ReproError(
            f"unknown scenario(s) {unknown}; pick from {sorted(SCENARIOS)}"
        )
    return [SCENARIOS[name] for name in names]


@dataclass(frozen=True)
class BenchResult:
    """One scenario's run: its profile and the baseline comparison."""

    scenario: Scenario
    profile: Profile
    baseline: Optional[Profile]
    diff: Optional[ProfileDiff]

    @property
    def regressed(self) -> bool:
        return self.diff is not None and bool(self.diff.regressions)

    @property
    def missing_baseline(self) -> bool:
        return self.baseline is None


def run_bench(
    seed: int = DEFAULT_SEED,
    names: Optional[Sequence[str]] = None,
    baseline_dir: Path = BASELINE_DIR,
    threshold_pct: float = 10.0,
) -> list[BenchResult]:
    """Run the selected scenarios and diff each against its baseline."""
    results = []
    for scenario in select_scenarios(names):
        profile = scenario.run(seed)
        baseline_path = Path(baseline_dir) / f"{scenario.name}.json"
        baseline = Profile.load(baseline_path) if baseline_path.is_file() else None
        diff = (
            diff_profiles(baseline, profile, threshold_pct=threshold_pct)
            if baseline is not None
            else None
        )
        results.append(BenchResult(scenario, profile, baseline, diff))
    return results


def update_baselines(
    seed: int = DEFAULT_SEED,
    names: Optional[Sequence[str]] = None,
    baseline_dir: Path = BASELINE_DIR,
) -> list[Path]:
    """Regenerate the checked-in baselines; returns the paths written."""
    return [
        scenario.run(seed).write(Path(baseline_dir) / f"{scenario.name}.json")
        for scenario in select_scenarios(names)
    ]


# -- the perf-trajectory snapshot --------------------------------------------


def snapshot(results: Sequence[BenchResult], seed: int) -> dict[str, Any]:
    """The ``BENCH_5.json`` digest: deterministic, diffable, compact."""
    scenarios: dict[str, Any] = {}
    for result in results:
        profile = result.profile
        scenarios[result.scenario.name] = {
            "total_time": profile.total_time,
            "span_count": profile.span_count,
            "paths": len(profile.paths),
            "counters": {
                name: profile.counters[name]
                for name in SNAPSHOT_COUNTERS
                if name in profile.counters
            },
            "top_exclusive": [
                {"path": stats.path, "exclusive": stats.exclusive}
                for stats in profile.top_exclusive(5)
            ],
        }
    return {
        "format": SNAPSHOT_FORMAT,
        "bench": "repro.prof",
        "pr": 5,
        "seed": seed,
        "scenarios": scenarios,
    }


def write_snapshot(
    results: Sequence[BenchResult], seed: int, path: Path
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot(results, seed), sort_keys=True, indent=2) + "\n")
    return path


# -- wall-clock micro-benchmarks ---------------------------------------------

# The simulator's own hot paths, timed on the host clock.  Explicitly
# machine-dependent: numbers are informational, never gated or written
# into baselines, and the wall-clock reads are confined to this section.


def _bench_event_heap(ops: int) -> float:
    """Seconds to schedule and drain ``ops`` timeouts through the kernel."""
    import time

    from repro.simcore.environment import Environment

    env = Environment()
    start = time.perf_counter()  # repro: noqa det-wallclock
    for i in range(ops):
        env.timeout((i % 97) * 1e-4)
    env.run()
    return time.perf_counter() - start  # repro: noqa det-wallclock


def _bench_network_delivery(ops: int) -> float:
    """Seconds to deliver ``ops`` loopback messages through the network."""
    import time

    from repro.net.address import Endpoint
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.simcore.environment import Environment

    env = Environment()
    network = Network(env)
    network.add_host("a")
    src = Endpoint("a", "bench-src")
    dst = Endpoint("a", "bench-dst")
    network.bind(dst)
    start = time.perf_counter()  # repro: noqa det-wallclock
    for i in range(ops):
        network.send(Message(src=src, dst=dst, kind="bench", payload=i))
    env.run()
    return time.perf_counter() - start  # repro: noqa det-wallclock


def run_microbench(ops: int = 20_000) -> dict[str, dict[str, float]]:
    """Time the simulator hot paths; returns {bench: {seconds, ops_per_sec}}."""
    out: dict[str, dict[str, float]] = {}
    for name, fn in (
        ("event_heap", _bench_event_heap),
        ("network_delivery", _bench_network_delivery),
    ):
        elapsed = fn(ops)
        out[name] = {
            "ops": float(ops),
            "seconds": elapsed,
            "ops_per_sec": ops / elapsed if elapsed > 0 else float("inf"),
        }
    return out
