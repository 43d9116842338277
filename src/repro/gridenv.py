"""Grid composition: one-stop construction of simulated testbeds.

:class:`GridBuilder` assembles an environment, network, CA, program
registry, and a set of GRAM sites; :class:`Grid` exposes co-allocator
factories and convenience accessors.  Every example, test, and
benchmark builds its world through this module.

>>> grid = (GridBuilder(seed=7)
...         .add_machine("RM1", nodes=64)
...         .add_machine("RM2", nodes=64)
...         .build())
>>> duroc = grid.duroc()
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.applib import make_program
from repro.core.atomic import Grab
from repro.core.coallocator import Duroc
from repro.errors import ReproError
from repro.faults import FaultSpec, schedule as schedule_faults
from repro.gram.client import GramClient
from repro.gram.costs import CostModel
from repro.gram.site import Site
from repro.gsi.credentials import CertificateAuthority, Credential
from repro.machine.host import Machine, Program
from repro.net.network import LatencyModel, Network
from repro.schedulers.backfill import EasyBackfillScheduler
from repro.schedulers.fcfs import FcfsScheduler
from repro.schedulers.fork import ForkScheduler
from repro.schedulers.reservation import ReservationScheduler
from repro.simcore.environment import Environment
from repro.simcore.probe import FanoutProbe, Probe
from repro.simcore.rng import RngRegistry
from repro.simcore.tracing import NullTracer, SpanSink, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.flightrec import FlightRecorder
    from repro.prof.counters import OpCounters
    from repro.verify.recorder import Recorder

SCHEDULERS = {
    "fork": ForkScheduler,
    "fcfs": FcfsScheduler,
    "backfill": EasyBackfillScheduler,
    "reservation": ReservationScheduler,
}

#: The default executable name registered on every grid.
DEFAULT_EXECUTABLE = "duroc_app"

#: The client workstation host name.
CLIENT_HOST = "client"


class Grid:
    """A built testbed: environment, network, sites, identities."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        ca: CertificateAuthority,
        credential: Credential,
        sites: dict[str, Site],
        programs: dict[str, Program],
        costs: CostModel,
        rngs: RngRegistry,
        tracer: Tracer,
        client_host: str = CLIENT_HOST,
        recorder: "Optional[Recorder]" = None,
        counters: "Optional[OpCounters]" = None,
        flightrec: "Optional[FlightRecorder]" = None,
    ) -> None:
        self.env = env
        self.network = network
        self.ca = ca
        self.credential = credential
        self.sites = sites
        self.programs = programs
        self.costs = costs
        self.rngs = rngs
        self.tracer = tracer
        self.client_host = client_host
        #: The runtime-verification recorder observing this grid, if the
        #: builder attached one (see :meth:`GridBuilder.with_monitors`).
        self.recorder = recorder
        #: The op-count probe observing this grid, if the builder
        #: attached one (see :meth:`GridBuilder.with_profiling`).
        self.counters = counters
        #: The black-box flight recorder observing this grid, if the
        #: builder attached one (see :mod:`repro.obs.flightrec`).
        self.flightrec = flightrec

    # -- accessors -------------------------------------------------------------

    def site(self, name: str) -> Site:
        try:
            return self.sites[name]
        except KeyError:
            raise ReproError(f"unknown site {name!r}") from None

    def machine(self, name: str) -> Machine:
        return self.site(name).machine

    def contacts(self) -> list[str]:
        return [site.contact for site in self.sites.values()]

    # -- factories --------------------------------------------------------------

    def duroc(self, **kwargs) -> Duroc:
        """An interactive-transaction co-allocator on the client host.

        Pass ``retry=RetryPolicy(...)`` to enable bounded, jittered
        resubmission; jitter draws from the grid's seeded
        ``resilience.retry`` stream unless an ``rng`` is given.
        """
        kwargs.setdefault("auth", self.costs.auth)
        kwargs.setdefault("tracer", self.tracer)
        kwargs.setdefault("rng", self.rngs.stream("resilience.retry"))
        return Duroc(self.network, self.client_host, self.credential, **kwargs)

    def grab(self, **kwargs) -> Grab:
        """An atomic-transaction co-allocator on the client host."""
        kwargs.setdefault("auth", self.costs.auth)
        kwargs.setdefault("tracer", self.tracer)
        kwargs.setdefault("rng", self.rngs.stream("resilience.retry"))
        return Grab(self.network, self.client_host, self.credential, **kwargs)

    def gram_client(self) -> GramClient:
        return GramClient(
            self.network, self.client_host, self.credential,
            auth=self.costs.auth, tracer=self.tracer,
        )

    # -- execution ---------------------------------------------------------------

    def run(self, until=None):
        """Run the simulation (see :meth:`Environment.run`)."""
        return self.env.run(until=until)

    def process(self, generator, name: Optional[str] = None):
        return self.env.process(generator, name=name)

    @property
    def now(self) -> float:
        return self.env.now

    def __repr__(self) -> str:
        return f"<Grid sites={sorted(self.sites)} t={self.env.now:g}>"


class GridBuilder:
    """Fluent construction of a :class:`Grid`."""

    def __init__(
        self,
        seed: int = 0,
        latency: float = 0.002,
        latency_jitter_cv: float = 0.0,
        costs: Optional[CostModel] = None,
        user: str = "alice",
        client_host: str = CLIENT_HOST,
        trace: bool = True,
    ) -> None:
        self.seed = seed
        self.latency = latency
        self.latency_jitter_cv = latency_jitter_cv
        self.costs = costs or CostModel()
        self.user = user
        self.client_host = client_host
        #: ``trace=False`` builds the grid on a NullTracer: no spans, no
        #: metrics, identical simulation behaviour (tested).
        self.trace = trace
        self._machines: list[dict] = []
        self._programs: dict[str, Program] = {}
        self._faults: list[FaultSpec] = []
        self._probes: list[Probe] = []
        self._span_sink: Optional[SpanSink] = None

    def add_machine(
        self,
        name: str,
        nodes: int,
        scheduler: str = "fork",
        speed: float = 1.0,
        costs: Optional[CostModel] = None,
        memory: Optional[float] = None,
    ) -> "GridBuilder":
        """Declare a site; ``scheduler`` is one of fork/fcfs/backfill/reservation.

        ``memory`` (MB) enables §2.1-style processors+memory co-allocation
        at the local scheduler.
        """
        if scheduler not in SCHEDULERS:
            raise ReproError(
                f"unknown scheduler {scheduler!r}; pick from {sorted(SCHEDULERS)}"
            )
        self._machines.append(
            dict(name=name, nodes=nodes, scheduler=scheduler, speed=speed,
                 costs=costs, memory=memory)
        )
        return self

    def add_machines(
        self, prefix: str, count: int, nodes: int, **kwargs
    ) -> "GridBuilder":
        """Declare ``count`` identical sites named ``prefix``1..N."""
        for idx in range(1, count + 1):
            self.add_machine(f"{prefix}{idx}", nodes=nodes, **kwargs)
        return self

    def program(self, name: str, program: Program) -> "GridBuilder":
        """Register an executable available on every site."""
        self._programs[name] = program
        return self

    def with_faults(self, *specs: FaultSpec) -> "GridBuilder":
        """Declare faults to install on the built grid.

        Accepts any :class:`repro.faults.FaultSpec`; they are validated
        and scheduled by :func:`repro.faults.schedule` as part of
        :meth:`build`, drawing stochastic faults from the grid's seeded
        RNG registry.
        """
        self._faults.extend(specs)
        return self

    def with_probe(self, *observers: "Probe | SpanSink") -> "GridBuilder":
        """Attach observers to the built grid — the one composable seam.

        Accepts any mix of :class:`~repro.simcore.probe.Probe`
        subclasses (recorders, op counters, custom probes) and at most
        one :class:`~repro.simcore.tracing.SpanSink`.  Probes observe
        the kernel and network in attachment order through an
        automatic :class:`~repro.simcore.probe.FanoutProbe` — callers
        never compose fanout by hand.  Observers are observation-only
        (no scheduled events, no random draws), so the simulation stays
        byte-identical to an unobserved run.

        ``with_monitors`` / ``with_profiling`` / ``with_span_sink`` are
        thin delegates of this method; to attach more than one sink,
        compose them with
        :class:`~repro.obs.streaming.TelemetryPipeline` first.
        """
        for observer in observers:
            # A dual-role observer (Probe *and* SpanSink, e.g. a
            # FlightRecorder) registers in both seams.
            matched = False
            if isinstance(observer, SpanSink):
                if self._span_sink is not None and self._span_sink is not observer:
                    raise ReproError(
                        "a grid streams through one span sink; compose sinks "
                        "with repro.obs.streaming.TelemetryPipeline"
                    )
                self._span_sink = observer
                matched = True
            if isinstance(observer, Probe):
                if observer not in self._probes:
                    self._probes.append(observer)
                matched = True
            if not matched:
                raise ReproError(
                    f"with_probe() takes Probe or SpanSink observers, "
                    f"got {observer!r}"
                )
        return self

    def with_monitors(
        self, recorder: "Optional[Recorder]" = None
    ) -> "GridBuilder":
        """Attach a runtime-verification recorder to the built grid.

        Delegates to :meth:`with_probe`.  The recorder (a fresh one
        unless given) observes every message send/delivery/drop and
        every instrumented protocol event under vector clocks, ready
        for :func:`repro.verify.evaluate`.
        """
        if recorder is None:
            from repro.verify.recorder import Recorder

            recorder = Recorder()
        return self.with_probe(recorder)

    def with_profiling(
        self, counters: "Optional[OpCounters]" = None
    ) -> "GridBuilder":
        """Attach machine-independent op counters to the built grid.

        Delegates to :meth:`with_probe`.  The counters (fresh
        :class:`~repro.prof.counters.OpCounters` unless given) observe
        events processed, queue high-water, and message traffic without
        perturbing the run.
        """
        if counters is None:
            from repro.prof.counters import OpCounters

            counters = OpCounters()
        return self.with_probe(counters)

    def with_span_sink(self, sink: SpanSink) -> "GridBuilder":
        """Stream the grid's telemetry through ``sink``.

        Delegates to :meth:`with_probe`.  The built tracer routes every
        completed span and mark through the sink (sampling,
        bounded-memory aggregation, and incremental JSONL export live
        in :mod:`repro.obs.streaming`) and meters itself.  Call
        ``grid.tracer.close()`` after the run to flush the sink.
        Ignored when ``trace=False``.
        """
        return self.with_probe(sink)

    def build(self) -> Grid:
        if not self._machines:
            raise ReproError("a grid needs at least one machine")
        env = Environment()
        probes = self._probes
        recorder: "Optional[Recorder]" = None
        counters: "Optional[OpCounters]" = None
        flightrec: "Optional[FlightRecorder]" = None
        if probes:
            from repro.obs.flightrec import FlightRecorder
            from repro.prof.counters import OpCounters
            from repro.verify.recorder import Recorder

            for probe in probes:
                # Recorders need the environment for vector-clock time.
                bind = getattr(probe, "bind", None)
                if bind is not None:
                    bind(env)
                if recorder is None and isinstance(probe, Recorder):
                    recorder = probe
                if counters is None and isinstance(probe, OpCounters):
                    counters = probe
                if flightrec is None and isinstance(probe, FlightRecorder):
                    flightrec = probe
        if len(probes) == 1:
            env.probe = probes[0]
        elif probes:
            env.probe = FanoutProbe(probes)
        rngs = RngRegistry(self.seed)
        latency_model = LatencyModel(
            base=self.latency,
            jitter_cv=self.latency_jitter_cv,
            rng=rngs.stream("net.latency") if self.latency_jitter_cv else None,
        )
        tracer = (
            Tracer(env, sink=self._span_sink) if self.trace else NullTracer(env)
        )
        network = Network(env, latency_model, metrics=tracer.metrics)
        network.add_host(self.client_host)
        ca = CertificateAuthority()
        credential = ca.issue(self.user)

        programs: dict[str, Program] = {
            DEFAULT_EXECUTABLE: make_program(startup=self.costs.app_startup),
        }
        programs.update(self._programs)

        sites: dict[str, Site] = {}
        for spec in self._machines:
            site = Site(
                env=env,
                network=network,
                name=spec["name"],
                nodes=spec["nodes"],
                ca=ca,
                programs=programs,
                scheduler_factory=SCHEDULERS[spec["scheduler"]],
                costs=spec["costs"] or self.costs,
                speed=spec["speed"],
                memory=spec["memory"],
                tracer=tracer,
            )
            site.authorize(self.user)
            sites[spec["name"]] = site

        grid = Grid(
            env=env,
            network=network,
            ca=ca,
            credential=credential,
            sites=sites,
            programs=programs,
            costs=self.costs,
            rngs=rngs,
            tracer=tracer,
            client_host=self.client_host,
            recorder=recorder,
            counters=counters,
            flightrec=flightrec,
        )
        if self._faults:
            schedule_faults(env, grid, self._faults)
        return grid
