"""The runtime-verification and profiling probe seam.

A :class:`Probe` is the simulator's instrumentation interface: the
kernel reports scheduled/processed events, the network reports message
sends/deliveries/drops, and protocol components report named events and
state accesses.  The default is *no probe* (``Environment.probe is
None``) and every hook below is a cheap no-op, so instrumented code
behaves identically whether or not a run is being observed — exactly
the contract ``NullTracer`` gives observability.

Concrete probes live higher up: the vector-clock recorder in
:mod:`repro.verify.recorder` and the machine-independent op counters in
:mod:`repro.prof.counters`.  This module only defines the seam so that
low-level packages (``net``, ``core``) never import those layers.
Several observers can share one environment through
:class:`FanoutProbe`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message
    from repro.simcore.environment import Environment


class Probe:
    """Base probe: every hook is a no-op.  Subclass and override."""

    def on_schedule(self, when: float, queue_size: int) -> None:
        """An event was pushed onto the kernel heap (now ``queue_size`` deep)."""

    def on_step(self, now: float) -> None:
        """The kernel processed one event at simulated time ``now``."""

    def on_send(self, message: "Message") -> None:
        """A message entered the network."""

    def on_deliver(self, message: "Message") -> None:
        """A message reached its destination mailbox."""

    def on_drop(self, message: "Message", reason: str) -> None:
        """A message was lost (drop rule, partition, crash, unbound)."""

    def event(self, node: str, name: str, attrs: dict[str, Any]) -> None:
        """A named protocol event occurred at ``node``."""

    def access(
        self, node: str, resource: str, mode: str, attrs: dict[str, Any]
    ) -> None:
        """``node`` read (``mode='r'``) or wrote (``'w'``) ``resource``."""

    def register_locus(self, endpoint: str, locus: str) -> None:
        """Map an endpoint onto its owning locus of control."""

    def on_retained(self, source: str, count: int) -> None:
        """A retained-object count reached a new peak.

        ``source`` names what was counted: ``"spans"`` for the span and
        mark records held by a sinked
        :class:`~repro.simcore.tracing.Tracer`, ``"census"`` for the
        live entries across a :class:`~repro.core.bounded.RetainedCensus`'s
        registered long-lived collections.  Each source reports only
        when ``count`` exceeds its every earlier value, so probes can
        store it directly as a high-water mark.
        """


class FanoutProbe(Probe):
    """Dispatches every hook to several probes, in installation order.

    Lets a run be verified *and* profiled at once: the builder composes
    the verification recorder and the op counters into one fan-out when
    both are requested.  Like any probe, fan-out is observation-only.
    """

    def __init__(self, probes: Iterable[Probe]) -> None:
        self.probes: tuple[Probe, ...] = tuple(probes)

    def on_schedule(self, when: float, queue_size: int) -> None:
        for probe in self.probes:
            probe.on_schedule(when, queue_size)

    def on_step(self, now: float) -> None:
        for probe in self.probes:
            probe.on_step(now)

    def on_send(self, message: "Message") -> None:
        for probe in self.probes:
            probe.on_send(message)

    def on_deliver(self, message: "Message") -> None:
        for probe in self.probes:
            probe.on_deliver(message)

    def on_drop(self, message: "Message", reason: str) -> None:
        for probe in self.probes:
            probe.on_drop(message, reason)

    def event(self, node: str, name: str, attrs: dict[str, Any]) -> None:
        for probe in self.probes:
            probe.event(node, name, attrs)

    def access(
        self, node: str, resource: str, mode: str, attrs: dict[str, Any]
    ) -> None:
        for probe in self.probes:
            probe.access(node, resource, mode, attrs)

    def register_locus(self, endpoint: str, locus: str) -> None:
        for probe in self.probes:
            probe.register_locus(endpoint, locus)

    def on_retained(self, source: str, count: int) -> None:
        for probe in self.probes:
            probe.on_retained(source, count)


def probe_of(env: "Environment") -> Optional[Probe]:
    """The environment's installed probe, if any."""
    return getattr(env, "probe", None)


def emit(env: "Environment", node: str, name: str, **attrs: Any) -> None:
    """Report a protocol event to the installed probe (no-op without one)."""
    probe = getattr(env, "probe", None)
    if probe is not None:
        probe.event(node, name, attrs)


def record_access(
    env: "Environment", node: str, resource: str, mode: str, **attrs: Any
) -> None:
    """Report a state access to the installed probe (no-op without one)."""
    probe = getattr(env, "probe", None)
    if probe is not None:
        probe.access(node, resource, mode, attrs)


def register_locus(env: "Environment", endpoint: Any, locus: str) -> None:
    """Tie ``endpoint`` to ``locus`` in the installed probe, if any."""
    probe = getattr(env, "probe", None)
    if probe is not None:
        probe.register_locus(str(endpoint), locus)
