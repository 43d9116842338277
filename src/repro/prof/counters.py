"""Machine-independent cost counters for the simulator itself.

Wall-clock timings of a discrete-event simulator measure the host, not
the code: the deterministic currency here is *op counts* — kernel
events processed, peak event-heap depth, messages through the network.
:class:`OpCounters` collects them through the
:class:`~repro.simcore.probe.Probe` seam, so attaching it changes
nothing about the run (no scheduled events, no RNG draws — the same
observation-only contract as the verification recorder, and the two
compose through :class:`~repro.simcore.probe.FanoutProbe`).

Protocol-level op counts (RPC round-trips, retry attempts) already
live in the metrics registry;
:func:`repro.prof.profile.counters_from_metrics` folds those into the
same profile section.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.simcore.probe import Probe

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message


class OpCounters(Probe):
    """Counts kernel and network operations; never perturbs the run."""

    def __init__(self) -> None:
        #: Events popped and executed by the kernel.
        self.events_processed = 0
        #: Events pushed onto the heap (includes later-cancelled ones).
        self.events_scheduled = 0
        #: Peak depth of the pending-event heap.
        self.heap_high_water = 0
        #: Messages entering / reaching / lost by the network.
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: Peak span/mark records held by a sinked tracer (0 when the
        #: run used retain-all tracing, which does not self-meter).
        self.spans_retained_high_water = 0
        #: Peak entries across census-registered long-lived collections
        #: (0 when the run takes no RetainedCensus observations).
        self.retained_high_water = 0

    # -- probe hooks -------------------------------------------------------

    def on_schedule(self, when: float, queue_size: int) -> None:
        self.events_scheduled += 1
        if queue_size > self.heap_high_water:
            self.heap_high_water = queue_size

    def on_step(self, now: float) -> None:
        self.events_processed += 1

    def on_send(self, message: "Message") -> None:
        self.messages_sent += 1

    def on_deliver(self, message: "Message") -> None:
        self.messages_delivered += 1

    def on_drop(self, message: "Message", reason: str) -> None:
        self.messages_dropped += 1

    def on_retained(self, source: str, count: int) -> None:
        if source == "spans":
            if count > self.spans_retained_high_water:
                self.spans_retained_high_water = count
        elif count > self.retained_high_water:
            self.retained_high_water = count

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """The counts under their profile counter names.

        ``obs.spans_retained_high_water`` appears only when a sinked
        tracer actually reported (retain-all runs never do), and
        ``mem.retained_high_water`` only when a RetainedCensus did,
        keeping the snapshots of every pre-existing scenario
        byte-stable.
        """
        snap = {
            "sim.events_processed": float(self.events_processed),
            "sim.events_scheduled": float(self.events_scheduled),
            "sim.heap_high_water": float(self.heap_high_water),
            "sim.messages_sent": float(self.messages_sent),
            "sim.messages_delivered": float(self.messages_delivered),
            "sim.messages_dropped": float(self.messages_dropped),
        }
        if self.spans_retained_high_water:
            snap["obs.spans_retained_high_water"] = float(
                self.spans_retained_high_water
            )
        if self.retained_high_water:
            snap["mem.retained_high_water"] = float(self.retained_high_water)
        return snap

    def __repr__(self) -> str:
        return (
            f"<OpCounters events={self.events_processed} "
            f"heap_hw={self.heap_high_water} "
            f"delivered={self.messages_delivered}>"
        )
