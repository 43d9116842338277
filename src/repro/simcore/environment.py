"""The discrete-event execution environment.

:class:`Environment` owns simulated time and keeps pending events in
a compacting binary heap (see DESIGN.md §7).  ``run()`` pops events in
(time, priority, sequence) order and invokes their callbacks; processes
resume as callbacks of the events they wait on.  Time only advances
between events — callbacks execute atomically at one instant, which
gives the deterministic interleaving the co-allocation protocol tests
rely on.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.errors import SimulationError
from repro.simcore.events import (
    AllOf,
    AnyOf,
    Event,
    NORMAL,
    Timeout,
)
from repro.simcore.process import Process, ProcessGenerator

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.probe import Probe

#: Sentinel "infinite" horizon for run().
FOREVER = float("inf")


class EmptySchedule(SimulationError):
    """Internal signal: the event queue is exhausted."""


class _StopSimulation(BaseException):
    """Internal control-flow exception that ends :meth:`Environment.run`."""

    def __init__(self, value: Any) -> None:
        super().__init__(value)
        self.value = value


class Environment:
    """Container for simulated time, the event queue, and factories.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now` (seconds).
    compact_cancelled:
        Periodically drop cancelled events from the heap instead of
        carrying them until their scheduled time.  Pop order is
        unaffected — entries are totally ordered by their unique
        (time, priority, sequence) key, so re-heapifying the surviving
        multiset reproduces the exact same pop sequence — but the heap
        high-water mark shrinks by orders of magnitude under timer
        churn (schedule a watchdog, cancel it, repeat).  The knob
        exists so benchmarks and tests can use the lazy-deletion
        kernel as a reference.
    """

    #: Heap length below which compaction is never attempted.
    _COMPACT_MIN = 128

    def __init__(
        self, initial_time: float = 0.0, compact_cancelled: bool = True
    ) -> None:
        self._now = float(initial_time)
        #: Pending entries ``(time, priority, sequence, event)``; the
        #: first three fields form the unique, totally ordering key, so
        #: comparisons never reach the (incomparable) event object.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        self._compact_cancelled = bool(compact_cancelled)
        self._compact_floor = self._COMPACT_MIN
        #: Runtime-verification probe (see :mod:`repro.simcore.probe`);
        #: None means every instrumentation hook is a no-op.
        self.probe: "Optional[Probe]" = None

    # -- time & introspection ---------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled live event (``inf`` if none)."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
        return heap[0][0] if heap else FOREVER

    @property
    def queue_size(self) -> int:
        """Raw scheduled entries still resident, **including** cancelled
        events that have not been discarded yet.  This is the number
        that occupies memory — the heap high-water CI gate counts it —
        not the number of events that will still fire; see
        :attr:`live_size` for the latter."""
        return len(self._heap)

    @property
    def live_size(self) -> int:
        """Scheduled-but-not-cancelled events (O(queue) scan).

        The observability gauge: cancelled timers awaiting discard are
        excluded.  Computed by scanning the resident entries, so read
        it at sampling granularity, not per event.
        """
        count = 0
        for entry in self._heap:
            if not entry[3].cancelled:
                count += 1
        return count

    def compact(self) -> None:
        """Drop cancelled entries and re-heapify (amortized O(1)/event).

        Every entry carries a unique (time, priority, sequence) key, so
        the heap order is total and heapifying the surviving entries
        yields the identical pop sequence the lazy-deletion heap would
        have produced — byte-identical traces, smaller high-water mark.
        The floor doubles with the live population, so a mostly-live
        heap is never rescanned per schedule.
        """
        heap = self._heap
        live = [entry for entry in heap if not entry[3].cancelled]
        if len(live) < len(heap):
            heapify(live)
            self._heap = live
        self._compact_floor = max(self._COMPACT_MIN, 2 * len(live))

    # -- scheduling ---------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Queue ``event`` to be processed after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._eid += 1
        when = self._now + delay
        heappush(self._heap, (when, priority, self._eid, event))
        if self._compact_cancelled and len(self._heap) > self._compact_floor:
            self.compact()
        if self.probe is not None:
            self.probe.on_schedule(when, len(self._heap))

    def step(self) -> None:
        """Process the single next event, advancing the clock to it.

        Cancelled events are discarded without advancing the clock, so
        retired timers never prolong a simulation.
        """
        # schedule() is never called mid-pop, so the local alias cannot
        # go stale even though compact() rebinds self._heap.
        heap = self._heap
        while True:
            if not heap:
                raise EmptySchedule("event queue is empty")
            when, _, _, event = heappop(heap)
            if not event.cancelled:
                break
        self._now = when
        if self.probe is not None:
            self.probe.on_step(when)

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - defensive
            raise SimulationError(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)

        if not event._ok and not event.defused:
            # An unhandled failure: surface it to the caller of run().
            exc = event.value
            if self.probe is not None:
                self.probe.event(
                    "kernel",
                    "process.unhandled",
                    {"error": type(exc).__name__, "message": str(exc)},
                )
            raise exc

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until it is processed, returning its
          value (or raising its exception).
        """
        stop: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop = until
            if stop.callbacks is None:
                # Already processed.
                if stop._ok:
                    return stop.value
                raise stop.value
            stop.callbacks.append(self._stop_callback)
        else:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"until={horizon!r} is in the past (now={self._now!r})"
                )
            stop = Event(self)
            stop._ok = True
            stop._value = None
            stop.callbacks.append(self._stop_callback)
            self.schedule(stop, priority=NORMAL + 1, delay=horizon - self._now)

        try:
            step = self.step
            while True:
                step()
        except _StopSimulation as signal:
            return signal.value
        except EmptySchedule:
            if stop is not None and stop.callbacks is not None:
                if isinstance(until, Event):
                    raise SimulationError(
                        "run() ran out of events before the awaited event fired"
                    ) from None
            return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise _StopSimulation(event.value)
        # The awaited event failed: propagate its exception out of run().
        event.defused = True
        raise event.value

    # -- factories ------------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires once all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires once any of ``events`` has fired."""
        return AnyOf(self, events)

    def __repr__(self) -> str:
        return f"<Environment now={self._now!r} queued={self.queue_size}>"
