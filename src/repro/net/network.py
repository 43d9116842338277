"""The simulated wide-area network.

The :class:`Network` owns the set of host names, a latency model, and
per-endpoint mailboxes.  ``send()`` schedules delivery of a message into
the destination mailbox after the modeled one-way latency; delivery is
reliable and ordered per (src, dst) pair unless a fault (partition,
drop rule, dead host) intervenes.

The paper's microbenchmarks were run between two machines "on a lightly
loaded network with a latency ... of about 2 msec", which is the default
uniform latency here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

import numpy as np

from repro.errors import HostDown, NetworkError, SimulationError
from repro.net.address import Endpoint
from repro.net.message import Message
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.simcore.resources import Store
from repro.simcore.rng import jittered

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment


#: Default one-way latency between distinct hosts (paper: ~2 ms).
DEFAULT_LATENCY = 0.002

#: Latency for host-local delivery (loopback).
LOCAL_LATENCY = 1e-5


class LatencyModel:
    """Pairwise one-way latency plus optional serialization delay.

    ``base`` applies between distinct hosts unless a per-pair override
    is installed; loopback uses ``local``.  ``jitter_cv`` adds gamma
    jitter with the given coefficient of variation.  ``bandwidth``
    (bytes/s, None = infinite) adds a size-dependent serialization term
    — negligible for control messages at the defaults, but it lets
    experiments model bulk transfers.
    """

    def __init__(
        self,
        base: float = DEFAULT_LATENCY,
        local: float = LOCAL_LATENCY,
        jitter_cv: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        bandwidth: Optional[float] = None,
    ) -> None:
        if bandwidth is not None and bandwidth <= 0:
            raise SimulationError(f"bandwidth must be positive, got {bandwidth!r}")
        self.base = float(base)
        self.local = float(local)
        self.jitter_cv = float(jitter_cv)
        self.rng = rng
        self.bandwidth = bandwidth
        self._overrides: dict[tuple[str, str], float] = {}

    def set_latency(self, host_a: str, host_b: str, latency: float) -> None:
        """Install a symmetric per-pair latency override."""
        if latency < 0:
            raise SimulationError(f"negative latency {latency!r}")
        self._overrides[(host_a, host_b)] = latency
        self._overrides[(host_b, host_a)] = latency

    def pair_latency(self, host_a: str, host_b: str) -> Optional[float]:
        """The current override for a pair, if any (None = base latency)."""
        return self._overrides.get((host_a, host_b))

    def clear_latency(self, host_a: str, host_b: str) -> None:
        """Remove a pair's override, restoring the base latency."""
        self._overrides.pop((host_a, host_b), None)
        self._overrides.pop((host_b, host_a), None)

    def latency(self, src: str, dst: str, size_bytes: int = 0) -> float:
        """One-way delay for a ``size_bytes`` message from src to dst."""
        if src == dst:
            return self.local
        mean = self._overrides.get((src, dst), self.base)
        delay = jittered(self.rng, mean, self.jitter_cv)
        if self.bandwidth is not None and size_bytes > 0:
            delay += size_bytes / self.bandwidth
        return delay


class Network:
    """Hosts, mailboxes, and message delivery.

    Delivery comes in two shapes:

    * **per-message** (default) — every ``send()`` schedules its own
      kernel event, exactly one event per in-flight message.
    * **slotted** (``slotted=True``) — in-flight messages are grouped
      into a delivery ring keyed by (destination endpoint, deadline):
      the first message bound for a slot schedules one kernel event,
      later sends with the same deadline ride along for free.  At
      bursty fan-in (many same-instant sends to one service under a
      deterministic latency model) this collapses N kernel events into
      one, which is where million-event runs spend their heap budget.
      Per-message semantics — drop rules at send time, reachability at
      delivery time, FIFO per (src, dst) — are unchanged, but events
      that *interleave* with deliveries at the same instant may observe
      a different ordering than per-message mode, so slotting is opt-in
      and benchmarks pin which mode they measure.  Only exact-equal
      deadlines coalesce, so delivery times never change.
    """

    def __init__(
        self,
        env: "Environment",
        latency_model: Optional[LatencyModel] = None,
        metrics: Optional[MetricsRegistry] = None,
        slotted: bool = False,
    ) -> None:
        self.env = env
        self.latency_model = latency_model or LatencyModel()
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.slotted = bool(slotted)
        self._hosts: set[str] = set()
        self._down: set[str] = set()
        self._mailboxes: dict[Endpoint, Store] = {}
        #: Open delivery slots: (dst, deadline) -> messages in send order.
        self._slots: dict[tuple[Endpoint, float], list[Message]] = {}
        #: Partition groups: messages cross groups only if allowed.
        self._partitions: dict[str, int] = {}
        #: Drop rules: callables deciding whether to drop a message.
        self._drop_rules: list[Callable[[Message], bool]] = []
        #: Counters for observability.
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        #: Slotted mode: kernel events scheduled for delivery.  The gap
        #: between this and ``sent_count`` minus send-time drops is the
        #: coalescing win.
        self.delivery_slots = 0

    # -- topology ------------------------------------------------------------

    def add_host(self, name: str) -> None:
        """Register a host name (idempotent)."""
        # Topology-bounded: one entry per machine in the grid, and
        # crash/partition faults mark hosts down rather than remove
        # them.
        self._hosts.add(name)  # repro: noqa mem-grow-only-attr

    def has_host(self, name: str) -> bool:
        return name in self._hosts

    @property
    def hosts(self) -> frozenset[str]:
        return frozenset(self._hosts)

    def _require_host(self, name: str) -> None:
        if name not in self._hosts:
            raise NetworkError(f"unknown host {name!r}")

    # -- host liveness ---------------------------------------------------------

    def host_up(self, name: str) -> bool:
        return name in self._hosts and name not in self._down

    def crash_host(self, name: str) -> None:
        """Mark a host dead: its mailboxes stop receiving messages."""
        self._require_host(name)
        self._down.add(name)

    def restore_host(self, name: str) -> None:
        self._require_host(name)
        self._down.discard(name)

    # -- partitions & drops -------------------------------------------------

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split hosts into isolated groups (unlisted hosts stay in group 0)."""
        self._partitions.clear()
        for gid, group in enumerate(groups, start=1):
            for host in group:
                self._require_host(host)
                self._partitions[host] = gid

    def heal_partition(self) -> None:
        self._partitions.clear()

    def add_drop_rule(self, rule: Callable[[Message], bool]) -> Callable[[Message], bool]:
        """Register a predicate; messages for which it returns True are lost."""
        self._drop_rules.append(rule)
        return rule

    def remove_drop_rule(self, rule: Callable[[Message], bool]) -> None:
        self._drop_rules.remove(rule)

    def _reachable(self, src: str, dst: str) -> bool:
        if dst in self._down:
            return False
        if not self._partitions or src == dst:
            return True
        return self._partitions.get(src, 0) == self._partitions.get(dst, 0)

    # -- endpoints ---------------------------------------------------------

    def bind(self, endpoint: Endpoint) -> Store:
        """Create (or return) the mailbox for an endpoint."""
        self._require_host(endpoint.host)
        box = self._mailboxes.get(endpoint)
        if box is None:
            box = Store(self.env)
            self._mailboxes[endpoint] = box
        return box

    def unbind(self, endpoint: Endpoint) -> None:
        """Drop an endpoint's mailbox (idempotent).

        Messages already in flight to it are counted as drops on
        arrival ("unbound"), exactly as if it had never been bound —
        call it when a per-request reply port is done so a long-running
        service does not retain one mailbox per request ever served.
        """
        self._mailboxes.pop(endpoint, None)

    def mailbox(self, endpoint: Endpoint) -> Store:
        """The mailbox for a bound endpoint (error if unbound)."""
        try:
            return self._mailboxes[endpoint]
        except KeyError:
            raise NetworkError(f"endpoint {endpoint} is not bound") from None

    def is_bound(self, endpoint: Endpoint) -> bool:
        return endpoint in self._mailboxes

    # -- delivery ------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Asynchronously deliver ``message`` after the modeled latency.

        Sending from a dead host raises :class:`HostDown` (the sender
        cannot act); sending *to* a dead/partitioned/unbound endpoint
        silently loses the message, exactly as a real datagram would.
        Reliability on top of this (timeouts, retries) is the RPC
        layer's job.
        """
        self._require_host(message.src.host)
        self._require_host(message.dst.host)
        if message.src.host in self._down:
            raise HostDown(f"source host {message.src.host!r} is down")

        self.sent_count += 1
        message.sent_at = self.env.now
        self.metrics.counter("net.messages_sent_total").inc(kind=message.kind)
        self.metrics.rate("net.send_rate").tick()
        probe = self.env.probe
        if probe is not None:
            probe.on_send(message)

        if any(rule(message) for rule in self._drop_rules):
            self.dropped_count += 1
            self.metrics.counter("net.messages_dropped_total").inc(reason="rule")
            if probe is not None:
                probe.on_drop(message, "rule")
            return

        delay = self.latency_model.latency(
            message.src.host, message.dst.host, message.size_bytes
        )
        if not self.slotted:
            deliver = self.env.timeout(delay, value=message)
            deliver.callbacks.append(self._deliver)
            return

        now = self.env.now
        deadline = now + delay
        key = (message.dst, deadline)
        slot = self._slots.get(key)
        if slot is not None:
            slot.append(message)
            return
        self._slots[key] = [message]
        self.delivery_slots += 1
        fire = self.env.timeout(deadline - now, value=key)
        fire.callbacks.append(self._deliver_slot)

    def _deliver(self, event) -> None:
        """Per-message delivery: the event's value is the message."""
        self._deliver_message(event.value)

    def _deliver_slot(self, event) -> None:
        """Slotted delivery: drain one (dst, deadline) slot in send order."""
        messages = self._slots.pop(event.value)
        deliver_message = self._deliver_message
        for message in messages:
            deliver_message(message)

    def _deliver_message(self, message: Message) -> None:
        probe = self.env.probe
        # Reachability is evaluated at delivery time so that a partition
        # or crash occurring mid-flight loses the message.
        if not self._reachable(message.src.host, message.dst.host):
            self.dropped_count += 1
            self.metrics.counter("net.messages_dropped_total").inc(reason="unreachable")
            if probe is not None:
                probe.on_drop(message, "unreachable")
            return
        box = self._mailboxes.get(message.dst)
        if box is None:
            self.dropped_count += 1
            self.metrics.counter("net.messages_dropped_total").inc(reason="unbound")
            if probe is not None:
                probe.on_drop(message, "unbound")
            return
        message.delivered_at = self.env.now
        self.delivered_count += 1
        self.metrics.counter("net.messages_delivered_total").inc(kind=message.kind)
        if message.sent_at is not None:
            self.metrics.histogram("net.delivery_latency_seconds").observe(
                message.delivered_at - message.sent_at
            )
        if probe is not None:
            probe.on_deliver(message)
        box.put(message)
