"""Unit tests for slotted network delivery and endpoint interning.

The network schedules one kernel event per ``(destination, deadline)``
slot: bursts aimed at one mailbox coalesce into a single ``Timeout``,
while each message still arrives at its send time plus its latency, in
send order within a slot.  Drop rules apply at send time; reachability
and binding are checked at delivery time.
"""

import numpy as np
import pytest

from repro.net import Endpoint, LatencyModel, Network, Port
from repro.net.network import DEFAULT_LATENCY
from repro.simcore import Environment, Probe


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net(env):
    network = Network(env)
    network.add_host("alpha")
    network.add_host("beta")
    return network


def _port(net, host, name):
    return Port(net, Endpoint(host, name))


class TestSlotCoalescing:
    def test_same_instant_burst_uses_one_slot(self, env, net):
        sender = _port(net, "alpha", "client")
        receiver = _port(net, "beta", "server")
        for i in range(50):
            sender.send(receiver.endpoint, "ping", payload=i)
        # One kernel event carries the whole burst.
        assert net.delivery_slots == 1
        assert env.queue_size == 1
        env.run()
        assert receiver.pending() == 50

    def test_distinct_destinations_get_distinct_slots(self, env, net):
        sender = _port(net, "alpha", "client")
        rx_a = _port(net, "beta", "a")
        rx_b = _port(net, "beta", "b")
        sender.send(rx_a.endpoint, "ping")
        sender.send(rx_b.endpoint, "ping")
        assert net.delivery_slots == 2
        env.run()
        assert rx_a.pending() == rx_b.pending() == 1

    def test_staggered_sends_open_new_slots(self, env, net):
        sender = _port(net, "alpha", "client")
        receiver = _port(net, "beta", "server")

        def burst(env):
            for _ in range(3):
                sender.send(receiver.endpoint, "ping")
                sender.send(receiver.endpoint, "ping")
                yield env.timeout(1.0)

        env.process(burst(env))
        env.run()
        assert receiver.pending() == 6
        assert net.delivery_slots == 3

    def test_delivery_time_is_send_time_plus_latency(self, env):
        net = Network(env, LatencyModel(base=0.25))
        net.add_host("alpha")
        net.add_host("beta")
        sender = _port(net, "alpha", "client")
        receiver = _port(net, "beta", "server")

        def client(env):
            yield env.timeout(1.5)
            sender.send(receiver.endpoint, "ping")

        env.process(client(env))
        env.run()
        (message,) = receiver.mailbox.items
        assert (message.sent_at, message.delivered_at) == (1.5, 1.5 + 0.25)

    def test_jittered_deadlines_never_share_a_slot(self, env):
        seed = 7
        latency = LatencyModel(
            base=0.25, jitter_cv=0.5, rng=np.random.default_rng(seed)
        )
        net = Network(env, latency)
        net.add_host("alpha")
        net.add_host("beta")
        sender = _port(net, "alpha", "client")
        receiver = _port(net, "beta", "server")
        for i in range(20):
            sender.send(receiver.endpoint, "ping", payload=i)
        # Every draw is a distinct deadline, so nothing coalesces.
        assert net.delivery_slots == 20
        # Replay the model's draws: each message lands at its own delay.
        replay = LatencyModel(
            base=0.25, jitter_cv=0.5, rng=np.random.default_rng(seed)
        )
        expected = {i: replay.latency("alpha", "beta") for i in range(20)}
        assert len(set(expected.values())) == 20
        env.run()
        arrivals = [(m.payload, m.delivered_at) for m in receiver.mailbox.items]
        assert arrivals == sorted(expected.items(), key=lambda item: item[1])


class TestSlotOrdering:
    def test_fifo_within_a_slot(self, env, net):
        sender = _port(net, "alpha", "client")
        receiver = _port(net, "beta", "server")
        for i in range(10):
            sender.send(receiver.endpoint, "ping", payload=i)
        env.run()
        payloads = [m.payload for m in receiver.mailbox.items]
        assert payloads == list(range(10))

    def test_loopback_and_remote_keep_relative_order(self, env, net):
        alpha_tx = _port(net, "alpha", "tx")
        alpha_rx = _port(net, "alpha", "rx")
        beta_rx = _port(net, "beta", "rx")
        alpha_tx.send(beta_rx.endpoint, "remote")
        alpha_tx.send(alpha_rx.endpoint, "local")
        env.run()
        # Loopback latency is shorter, so the local message lands first.
        assert alpha_rx.pending() == 1
        assert beta_rx.pending() == 1


class TestSlotDropSemantics:
    def test_crash_mid_flight_drops_at_delivery_time(self, env, net):
        sender = _port(net, "alpha", "client")
        receiver = _port(net, "beta", "server")
        sender.send(receiver.endpoint, "ping")
        net.crash_host("beta")  # before the 2ms slot fires
        env.run()
        assert receiver.pending() == 0
        assert net.dropped_count == 1

    def test_unbound_endpoint_in_slot_is_lost_alone(self, env, net):
        sender = _port(net, "alpha", "client")
        receiver = _port(net, "beta", "server")
        sender.send(receiver.endpoint, "ping")
        sender.send(Endpoint("beta", "nobody"), "ping")
        env.run()
        assert receiver.pending() == 1
        assert net.dropped_count == 1

    def test_drop_rules_apply_at_send_time(self, env, net):
        net.add_drop_rule(lambda message: message.kind == "lossy")
        sender = _port(net, "alpha", "client")
        receiver = _port(net, "beta", "server")
        sender.send(receiver.endpoint, "lossy")
        sender.send(receiver.endpoint, "safe")
        env.run()
        assert [m.kind for m in receiver.mailbox.items] == ["safe"]
        # The dropped message never opened a slot.
        assert net.delivery_slots == 1


class TestSameInstantInterleaving:
    """A slot fires where its opening send put it in the event order."""

    @pytest.mark.parametrize("fault", ["crash", "unbind"])
    def test_fault_armed_after_the_slot_opens_lands_after_it(
        self, env, net, fault
    ):
        sender = _port(net, "alpha", "client")
        receiver = _port(net, "beta", "server")
        sender.send(receiver.endpoint, "ping", payload="A")
        # Same deadline as the slot, scheduled after it opened.
        strike = env.timeout(DEFAULT_LATENCY)
        if fault == "crash":
            strike.callbacks.append(lambda _: net.crash_host("beta"))
        else:
            strike.callbacks.append(lambda _: net.unbind(receiver.endpoint))
        sender.send(receiver.endpoint, "ping", payload="C")
        env.run()
        # C joined A's slot, so it is delivered before the fault lands.
        assert [m.payload for m in receiver.mailbox.items] == ["A", "C"]
        assert net.dropped_count == 0

    def test_fault_armed_before_the_slot_opens_drops_it_whole(self, env, net):
        sender = _port(net, "alpha", "client")
        receiver = _port(net, "beta", "server")
        strike = env.timeout(DEFAULT_LATENCY)
        strike.callbacks.append(lambda _: net.crash_host("beta"))
        sender.send(receiver.endpoint, "ping", payload="A")
        sender.send(receiver.endpoint, "ping", payload="C")
        env.run()
        assert receiver.pending() == 0
        assert net.dropped_count == 2

    def test_slots_deliver_in_opening_order(self, env, net):
        sender = _port(net, "alpha", "client")
        rx_x = _port(net, "beta", "x")
        rx_y = _port(net, "beta", "y")
        delivered = []
        env.probe = _DeliveryLog(delivered)
        sender.send(rx_x.endpoint, "ping", payload="X1")
        sender.send(rx_y.endpoint, "ping", payload="Y")
        sender.send(rx_x.endpoint, "ping", payload="X2")
        env.run()
        assert delivered == ["X1", "X2", "Y"]


class _DeliveryLog(Probe):
    def __init__(self, log):
        self.log = log

    def on_deliver(self, message):
        self.log.append(message.payload)


class TestEndpointInterning:
    def test_intern_returns_canonical_instance(self):
        a = Endpoint("host9", "svc").intern()
        b = Endpoint("host9", "svc").intern()
        assert a is b

    def test_parse_interns(self):
        a = Endpoint.parse("host9:svc")
        assert a is Endpoint("host9", "svc").intern()

    def test_plain_construction_does_not_intern(self):
        # Ephemeral ports are constructed per request; auto-interning
        # them would grow the cache without bound.
        a = Endpoint("host9", "transient")
        b = Endpoint("host9", "transient")
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)

    def test_endpoints_are_immutable(self):
        endpoint = Endpoint("host9", "svc")
        with pytest.raises(AttributeError):
            endpoint.host = "other"
        with pytest.raises(AttributeError):
            del endpoint.port
