"""Unit tests for slotted network delivery and endpoint interning.

Slotted mode trades per-message kernel events for one event per
``(destination, deadline)`` slot: bursts aimed at one mailbox coalesce
into a single ``Timeout`` while delivery times, FIFO order per slot,
and drop semantics (evaluated at delivery time, like per-message mode)
are preserved.
"""

import pytest

from repro.net import Endpoint, LatencyModel, Network, Port
from repro.simcore import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net(env):
    network = Network(env, slotted=True)
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

    def test_delivery_time_matches_per_message_mode(self, env):
        latency = LatencyModel(base=0.25)
        plain = Network(Environment(), latency)
        slotted = Network(env, latency, slotted=True)
        arrivals = {}
        for name, network in (("plain", plain), ("slotted", slotted)):
            network.add_host("alpha")
            network.add_host("beta")
            sender = _port(network, "alpha", "client")
            receiver = _port(network, "beta", "server")
            sender.send(receiver.endpoint, "ping")

            def waiter(env, receiver=receiver):
                yield receiver.recv()
                return env.now

            arrivals[name] = network.env.run(
                network.env.process(waiter(network.env))
            )
        assert arrivals["plain"] == arrivals["slotted"] == 0.25


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
        # Loopback latency is shorter, so the local message lands first
        # exactly as in per-message mode.
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
