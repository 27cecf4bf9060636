"""Tests for the simulated network and traffic accounting."""

import pytest

from repro.errors import UnknownNodeError
from repro.engine.messages import CATEGORY_CONTROL, CATEGORY_TUPLE, Message
from repro.engine.network import Network
from repro.engine.simulator import Simulator


class Recorder:
    def __init__(self):
        self.received = []

    def receive(self, message):
        self.received.append(message)


@pytest.fixture
def network():
    simulator = Simulator()
    network = Network(simulator, default_latency=0.5)
    return simulator, network


class TestDelivery:
    def test_message_delivered_after_link_latency(self, network):
        simulator, net = network
        a, b = Recorder(), Recorder()
        net.register("a", a)
        net.register("b", b)
        net.add_link("a", "b", latency=0.2)
        net.send(Message(sender="a", receiver="b", category=CATEGORY_TUPLE, payload="hi"))
        assert b.received == []
        simulator.run()
        assert len(b.received) == 1
        assert simulator.now == pytest.approx(0.2)

    def test_default_latency_used_without_link(self, network):
        simulator, net = network
        net.register("a", Recorder())
        net.register("b", Recorder())
        net.send(Message(sender="a", receiver="b", category=CATEGORY_CONTROL, payload="x"))
        simulator.run()
        assert simulator.now == pytest.approx(0.5)

    def test_unknown_receiver_rejected(self, network):
        _, net = network
        net.register("a", Recorder())
        with pytest.raises(UnknownNodeError):
            net.send(Message(sender="a", receiver="ghost", category=CATEGORY_TUPLE, payload=1))

    def test_delivery_log_records_time_and_message(self, network):
        """The network keeps no delivery log of its own; a receiver that
        wants one records ``(simulator.now, message)`` as it is handed each."""
        simulator, net = network
        log = []

        class TimedRecorder:
            def receive(self, message):
                log.append((simulator.now, message))

        net.register("a", TimedRecorder())
        net.register("b", TimedRecorder())
        sent = Message(sender="a", receiver="b", category=CATEGORY_TUPLE, payload="x")
        net.send(sent)
        simulator.run()
        assert len(log) == 1
        assert log[0][0] == pytest.approx(0.5)
        assert log[0][1] is sent
        assert not hasattr(net, "delivery_log")


class TestTopologyManagement:
    def test_removed_link_falls_back_to_default_latency(self, network):
        simulator, net = network
        for name in ("a", "b"):
            net.register(name, Recorder())
        net.add_link("a", "b", latency=0.2)
        net.remove_link("a", "b")
        net.send(Message(sender="a", receiver="b", category=CATEGORY_TUPLE, payload="x"))
        simulator.run()
        assert simulator.now == pytest.approx(0.5)

    def test_membership(self, network):
        _, net = network
        net.register("a", Recorder())
        assert "a" in net
        assert "b" not in net


class TestPairFifo:
    """A (sender, receiver) pair is a FIFO channel whatever the latencies."""

    def test_a_later_send_never_overtakes_when_the_link_goes_down(self):
        simulator = Simulator()
        net = Network(simulator, default_latency=0.01)
        log = []

        class TimedRecorder:
            def receive(self, message):
                log.append((simulator.now, message.payload))

        net.register("a", TimedRecorder())
        net.register("b", TimedRecorder())
        net.add_link("a", "b", latency=0.05)
        net.send(Message(sender="a", receiver="b", category=CATEGORY_TUPLE, payload="-X"))
        net.remove_link("a", "b")
        net.send(Message(sender="a", receiver="b", category=CATEGORY_TUPLE, payload="+X"))
        # another pair is not held back by a->b
        net.send(Message(sender="b", receiver="a", category=CATEGORY_TUPLE, payload="other"))
        simulator.run()
        assert [payload for _, payload in log] == ["other", "-X", "+X"]
        assert log[0][0] == pytest.approx(0.01)
        assert log[1][0] == log[2][0] == pytest.approx(0.05)

    def test_equal_latencies_keep_their_delivery_times(self):
        simulator = Simulator()
        net = Network(simulator, default_latency=0.01)
        times = []

        class TimedRecorder:
            def receive(self, message):
                times.append(simulator.now)
                if message.payload == 5:
                    return
                # flap the link: the two latencies are equal, so nothing moves
                if message.payload % 2:
                    net.remove_link("a", "b")
                else:
                    net.add_link("a", "b", latency=0.01)
                follow_up = message.payload + 1
                net.send(Message(sender="a", receiver="b", category=CATEGORY_TUPLE, payload=follow_up))

        net.register("a", TimedRecorder())
        net.register("b", TimedRecorder())
        net.add_link("a", "b", latency=0.01)
        net.send(Message(sender="a", receiver="b", category=CATEGORY_TUPLE, payload=0))
        simulator.run()
        expected, now = [], 0.0
        for _ in range(6):
            now = now + 0.01
            expected.append(now)
        assert times == expected


class TestTrafficStats:
    def test_counts_by_category(self, network):
        simulator, net = network
        net.register("a", Recorder())
        net.register("b", Recorder())
        net.send(Message(sender="a", receiver="b", category=CATEGORY_TUPLE, payload="x"))
        net.send(Message(sender="a", receiver="b", category=CATEGORY_CONTROL, payload="y"))
        net.send(Message(sender="b", receiver="a", category=CATEGORY_TUPLE, payload="z"))
        stats = net.stats
        assert stats.messages == 3
        assert stats.category_count(CATEGORY_TUPLE) == 2
        assert stats.category_count(CATEGORY_CONTROL) == 1
        assert stats.bytes > 0
        snapshot = stats.snapshot()
        assert snapshot["messages"] == 3

    def test_reset_returns_previous_stats(self, network):
        simulator, net = network
        net.register("a", Recorder())
        net.register("b", Recorder())
        net.send(Message(sender="a", receiver="b", category=CATEGORY_TUPLE, payload="x"))
        old = net.reset_stats()
        assert old.messages == 1
        assert net.stats.messages == 0
