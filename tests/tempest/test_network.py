"""Tests for the network model: latency, bandwidth, bulk costs, delivery."""

import pytest

from repro.sim.engine import CalendarEngine
from repro.tempest import Message, Network
from repro.util import MachineConfig, SimulationError


@pytest.fixture
def net():
    eng = CalendarEngine()
    cfg = MachineConfig(n_nodes=4, msg_latency=100, per_byte_cost=0.5, bulk_msg_overhead=40)
    n = Network(eng, cfg)
    delivered = []
    n.attach(lambda msg, t: delivered.append((msg, t)))
    return eng, n, delivered


class TestFlightTime:
    def test_control_message(self, net):
        _, n, _ = net
        assert n.flight_time(Message("GET_RO", 0, 1)) == 100

    def test_payload_adds_bandwidth_term(self, net):
        _, n, _ = net
        assert n.flight_time(Message("DATA_RO", 0, 1, payload_bytes=32)) == 116

    def test_bulk_adds_startup(self, net):
        _, n, _ = net
        msg = Message("PRESEND_RO", 0, 1, payload_bytes=64, bulk=True)
        assert n.flight_time(msg) == 100 + 32 + 40


class TestDelivery:
    def test_delivers_at_flight_time(self, net):
        eng, n, delivered = net
        n.send(Message("GET_RO", 0, 1), at=50.0)
        eng.run()
        assert len(delivered) == 1
        msg, t = delivered[0]
        assert t == 150.0
        assert msg.send_time == 50.0

    def test_future_send_allowed(self, net):
        eng, n, delivered = net
        # processors run ahead of the event clock; sends from the future are OK
        n.send(Message("GET_RO", 0, 1), at=1e6)
        eng.run()
        assert delivered[0][1] == 1e6 + 100

    def test_counts_traffic(self, net):
        eng, n, _ = net
        n.send(Message("DATA_RO", 0, 1, payload_bytes=32), at=0.0)
        n.send(Message("GET_RO", 1, 0), at=0.0)
        eng.run()
        assert n.messages_delivered == 2
        assert n.bytes_delivered == 32

    def test_self_send_rejected(self, net):
        _, n, _ = net
        with pytest.raises(SimulationError):
            n.send(Message("GET_RO", 2, 2), at=0.0)

    def test_bad_endpoint_rejected(self, net):
        _, n, _ = net
        with pytest.raises(SimulationError):
            n.send(Message("GET_RO", 0, 9), at=0.0)

    def test_unattached_network_rejects(self):
        n = Network(CalendarEngine(), MachineConfig())
        with pytest.raises(SimulationError):
            n.send(Message("GET_RO", 0, 1), at=0.0)

    def test_fifo_per_timestamp(self, net):
        eng, n, delivered = net
        for i in range(5):
            m = Message("GET_RO", 0, 1)
            m.info["i"] = i
            n.send(m, at=0.0)
        eng.run()
        assert [m.info["i"] for m, _ in delivered] == list(range(5))


class TestSendEdgeCases:
    def test_self_send_error_carries_context(self, net):
        _, n, _ = net
        with pytest.raises(SimulationError) as e:
            n.send(Message("GET_RO", 2, 2), at=0.0)
        assert e.value.node == 2
        assert "GET_RO" in (e.value.message_repr or "")

    def test_bad_endpoint_error_names_message(self, net):
        _, n, _ = net
        with pytest.raises(SimulationError) as e:
            n.send(Message("GET_RO", 0, 9), at=0.0)
        assert "GET_RO" in (e.value.message_repr or "")

    def test_negative_src_rejected(self, net):
        _, n, _ = net
        with pytest.raises(SimulationError):
            n.send(Message("GET_RO", -1, 1), at=0.0)

    def test_msg_ids_are_per_instance(self):
        cfg = MachineConfig(n_nodes=2)
        eng = CalendarEngine()
        a, b = Network(eng, cfg), Network(eng, cfg)
        a.attach(lambda m, t: None)
        b.attach(lambda m, t: None)
        m1 = Message("GET_RO", 0, 1)
        m2 = Message("GET_RO", 0, 1)
        a.send(m1, at=0.0)
        b.send(m2, at=0.0)
        # independent networks assign independent id streams
        assert m1.msg_id == m2.msg_id == 0

    def test_rejected_send_assigns_no_id(self, net):
        _, n, _ = net
        bad = Message("GET_RO", 2, 2)
        with pytest.raises(SimulationError):
            n.send(bad, at=0.0)
        assert bad.msg_id == -1
        ok = Message("GET_RO", 0, 1)
        n.send(ok, at=0.0)
        assert ok.msg_id == 0

    def test_injector_can_drop(self, net):
        eng, n, delivered = net
        class Drop:
            def message_deliveries(self, msg):
                return []
        n.injector = Drop()
        n.send(Message("GET_RO", 0, 1), at=0.0)
        eng.run()
        assert delivered == []
        assert n.messages_delivered == 0

    def test_injector_can_duplicate_and_delay(self, net):
        eng, n, delivered = net
        class Dup:
            def message_deliveries(self, msg):
                return [0.0, 250.0]
        n.injector = Dup()
        n.send(Message("GET_RO", 0, 1), at=0.0)
        eng.run()
        assert [t for _, t in delivered] == [100.0, 350.0]
        assert n.messages_delivered == 2


class TestNodeOccupancy:
    def test_handler_fifo(self):
        from repro.tempest import Node

        node = Node(3)
        assert node.service_handler(arrival=100.0, cost=50.0) == 150.0
        # second message arrives while busy: queued behind
        assert node.service_handler(arrival=120.0, cost=50.0) == 200.0
        # idle gap: starts at arrival
        assert node.service_handler(arrival=500.0, cost=10.0) == 510.0
