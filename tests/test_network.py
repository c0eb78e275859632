"""Unit tests for the NoC latency model and message vocabulary."""

import pytest

from repro.common.params import NetworkParams
from repro.interconnect.message import Message, MessageClass, MsgType
from repro.interconnect.network import NetworkModel
from repro.interconnect.topology import MeshTopology


@pytest.fixture
def net() -> NetworkModel:
    params = NetworkParams()
    return NetworkModel(MeshTopology(params), params)


class TestMessageClasses:
    def test_data_messages(self):
        assert MsgType.DATA_EXCLUSIVE.msg_class is MessageClass.DATA
        assert MsgType.DATA_SHARED.msg_class is MessageClass.DATA
        assert MsgType.PUTM.msg_class is MessageClass.DATA

    def test_control_messages(self):
        for mt in (
            MsgType.GETS,
            MsgType.GETM,
            MsgType.NACK,
            MsgType.REJECT,
            MsgType.WAKEUP,
            MsgType.INV,
            MsgType.UNBLOCK,
        ):
            assert mt.msg_class is MessageClass.CONTROL

    def test_message_carries_priority(self):
        m = Message(MsgType.GETM, 0, 5, line=7, priority=42, requester=1)
        assert m.priority == 42
        assert m.msg_class is MessageClass.CONTROL


class TestLatency:
    def test_control_one_hop(self, net):
        # 1 hop * (link 1 + router 1) + 0 tail flits = 2
        assert net.control_latency(0, 1) == 2

    def test_data_one_hop(self, net):
        # 1 hop * 2 + 4 tail flits = 6
        assert net.data_latency(0, 1) == 6

    def test_control_corner_to_corner(self, net):
        assert net.control_latency(0, 31) == 20

    def test_local_delivery_nonzero(self, net):
        assert net.control_latency(3, 3) == 1
        assert net.data_latency(3, 3) == 5

    def test_data_slower_than_control(self, net):
        for a, b in ((0, 1), (0, 31), (5, 20)):
            assert net.data_latency(a, b) > net.control_latency(a, b)

    def test_round_trip_is_sum(self, net):
        assert net.round_trip(0, 3) == net.control_latency(0, 3) + net.data_latency(3, 0)

    def test_latency_for_by_type(self, net):
        assert net.latency_for(0, 1, MsgType.GETS) == 2
        assert net.latency_for(0, 1, MsgType.DATA_SHARED) == 6

    def test_counters_accumulate(self, net):
        before = net.messages_sent
        net.control_latency(0, 2)
        net.data_latency(2, 0)
        assert net.messages_sent == before + 2
        assert net.flits_sent >= 6
        assert net.hops_traversed >= 4

    def test_monotone_in_distance(self, net):
        lats = [net.control_latency(0, t) for t in (1, 2, 3)]
        assert lats == sorted(lats)


def test_every_message_is_priced_through_the_network_model(monkeypatch):
    """One intruder cell: each counted NoC message is one pricing call.

    ``control_latency``/``data_latency`` are the only pricing path, so
    the calls account for every message, flit and hop the network
    counts (no caller prices a leg from the tables on its own).
    """
    from repro.common.params import typical_params
    from repro.harness.systems import get_system
    from repro.sim.machine import Machine
    from repro.workloads.registry import get_workload

    params = typical_params()
    topo = MeshTopology(params.network)
    calls = {"control": 0, "data": 0}
    priced = {"flits": 0, "hops": 0}

    def counting(kind, flits, original):
        def wrapper(self, src_tile, dst_tile):
            calls[kind] += 1
            priced["flits"] += flits
            priced["hops"] += topo.hops(src_tile, dst_tile)
            return original(self, src_tile, dst_tile)

        return wrapper

    for kind, flits in (
        ("control", params.network.control_flits),
        ("data", params.network.data_flits),
    ):
        name = f"{kind}_latency"
        monkeypatch.setattr(
            NetworkModel, name,
            counting(kind, flits, getattr(NetworkModel, name)),
        )
    build = get_workload("intruder").build(8, 0.05, 3)
    machine = Machine(params, get_system("LockillerTM"), build.programs,
                      seed=3)
    machine.run()
    net = machine.network
    assert calls["control"] + calls["data"] == net.messages_sent
    assert priced["flits"] == net.flits_sent
    assert priced["hops"] == net.hops_traversed
    assert calls["control"] and calls["data"]
