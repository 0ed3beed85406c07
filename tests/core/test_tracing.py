"""Tests for the event-tracing hooks in the data path."""

from __future__ import annotations

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.params import daelite_parameters
from repro.sim import Tracer
from repro.topology import build_mesh

from ..conftest import pump_until_delivered


def traced_network(categories=None):
    topology = build_mesh(2, 2)
    params = daelite_parameters(slot_table_size=8)
    allocator = SlotAllocator(topology=topology, params=params)
    connection = allocator.allocate_connection(
        ConnectionRequest("t", "NI00", "NI11", forward_slots=1)
    )
    tracer = Tracer(categories=categories)
    network = DaeliteNetwork(
        topology, params, host_ni="NI00", tracer=tracer
    )
    handle = network.configure(connection)
    return network, connection, handle, tracer


class TestTracing:
    def test_word_lifecycle_traced(self):
        network, connection, handle, tracer = traced_network()
        network.ni("NI00").submit_words(
            handle.forward.src_channel, [0xAB], "t"
        )
        pump_until_delivered(
            network, "NI11", handle.forward.dst_channel, 1
        )
        categories = [event.category for event in tracer.events]
        assert "inject" in categories
        assert "eject" in categories
        # One route event per router on the path.
        route_events = tracer.filter(category="route")
        assert len(route_events) == connection.forward.hops
        routers = [event.component for event in route_events]
        assert routers == list(connection.forward.routers)

    def test_route_events_in_cycle_order(self):
        network, connection, handle, tracer = traced_network()
        network.ni("NI00").submit_words(
            handle.forward.src_channel, [1, 2], "t"
        )
        pump_until_delivered(
            network, "NI11", handle.forward.dst_channel, 2
        )
        cycles = [
            event.cycle for event in tracer.filter(category="route")
        ]
        assert cycles == sorted(cycles)

    def test_category_filter_limits_volume(self):
        network, connection, handle, tracer = traced_network(
            categories=["eject"]
        )
        network.ni("NI00").submit_words(
            handle.forward.src_channel, [1], "t"
        )
        pump_until_delivered(
            network, "NI11", handle.forward.dst_channel, 1
        )
        assert {event.category for event in tracer.events} == {"eject"}

    def test_drop_traced(self):
        network, connection, handle, tracer = traced_network()
        # Corrupt the second router so the word is dropped there.
        victim = network.router(connection.forward.path[2])
        for slot in range(8):
            for output in range(victim.ports):
                victim.slot_table.clear_entry(output, slot)
        network.ni("NI00").submit_words(
            handle.forward.src_channel, [9], "t"
        )
        network.run(100)
        drops = tracer.filter(category="drop")
        assert len(drops) == 1
        assert drops[0].component == victim.name

    def test_untraced_network_stays_silent(self):
        topology = build_mesh(2, 2)
        params = daelite_parameters(slot_table_size=8)
        network = DaeliteNetwork(topology, params)
        assert not network.tracer.enabled
        assert network.tracer.events == []
