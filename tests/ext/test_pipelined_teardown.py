"""Teardown and intra-router paths for the pipelined extension."""

from __future__ import annotations

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork, Opcode
from repro.ext import (
    PAD_ELEMENT_ID,
    PipelinedDaeliteNetwork,
    pipelined_path_packet,
)
from repro.params import daelite_parameters
from repro.topology import build_mesh

from ..conftest import pump_until_delivered


class TestPipelinedTeardown:
    def test_teardown_packet_carries_pads(self):
        params = daelite_parameters(slot_table_size=8)
        topology = build_mesh(2, 2)
        delays = {("R00", "R01"): 1, ("R01", "R00"): 1}
        network = PipelinedDaeliteNetwork(
            topology, params, host_ni="NI00", link_extra_slots=delays
        )
        allocator = SlotAllocator(topology=topology, params=params)
        connection = network.allocate_connection(
            allocator,
            ConnectionRequest("c", "NI00", "NI01", forward_slots=1),
        )
        packet = pipelined_path_packet(
            network.topology,
            connection.forward,
            src_channel=0,
            dst_channel=0,
            teardown=True,
        )
        assert packet.opcode is Opcode.PATH_TEARDOWN
        assert PAD_ELEMENT_ID in packet.words

    def test_teardown_clears_shifted_entries(self):
        params = daelite_parameters(slot_table_size=8)
        topology = build_mesh(2, 2)
        delays = {("R00", "R01"): 2, ("R01", "R00"): 2}
        network = PipelinedDaeliteNetwork(
            topology, params, host_ni="NI00", link_extra_slots=delays
        )
        allocator = SlotAllocator(topology=topology, params=params)
        connection = network.allocate_connection(
            allocator,
            ConnectionRequest("c", "NI00", "NI01", forward_slots=2),
        )
        handle = network.configure_pipelined(connection)
        # Confirm the downstream router has entries, then tear down.
        downstream = network.router("R01")
        occupied_before = sum(
            len(downstream.slot_table.inputs_for_slot(slot))
            for slot in range(8)
        )
        assert occupied_before > 0
        for channel, src_channel, dst_channel in (
            (
                connection.forward,
                handle.forward.src_channel,
                handle.forward.dst_channel,
            ),
            (
                connection.reverse,
                handle.reverse.src_channel,
                handle.reverse.dst_channel,
            ),
        ):
            packet = pipelined_path_packet(
                network.topology,
                channel,
                src_channel=src_channel,
                dst_channel=dst_channel,
                teardown=True,
            )
            request = network.config_module.submit(
                packet, network.kernel.cycle
            )
            network.kernel.run_until(
                lambda: request.done, max_cycles=10_000
            )
        for router in network.routers.values():
            for slot in range(8):
                assert router.slot_table.inputs_for_slot(slot) == {}


class TestIntraRouterPath:
    def test_two_nis_on_one_router(self):
        """The shortest possible connection: NI -> R -> NI, with the
        standard (unpipelined) builder for reference."""
        params = daelite_parameters(slot_table_size=8)
        topology = build_mesh(1, 1, nis_per_router=2)
        allocator = SlotAllocator(topology=topology, params=params)
        connection = allocator.allocate_connection(
            ConnectionRequest("local", "NI00", "NI00_1", forward_slots=2)
        )
        network = DaeliteNetwork(topology, params, host_ni="NI00")
        handle = network.configure(connection)
        network.ni("NI00").submit_words(
            handle.forward.src_channel, [9, 8, 7], "local"
        )
        payloads = pump_until_delivered(
            network, "NI00_1", handle.forward.dst_channel, 3
        )
        assert payloads == [9, 8, 7]
        assert network.stats.connections["local"].min_latency == 3
