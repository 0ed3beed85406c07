"""Cycle-level tests of the aelite baseline network."""

from __future__ import annotations

import pytest

from repro.aelite import AeliteNetwork, reserve_config_slots
from repro.alloc import ConnectionRequest, SlotAllocator
from repro.params import aelite_parameters
from repro.topology import build_mesh


@pytest.fixture
def params():
    return aelite_parameters(slot_table_size=8)


def build_connected(params, forward_slots=2, src="NI00", dst="NI11"):
    topology = build_mesh(2, 2)
    allocator = SlotAllocator(topology=topology, params=params)
    connection = allocator.allocate_connection(
        ConnectionRequest(
            "a", src, dst, forward_slots=forward_slots, reverse_slots=1
        )
    )
    network = AeliteNetwork(topology, params, host_ni=src)
    handle = network.install_connection(connection)
    return network, connection, handle


def pump(network, dst, queue, expected, max_steps=4000):
    payloads = []
    for _ in range(max_steps):
        network.run(2)
        payloads.extend(
            w.payload for w in network.ni(dst).receive(queue)
        )
        if len(payloads) >= expected:
            break
    return payloads


class TestAeliteDataPath:
    def test_in_order_delivery(self, params):
        network, _, handle = build_connected(params)
        network.ni("NI00").submit_words(
            handle.forward.src_connection, list(range(40)), label="a"
        )
        payloads = pump(
            network, "NI11", handle.forward.dst_queue, 40
        )
        assert payloads == list(range(40))
        assert network.total_dropped_words == 0

    def test_three_cycles_per_hop(self, params):
        """'the router (and link) traversal delay ... 3 cycles used by
        aelite' — a 3-router path takes 3*3+1 = 10 cycles."""
        network, connection, handle = build_connected(params)
        network.ni("NI00").submit_words(
            handle.forward.src_connection, [1], label="a"
        )
        pump(network, "NI11", handle.forward.dst_queue, 1)
        stats = network.stats.connections["a"]
        hops = connection.forward.hops
        assert stats.min_latency == params.hop_cycles * hops + 1

    def test_credits_via_headers_sustain_streams(self, params):
        network, _, handle = build_connected(params)
        count = 8 * params.channel_buffer_words
        network.ni("NI00").submit_words(
            handle.forward.src_connection, list(range(count)), label="a"
        )
        payloads = pump(
            network, "NI11", handle.forward.dst_queue, count
        )
        assert payloads == list(range(count))

    def test_reverse_direction(self, params):
        network, _, handle = build_connected(params)
        network.ni("NI11").submit_words(
            handle.reverse.src_connection, [9, 8], label="rev"
        )
        payloads = pump(
            network, "NI00", handle.reverse.dst_queue, 2
        )
        assert payloads == [9, 8]

    def test_header_overhead_on_saturated_link(self, params):
        """With a single owned slot, every slot carries a header: at
        most 2 payload words per 3-word slot cross the source link."""
        network, _, handle = build_connected(params, forward_slots=1)
        source_link = network.link("NI00", "R00")
        count = 60
        network.ni("NI00").submit_words(
            handle.forward.src_connection, list(range(count)), label="a"
        )
        pump(network, "NI11", handle.forward.dst_queue, count)
        # words_carried counts headers too.
        headers = source_link.words_carried - count
        assert headers >= count / 2  # one header per 2 payload words

    def test_merged_packets_amortize_headers(self, params):
        """Three consecutive slots form one packet: 8 payload words per
        9 link words (11% overhead)."""
        topology = build_mesh(2, 2)
        allocator = SlotAllocator(
            topology=topology, params=params, policy="first"
        )
        connection = allocator.allocate_connection(
            ConnectionRequest(
                "a", "NI00", "NI11", forward_slots=3, reverse_slots=1
            )
        )
        assert sorted(connection.forward.slots) == [0, 1, 2]
        network = AeliteNetwork(topology, params)
        handle = network.install_connection(connection)
        count = 80
        network.ni("NI00").submit_words(
            handle.forward.src_connection, list(range(count)), label="a"
        )
        source_link = network.link("NI00", "R00")
        pump(network, "NI11", handle.forward.dst_queue, count)
        headers = source_link.words_carried - count
        # 80 payload words over 3-slot packets (8 payload each) need
        # only ~10 headers, far fewer than one per slot (~30).
        assert headers <= count / 8 + 2


class TestAeliteConfigReservation:
    def test_reserved_slots_claimed(self, params):
        topology = build_mesh(2, 2)
        allocator = SlotAllocator(topology=topology, params=params)
        claimed = reserve_config_slots(allocator.ledger, topology)
        assert claimed == 2 * len(topology.nis)
        assert not allocator.ledger.is_free(("NI00", "R00"), 0)

    def test_data_capacity_reduced(self, params):
        topology = build_mesh(2, 2)
        allocator = SlotAllocator(
            topology=topology, params=params, policy="first"
        )
        reserve_config_slots(allocator.ledger, topology)
        admissible, _ = allocator.ledger.probe_rotations(
            allocator._claim_diagonal(
                ("NI00", "R00", "R01", "R11", "NI11"), None
            )
        )
        # The reserved config slot on the source NI link and on the
        # destination NI link each exclude one base slot of the path
        # (they only coincide for path lengths that wrap the wheel).
        assert admissible.bit_count() == params.slot_table_size - 2
