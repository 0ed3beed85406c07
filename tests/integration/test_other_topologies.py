"""daelite on non-mesh topologies: rings and tori.

The slot arithmetic and the configuration protocol are topology
agnostic; these tests exercise full traffic on a ring and a torus, plus
host-word accounting from the paper's Fig. 6 narrative.
"""

from __future__ import annotations

import pytest

from repro.alloc import ConnectionRequest, MulticastRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.params import daelite_parameters
from repro.staticcheck import verify_network_state
from repro.topology import build_ring, build_torus

from ..conftest import pump_until_delivered


@pytest.fixture
def params():
    return daelite_parameters(slot_table_size=8)


class TestRing:
    def test_connection_around_the_ring(self, params):
        ring = build_ring(6)
        allocator = SlotAllocator(topology=ring, params=params)
        conn = allocator.allocate_connection(
            ConnectionRequest("r", "NI0", "NI3", forward_slots=2)
        )
        net = DaeliteNetwork(ring, params, host_ni="NI0")
        handle = net.configure(conn)
        verify_network_state(net, [handle])
        net.ni("NI0").submit_words(
            handle.forward.src_channel, list(range(25)), "r"
        )
        payloads = pump_until_delivered(
            net, "NI3", handle.forward.dst_channel, 25
        )
        assert payloads == list(range(25))
        stats = net.stats.connections["r"]
        assert stats.min_latency == 2 * conn.forward.hops + 1
        assert net.total_dropped_words == 0

    def test_opposite_directions_coexist(self, params):
        ring = build_ring(4)
        allocator = SlotAllocator(topology=ring, params=params)
        clockwise = allocator.allocate_connection(
            ConnectionRequest("cw", "NI0", "NI1", forward_slots=2)
        )
        counter = allocator.allocate_connection(
            ConnectionRequest("ccw", "NI1", "NI0", forward_slots=2)
        )
        net = DaeliteNetwork(ring, params, host_ni="NI0")
        cw_handle = net.configure(clockwise)
        ccw_handle = net.configure(counter)
        verify_network_state(net, [cw_handle, ccw_handle])
        net.ni("NI0").submit_words(
            cw_handle.forward.src_channel, [1, 2], "cw"
        )
        net.ni("NI1").submit_words(
            ccw_handle.forward.src_channel, [3, 4], "ccw"
        )
        assert pump_until_delivered(
            net, "NI1", cw_handle.forward.dst_channel, 2
        ) == [1, 2]
        assert pump_until_delivered(
            net, "NI0", ccw_handle.forward.dst_channel, 2
        ) == [3, 4]

    def test_multicast_on_ring(self, params):
        ring = build_ring(6)
        allocator = SlotAllocator(topology=ring, params=params)
        tree = allocator.allocate_multicast(
            MulticastRequest("m", "NI0", ("NI2", "NI4"), slots=1)
        )
        net = DaeliteNetwork(ring, params, host_ni="NI0")
        handle = net.configure_multicast(tree)
        verify_network_state(net, [handle])
        net.ni("NI0").submit_words(
            handle.src_channel, [7, 8, 9], "m"
        )
        net.run(400)
        for dst in tree.dst_nis:
            got = net.ni(dst).receive(handle.dst_channels[dst])
            assert [w.payload for w in got] == [7, 8, 9]


class TestTorus:
    def test_wraparound_path_used(self, params):
        """On a 4x4 torus the shortest corner-to-corner path uses the
        wrap links (3 routers instead of 7)."""
        torus = build_torus(4, 4)
        allocator = SlotAllocator(topology=torus, params=params)
        conn = allocator.allocate_connection(
            ConnectionRequest("t", "NI00", "NI33", forward_slots=1)
        )
        assert conn.forward.hops == 3
        net = DaeliteNetwork(torus, params, host_ni="NI11")
        handle = net.configure(conn)
        verify_network_state(net, [handle])
        net.ni("NI00").submit_words(
            handle.forward.src_channel, [5], "t"
        )
        payloads = pump_until_delivered(
            net, "NI33", handle.forward.dst_channel, 1
        )
        assert payloads == [5]
        assert net.stats.connections["t"].min_latency == 7  # 2*3+1

    def test_torus_within_addressing_envelope(self, params):
        torus = build_torus(4, 4)
        assert len(torus.elements) == 32
        DaeliteNetwork(torus, params)  # must construct cleanly


class TestHostWordAccounting:
    def test_fig6_packet_is_three_host_words(self, params):
        from repro.alloc.spec import AllocatedChannel
        from repro.core import channel_path_packet
        from repro.topology import build_mesh

        mesh = build_mesh(2, 1)
        channel = AllocatedChannel(
            label="c",
            path=("NI00", "R00", "R10", "NI10"),
            slots=frozenset({1, 4}),
            slot_table_size=8,
        )
        packet = channel_path_packet(
            mesh, channel, src_channel=0, dst_channel=0
        )
        assert len(packet.words) == 11
        assert packet.host_words() == 3

    @pytest.mark.parametrize(
        "word_bits, words, host_words",
        [(7, 11, 3), (9, 10, 3), (10, 10, 4)],
    )
    def test_host_words_follow_the_config_word_width(
        self, word_bits, words, host_words
    ):
        """The packet carries the width it was built with: the fabrics'
        10-bit words fill a fourth host word where 7-bit words (the
        Fig. 6 pin above) fit in three."""
        from repro.alloc.spec import AllocatedChannel
        from repro.core import channel_path_packet
        from repro.topology import build_mesh

        channel = AllocatedChannel(
            label="c",
            path=("NI00", "R00", "R10", "NI10"),
            slots=frozenset({1, 4}),
            slot_table_size=8,
        )
        packet = channel_path_packet(
            build_mesh(2, 1),
            channel,
            src_channel=0,
            dst_channel=0,
            word_bits=word_bits,
        )
        assert packet.word_bits == word_bits
        assert len(packet.words) == words
        assert packet.host_words() == host_words

    def test_host_words_scale_with_width(self, params):
        from repro.alloc.spec import AllocatedChannel
        from repro.core import channel_path_packet
        from repro.topology import build_mesh

        mesh = build_mesh(2, 1)
        channel = AllocatedChannel(
            label="c",
            path=("NI00", "R00", "R10", "NI10"),
            slots=frozenset({1}),
            slot_table_size=8,
        )
        packet = channel_path_packet(
            mesh, channel, src_channel=0, dst_channel=0
        )
        assert packet.host_words(64) <= packet.host_words(32)
        assert packet.host_words(16) >= packet.host_words(32)
