"""Broadcast: a multicast tree spanning every NI of the platform."""

from __future__ import annotations

from repro.alloc import SlotAllocator, broadcast_request
from repro.core import DaeliteNetwork
from repro.params import daelite_parameters
from repro.topology import build_mesh


class TestBroadcast:
    def test_request_covers_all_other_nis(self):
        mesh = build_mesh(3, 3)
        request = broadcast_request(mesh, "NI11", slots=1)
        assert len(request.dst_nis) == 8
        assert "NI11" not in request.dst_nis

    def test_broadcast_delivers_everywhere(self):
        """Synchronization primitives via broadcast — every NI in a
        3x3 mesh receives the identical message stream."""
        mesh = build_mesh(3, 3)
        params = daelite_parameters(slot_table_size=16)
        allocator = SlotAllocator(topology=mesh, params=params)
        tree = allocator.allocate_multicast(
            broadcast_request(mesh, "NI00", slots=1, label="bcast")
        )
        net = DaeliteNetwork(mesh, params, host_ni="NI11")
        handle = net.configure_multicast(tree)
        payloads = [0xB0, 0xB1, 0xB2]
        net.ni("NI00").submit_words(handle.src_channel, payloads, "bcast")
        received = {dst: [] for dst in tree.dst_nis}
        for _ in range(2000):
            net.run(1)
            for dst in tree.dst_nis:
                received[dst].extend(
                    w.payload
                    for w in net.ni(dst).receive(
                        handle.dst_channels[dst]
                    )
                )
            if all(len(r) == 3 for r in received.values()):
                break
        for dst in tree.dst_nis:
            assert received[dst] == payloads
        assert net.total_dropped_words == 0
        # Delivery count: 8 destinations x 3 words.
        assert net.stats.delivered_words("bcast") == 24

    def test_broadcast_source_link_paid_once(self):
        mesh = build_mesh(3, 3)
        params = daelite_parameters(slot_table_size=16)
        allocator = SlotAllocator(topology=mesh, params=params)
        tree = allocator.allocate_multicast(
            broadcast_request(mesh, "NI00", slots=2, label="bcast")
        )
        net = DaeliteNetwork(mesh, params, host_ni="NI11")
        handle = net.configure_multicast(tree)
        net.ni("NI00").submit_words(
            handle.src_channel, list(range(40)), "bcast"
        )
        net.run(800)
        for dst in tree.dst_nis:
            net.ni(dst).receive(handle.dst_channels[dst])
        assert net.link("NI00", "R00").words_carried == 40
