"""Head-to-head integration tests: daelite vs aelite on one allocation.

Both simulators run the same topology, the same connection, the same
traffic — the measured differences are exactly the paper's claims:
33 % lower traversal latency, no header overhead, faster set-up.
"""

from __future__ import annotations

import pytest

from repro.aelite import AeliteNetwork
from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.params import aelite_parameters, daelite_parameters
from repro.staticcheck import verify_network_state
from repro.topology import build_mesh


def run_daelite(slot_table_size, words, forward_slots=2):
    topology = build_mesh(2, 2)
    params = daelite_parameters(slot_table_size=slot_table_size)
    allocator = SlotAllocator(topology=topology, params=params)
    conn = allocator.allocate_connection(
        ConnectionRequest(
            "c", "NI00", "NI11", forward_slots=forward_slots
        )
    )
    net = DaeliteNetwork(topology, params)
    handle = net.configure(conn)
    verify_network_state(net, [handle])
    net.ni("NI00").submit_words(
        handle.forward.src_channel, list(range(words)), "c"
    )
    delivered = 0
    for _ in range(20_000):
        net.run(1)
        delivered += len(
            net.ni("NI11").receive(handle.forward.dst_channel)
        )
        if delivered >= words:
            break
    return net, conn, net.stats.connections["c"]


def run_aelite(slot_table_size, words, forward_slots=2):
    topology = build_mesh(2, 2)
    params = aelite_parameters(slot_table_size=slot_table_size)
    allocator = SlotAllocator(topology=topology, params=params)
    conn = allocator.allocate_connection(
        ConnectionRequest(
            "c", "NI00", "NI11", forward_slots=forward_slots
        )
    )
    net = AeliteNetwork(topology, params)
    handle = net.install_connection(conn)
    verify_network_state(net, [handle])
    net.ni("NI00").submit_words(
        handle.forward.src_connection, list(range(words)), label="c"
    )
    delivered = 0
    for _ in range(20_000):
        net.run(1)
        delivered += len(
            net.ni("NI11").receive(handle.forward.dst_queue)
        )
        if delivered >= words:
            break
    return net, conn, net.stats.connections["c"]


class TestLatencyComparison:
    def test_min_latency_ratio_is_two_thirds(self):
        """2 vs 3 cycles/hop: daelite pure traversal is 33% shorter."""
        _, daelite_conn, daelite_stats = run_daelite(8, 10)
        _, aelite_conn, aelite_stats = run_aelite(8, 10)
        hops = daelite_conn.forward.hops
        assert aelite_conn.forward.hops == hops
        assert daelite_stats.min_latency == 2 * hops + 1
        assert aelite_stats.min_latency == 3 * hops + 1
        per_hop_reduction = 1 - (
            (daelite_stats.min_latency - 1)
            / (aelite_stats.min_latency - 1)
        )
        assert per_hop_reduction == pytest.approx(1 / 3)

    def test_both_deliver_everything(self):
        daelite_net, _, daelite_stats = run_daelite(8, 60)
        aelite_net, _, aelite_stats = run_aelite(8, 60)
        assert daelite_stats.ejected == 60
        assert aelite_stats.ejected == 60
        assert daelite_net.total_dropped_words == 0
        assert aelite_net.total_dropped_words == 0


class TestBandwidthComparison:
    def test_daelite_moves_same_payload_with_fewer_link_words(self):
        """No headers: for the same payload, daelite's source link
        carries only the payload; aelite's carries headers too."""
        daelite_net, _, _ = run_daelite(8, 60)
        aelite_net, _, _ = run_aelite(8, 60)
        daelite_words = daelite_net.link("NI00", "R00").words_carried
        aelite_words = aelite_net.link("NI00", "R00").words_carried
        assert daelite_words == 60
        assert aelite_words > 60

    def test_daelite_saturated_throughput_higher(self):
        """Same slot allocation, saturated source: daelite delivers
        words/cycle = slots/T, aelite at most (W-1)/W of that."""
        words = 400
        daelite_net, daelite_conn, daelite_stats = run_daelite(
            8, words, forward_slots=4
        )
        aelite_net, aelite_conn, aelite_stats = run_aelite(
            8, words, forward_slots=4
        )
        daelite_cycles = daelite_stats.max_latency + 1
        # Compare delivery completion: daelite finishes the same
        # payload in fewer cycles per word on a saturated allocation.
        daelite_rate = daelite_stats.ejected / daelite_net.kernel.cycle
        aelite_rate = aelite_stats.ejected / aelite_net.kernel.cycle
        assert daelite_rate > aelite_rate


class TestSetupComparison:
    def test_order_of_magnitude_setup_speedup(self):
        """Table III: 'daelite configuration is roughly one order of
        magnitude faster than aelite' — measured here as the simulated
        daelite path set-up vs the modelled aelite sequence."""
        topology = build_mesh(2, 2)
        daelite_params = daelite_parameters(slot_table_size=16)
        allocator = SlotAllocator(
            topology=topology, params=daelite_params
        )
        conn = allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI11", forward_slots=2)
        )
        net = DaeliteNetwork(topology, daelite_params, host_ni="NI00")
        handle = net.host.setup_paths(conn)
        daelite_cycles = net.run_until_configured(handle)

        aelite_params = aelite_parameters(slot_table_size=16)
        aelite_allocator = SlotAllocator(
            topology=topology, params=aelite_params
        )
        aelite_conn = aelite_allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI11", forward_slots=2)
        )
        aelite_net = AeliteNetwork(
            topology, aelite_params, processor_overhead=30
        )
        aelite_cycles = aelite_net.setup_time(aelite_conn)
        ratio = aelite_cycles / daelite_cycles
        assert ratio >= 5, f"only {ratio:.1f}x faster"
