"""C3 — aelite's reserved config slots cost 6.25 % data bandwidth.

"aelite reserves at least one slot on each of the NI-router and router-NI
links for configuration traffic.  For a slot wheel size of 16 this is a
6.25% loss of data bandwidth.  This is not the case for daelite."

Measured two ways: (i) allocatable capacity on an NI link with and
without the reservation, (ii) saturated delivered payload bandwidth on a
maximum allocation.
"""

from __future__ import annotations

import pytest

from repro.aelite import AeliteNetwork, reserve_config_slots
from repro.alloc import ConnectionRequest, SlotAllocator
from repro.analysis import config_slot_bandwidth_loss
from repro.core import DaeliteNetwork
from repro.params import aelite_parameters, daelite_parameters
from repro.topology import build_mesh

SLOT_TABLE_SIZE = 16


def free_slots_on_ni_link(reserved):
    """Free data slots on one directed NI-router link."""
    params = aelite_parameters(slot_table_size=SLOT_TABLE_SIZE)
    mesh = build_mesh(2, 2)
    allocator = SlotAllocator(
        topology=mesh, params=params, policy="first"
    )
    if reserved:
        reserve_config_slots(allocator.ledger, mesh)
    edge = ("NI00", "R00")
    return sum(
        1
        for slot in range(SLOT_TABLE_SIZE)
        if allocator.ledger.is_free(edge, slot)
    )


def test_config_slot_capacity_loss(benchmark):
    def measure():
        return (
            free_slots_on_ni_link(reserved=False),
            free_slots_on_ni_link(reserved=True),
        )

    free, reserved = benchmark(measure)
    loss = (free - reserved) / free
    params = aelite_parameters(slot_table_size=SLOT_TABLE_SIZE)
    print("\nC3 — CONFIG-SLOT BANDWIDTH LOSS (T=16, per NI link)")
    print(f"  free data slots, daelite (no reservation): {free}")
    print(f"  free data slots, aelite:                   {reserved}")
    print(
        f"  measured loss: {loss:.2%}  (paper: "
        f"{config_slot_bandwidth_loss(params):.2%})"
    )
    assert free == SLOT_TABLE_SIZE
    assert reserved == SLOT_TABLE_SIZE - 1
    assert loss == pytest.approx(0.0625)


def test_saturated_payload_bandwidth(benchmark):
    """Delivered payload words per cycle on a maximal allocation:
    daelite reaches the full wheel; aelite loses the config slot *and*
    the header share."""

    def measure():
        # daelite: all 16 slots usable.  The buffer must cover the
        # credit round trip (delivery + wheel wait + return) at full
        # rate, i.e. ~45 cycles x 0.94 words/cycle.
        params = daelite_parameters(
            slot_table_size=SLOT_TABLE_SIZE, channel_buffer_words=60
        )
        mesh = build_mesh(2, 2)
        allocator = SlotAllocator(topology=mesh, params=params)
        conn = allocator.allocate_connection(
            ConnectionRequest(
                "c",
                "NI00",
                "NI10",
                forward_slots=SLOT_TABLE_SIZE - 1,
                reverse_slots=1,
            )
        )
        net = DaeliteNetwork(mesh, params)
        handle = net.configure(conn)
        for payload in range(3000):
            net.ni("NI00").submit(
                handle.forward.src_channel, payload, "c"
            )
        window = 20 * params.wheel_cycles
        # Warm up past the credit-loop transient (~10 wheels): the sink
        # must drain every cycle or credits stall the source.
        for _ in range(10 * params.wheel_cycles):
            net.run(1)
            net.ni("NI10").receive(handle.forward.dst_channel)
        start = net.stats.delivered_words("c")
        for _ in range(window):
            net.run(1)
            net.ni("NI10").receive(handle.forward.dst_channel)
        daelite_rate = (
            net.stats.delivered_words("c") - start
        ) / window

        # aelite: 15 usable slots after the reservation, plus headers.
        aparams = aelite_parameters(
            slot_table_size=SLOT_TABLE_SIZE, channel_buffer_words=60
        )
        amesh = build_mesh(2, 2)
        aallocator = SlotAllocator(
            topology=amesh, params=aparams, policy="first"
        )
        reserve_config_slots(aallocator.ledger, amesh)
        aconn = aallocator.allocate_connection(
            ConnectionRequest(
                "c",
                "NI00",
                "NI10",
                forward_slots=SLOT_TABLE_SIZE - 2,
                reverse_slots=1,
            )
        )
        anet = AeliteNetwork(amesh, aparams)
        ahandle = anet.install_connection(aconn)
        for payload in range(3000):
            anet.ni("NI00").submit(
                ahandle.forward.src_connection, payload, "c"
            )
        awindow = 20 * aparams.wheel_cycles
        for _ in range(10 * aparams.wheel_cycles):
            anet.run(1)
            anet.ni("NI10").receive(ahandle.forward.dst_queue)
        astart = anet.stats.delivered_words("c")
        for _ in range(awindow):
            anet.run(1)
            anet.ni("NI10").receive(ahandle.forward.dst_queue)
        aelite_rate = (
            anet.stats.delivered_words("c") - astart
        ) / awindow
        return daelite_rate, aelite_rate

    daelite_rate, aelite_rate = benchmark(measure)
    print("\nC3 — SATURATED PAYLOAD BANDWIDTH (words/cycle, NI link)")
    print(f"  daelite (15/16 slots, no headers): {daelite_rate:.3f}")
    print(f"  aelite  (14/16 slots + headers):   {aelite_rate:.3f}")
    print(f"  daelite advantage: {daelite_rate / aelite_rate:.2f}x")
    assert daelite_rate == pytest.approx(15 / 16, rel=0.02)
    # aelite: 14 usable slots, merged headers -> at most ~0.77 w/cycle.
    assert aelite_rate < 0.80
    assert daelite_rate > 1.15 * aelite_rate
