"""Run-time reconfiguration throughput (online allocation, [22]/[30]).

Fast connection set-up is only useful if the run-time stack keeps up:
this bench churns connections through the
:class:`~repro.core.online.OnlineConnectionManager` (allocate ->
configure -> traffic -> tear down -> release) and reports the full
open/close cost distribution — the system-level face of Table III.
"""

from __future__ import annotations

from repro.alloc import ConnectionRequest
from repro.core import DaeliteNetwork, OnlineConnectionManager
from repro.errors import AllocationError
from repro.params import daelite_parameters
from repro.topology import build_mesh
from repro.traffic import Lcg


def churn(manager, operations, seed=7):
    """Random opens/closes; returns (opens, closes, rejected)."""
    lcg = Lcg(seed)
    nis = sorted(e.name for e in manager.network.topology.nis)
    opens = closes = rejected = 0
    serial = 0
    for _ in range(operations):
        open_labels = sorted(manager.connections)
        if open_labels and lcg.next_float() < 0.45:
            manager.close_connection(
                open_labels[lcg.next_below(len(open_labels))]
            )
            closes += 1
            continue
        src = nis[lcg.next_below(len(nis))]
        dst = src
        while dst == src:
            dst = nis[lcg.next_below(len(nis))]
        serial += 1
        try:
            manager.open_connection(
                ConnectionRequest(
                    f"dyn{serial}",
                    src,
                    dst,
                    forward_slots=1 + lcg.next_below(3),
                )
            )
            opens += 1
        except AllocationError:
            rejected += 1
    return opens, closes, rejected


def test_online_churn(benchmark):
    def run():
        topology = build_mesh(3, 3)
        params = daelite_parameters(slot_table_size=16)
        network = DaeliteNetwork(topology, params, host_ni="NI11")
        manager = OnlineConnectionManager(network)
        opens, closes, rejected = churn(manager, operations=40)
        return manager, opens, closes, rejected

    manager, opens, closes, rejected = benchmark(run)
    setup = manager.setup_history
    teardown = manager.teardown_history
    print("\nONLINE RECONFIGURATION CHURN (3x3 mesh, T=16)")
    print(
        f"  operations: {opens} opens, {closes} closes, "
        f"{rejected} rejected (full)"
    )
    print(
        f"  set-up cycles: min {min(setup)} / mean "
        f"{sum(setup) / len(setup):.0f} / max {max(setup)}"
    )
    if teardown:
        print(
            f"  tear-down cycles: min {min(teardown)} / mean "
            f"{sum(teardown) / len(teardown):.0f} / max {max(teardown)}"
        )
    assert opens >= 10
    # Full 6-packet set-up stays in the low hundreds of cycles.
    assert max(setup) < 400
    # Clean accounting after the churn.
    expected_claims = sum(
        len(record.allocation.forward.slots)
        * (len(record.allocation.forward.path) - 1)
        + len(record.allocation.reverse.slots)
        * (len(record.allocation.reverse.path) - 1)
        for record in manager.connections.values()
    )
    assert manager.claimed_slots == expected_claims


def test_reconfiguration_rate(benchmark):
    """Connections configurable per millisecond at the 925 MHz clock."""

    def run():
        topology = build_mesh(3, 3)
        params = daelite_parameters(slot_table_size=16)
        network = DaeliteNetwork(topology, params, host_ni="NI11")
        manager = OnlineConnectionManager(network)
        start = network.kernel.cycle
        for index, (src, dst) in enumerate(
            [
                ("NI00", "NI22"),
                ("NI20", "NI02"),
                ("NI10", "NI12"),
                ("NI01", "NI21"),
            ]
        ):
            manager.open_connection(
                ConnectionRequest(f"c{index}", src, dst)
            )
        return network.kernel.cycle - start

    cycles = benchmark(run)
    params = daelite_parameters()
    per_ms = 4 / (cycles / (params.frequency_mhz * 1e3))
    print(
        f"\n4 full connection set-ups in {cycles} cycles "
        f"= {per_ms:.0f} connections/ms at {params.frequency_mhz:.0f} MHz"
    )
    assert per_ms > 1000  # thousands per millisecond
