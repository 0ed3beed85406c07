"""Online recovery cost: cycles to reroute a connection after a link dies.

Fast connection set-up is what makes *online* fault recovery viable: a
daelite recovery is one tear-down plus one set-up over the dedicated
configuration network, so — like set-up itself (Table III) — it scales
with the path length and not with the slot count.  This bench measures
the full detect-free-reroute-replay cycle on the simulator for growing
path lengths (2-row meshes, so a detour always exists) and compares
against the analytic aelite baseline, where the same repair is a long
serialized sequence of MMIO accesses over the degraded NoC itself.
"""

from __future__ import annotations

from repro.aelite import AeliteConfigModel
from repro.alloc import ConnectionRequest
from repro.core import DaeliteNetwork, OnlineConnectionManager
from repro.params import aelite_parameters, daelite_parameters
from repro.topology import build_mesh

SLOT_TABLE_SIZE = 16
LENGTHS = (2, 3, 4, 5)


def recover_once(length: int, slots: int = 2):
    """Fail the first router-router hop of a bottom-row connection on a
    ``length`` x 2 mesh; return (manager, old allocation, outcome)."""
    mesh = build_mesh(length, 2)
    params = daelite_parameters(slot_table_size=SLOT_TABLE_SIZE)
    network = DaeliteNetwork(mesh, params, host_ni="NI00")
    manager = OnlineConnectionManager(network)
    record = manager.open_connection(
        ConnectionRequest(
            "c", "NI00", f"NI{length - 1}0", forward_slots=slots
        )
    )
    old_allocation = record.allocation
    path = old_allocation.forward.path
    report = manager.handle_link_failure((path[1], path[2]))
    (outcome,) = report.outcomes
    assert outcome.recovered, f"no detour on {length}x2 mesh?"
    return manager, old_allocation, outcome


def aelite_recovery_modelled(length: int, old_allocation, new_allocation):
    """The same repair on the aelite baseline: serialized MMIO tear-down
    of both degraded channels, then the full set-up sequence for the
    detour, all over the in-band configuration connections."""
    mesh = build_mesh(length, 2)
    params = aelite_parameters(slot_table_size=SLOT_TABLE_SIZE)
    model = AeliteConfigModel(mesh, params, "NI00")
    cycle = model.teardown_channel_time(old_allocation.forward)
    cycle += model.teardown_channel_time(
        old_allocation.reverse, start_cycle=cycle
    )
    return cycle + model.setup_connection_time(
        new_allocation, start_cycle=cycle
    )


def test_recovery_scales_with_path_length(benchmark):
    def sweep():
        rows = []
        for length in LENGTHS:
            manager, old_allocation, outcome = recover_once(length)
            new_allocation = manager.connections["c"].allocation
            aelite_total = aelite_recovery_modelled(
                length, old_allocation, new_allocation
            )
            rows.append(
                {
                    "mesh": f"{length}x2",
                    "failed_path_hops": len(old_allocation.forward.path)
                    - 1,
                    "path_hops": outcome.path_hops,
                    "teardown_cycles": outcome.teardown_cycles,
                    "setup_cycles": outcome.setup_cycles,
                    "total_cycles": outcome.total_cycles,
                    "aelite_total_cycles": aelite_total,
                    "speedup": aelite_total / outcome.total_cycles,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\nRECOVERY COST vs PATH LENGTH (T={SLOT_TABLE_SIZE}, 2 slots)")
    print(
        f"{'mesh':>5} {'hops':>5} {'teardown':>9} {'setup':>6} "
        f"{'total':>6} {'aelite':>7} {'speedup':>8}"
    )
    for row in rows:
        print(
            f"{row['mesh']:>5} {row['path_hops']:>5} "
            f"{row['teardown_cycles']:>9} {row['setup_cycles']:>6} "
            f"{row['total_cycles']:>6} {row['aelite_total_cycles']:>7} "
            f"{row['speedup']:>7.1f}x"
        )
    # Recovery cost grows with the path length (longer detour = more
    # config words and deeper tree), and stays well under the aelite
    # baseline at every length.
    totals = [row["total_cycles"] for row in rows]
    assert totals == sorted(totals)
    assert totals[-1] > totals[0]
    for row in rows:
        assert row["speedup"] >= 3


def test_recovery_independent_of_slot_count(benchmark):
    """Like set-up (Table III), recovery must not vary with the number
    of slots the connection holds — the packet carries one mask
    regardless."""

    def sweep():
        return [
            (slots, recover_once(3, slots=slots)[2].total_cycles)
            for slots in (1, 2, 4)
        ]

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nrecovery vs slot count (must be flat):")
    for slots, cycles in times:
        print(f"  slots={slots:<2} recovery={cycles} cycles")
    assert len({cycles for _, cycles in times}) == 1
