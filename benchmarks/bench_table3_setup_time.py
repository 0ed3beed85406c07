"""T3 — Regenerate Table III: connection set-up time in cycles.

"Table III presents the number of cycles required to set up one
connection (request and response path).  For daelite, the set-up time is
dependent on path length but not on the number of slots used by the
connection.  For aelite ... the set-up time depends on multiple factors."
The surviving claims (the OCR lost the numeric cells) are the shape: the
daelite/aelite ratio of roughly one order of magnitude, the ideal daelite
value being config-words + cool-down, and the dependence structure.

daelite numbers are *measured* on the cycle simulator (the FPGA
equivalent); the "ideal" column is the analytic word count.  aelite has
three columns: *measured* (real MMIO writes executed over the simulated
aelite network by :class:`repro.aelite.InBandConfigurator`), the
analytic ideal of [12] (no processor time), and the ideal plus a
30-cycle-per-access processor overhead.
"""

from __future__ import annotations

from repro.aelite import AeliteConfigModel
from repro.alloc import ConnectionRequest, SlotAllocator
from repro.analysis import ideal_setup_cycles, setup_speedup
from repro.core import DaeliteNetwork
from repro.params import aelite_parameters, daelite_parameters
from repro.topology import build_config_tree, build_mesh

SLOT_TABLE_SIZE = 16


def daelite_setup_measured(length, slots=2):
    mesh = build_mesh(length, 1)
    params = daelite_parameters(slot_table_size=SLOT_TABLE_SIZE)
    allocator = SlotAllocator(topology=mesh, params=params)
    connection = allocator.allocate_connection(
        ConnectionRequest(
            "c", "NI00", f"NI{length - 1}0", forward_slots=slots
        )
    )
    net = DaeliteNetwork(mesh, params, host_ni="NI00")
    handle = net.host.setup_paths(connection)
    measured = net.run_until_configured(handle)
    tree = build_config_tree(mesh, "NI00")
    ideal = ideal_setup_cycles(
        hops=connection.forward.hops, params=params, tree=tree
    )
    return connection, measured, ideal


def aelite_setup_modelled(length, slots=2, overhead=0):
    mesh = build_mesh(length, 1)
    params = aelite_parameters(slot_table_size=SLOT_TABLE_SIZE)
    allocator = SlotAllocator(topology=mesh, params=params)
    connection = allocator.allocate_connection(
        ConnectionRequest(
            "c", "NI00", f"NI{length - 1}0", forward_slots=slots
        )
    )
    model = AeliteConfigModel(
        mesh, params, "NI00", processor_overhead=overhead
    )
    return model.setup_connection_time(connection)


def aelite_setup_measured(length, slots=2):
    """Real MMIO writes over the simulated aelite NoC (the paper's FPGA
    measurement, for the baseline).  The host sits on an extra NI so
    both endpoints of the measured connection are remote."""
    from repro.aelite import AeliteNetwork, InBandConfigurator

    mesh = build_mesh(length, 1, nis_per_router=2)
    params = aelite_parameters(slot_table_size=SLOT_TABLE_SIZE)
    allocator = SlotAllocator(topology=mesh, params=params)
    network = AeliteNetwork(mesh, params, host_ni="NI00_1")
    configurator = InBandConfigurator(network, allocator)
    connection = allocator.allocate_connection(
        ConnectionRequest(
            "c", "NI00", f"NI{length - 1}0", forward_slots=slots
        )
    )
    cycles, _ = configurator.setup_connection(connection)
    return cycles


def test_table3_setup_time(benchmark):
    def build_rows():
        rows = []
        for length in (2, 3, 4):
            connection, measured, ideal = daelite_setup_measured(length)
            hops = connection.forward.hops
            rows.append(
                (
                    hops,
                    measured,
                    ideal,
                    aelite_setup_measured(length),
                    aelite_setup_modelled(length, overhead=0),
                    aelite_setup_modelled(length, overhead=30),
                )
            )
        return rows

    rows = benchmark(build_rows)
    print("\nTABLE III — CONNECTION SETUP TIME (cycles, T=16)")
    print(
        f"{'hops':>5} {'daelite meas':>13} {'daelite ideal':>14} "
        f"{'aelite meas':>12} {'aelite ideal':>13} "
        f"{'aelite +cpu':>12} {'speedup':>8}"
    )
    for (
        hops,
        measured,
        ideal,
        aelite_meas,
        aelite_ideal,
        aelite_cpu,
    ) in rows:
        print(
            f"{hops:>5} {measured:>13} {ideal:>14} "
            f"{aelite_meas:>12} {aelite_ideal:>13} {aelite_cpu:>12} "
            f"{setup_speedup(measured, aelite_meas):>7.1f}x"
        )
    # Shape assertions: monotone in path length, roughly 10x vs aelite
    # on the *measured* columns.
    measured_times = [row[1] for row in rows]
    assert measured_times == sorted(measured_times)
    for hops, measured, ideal, aelite_meas, *_ in rows:
        assert setup_speedup(measured, aelite_meas) >= 5
        assert measured <= 2 * ideal  # simulator close to the formula


def test_table3_slot_independence(benchmark):
    """daelite set-up time must not vary with the slot count."""

    def sweep():
        times = []
        for slots in (1, 2, 4, 8):
            _, measured, _ = daelite_setup_measured(3, slots=slots)
            times.append((slots, measured))
        return times

    times = benchmark(sweep)
    print("\ndaelite set-up vs slot count (must be flat):")
    for slots, measured in times:
        print(f"  slots={slots:<2} setup={measured} cycles")
    values = {measured for _, measured in times}
    assert len(values) == 1


def test_table3_aelite_slot_dependence(benchmark):
    """aelite set-up grows with the slot count (one write per slot)."""

    def sweep():
        return [
            (slots, aelite_setup_modelled(3, slots=slots))
            for slots in (1, 2, 4, 8)
        ]

    times = benchmark(sweep)
    print("\naelite set-up vs slot count (grows):")
    for slots, cycles in times:
        print(f"  slots={slots:<2} setup={cycles} cycles")
    values = [cycles for _, cycles in times]
    assert values == sorted(values)
    assert values[-1] > values[0]
