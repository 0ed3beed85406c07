"""C6 — Set-up time scaling and serialization.

Three structural properties of daelite's configuration mechanism:

* set-up time grows linearly with path length (2 words per extra hop,
  one cycle per word);
* set-up time is flat in the slot count;
* requests serialize at the configuration module ("a policy of only one
  active request at a time is enforced"), so configuring N connections
  costs ~N times one connection.
"""

from __future__ import annotations

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.params import daelite_parameters
from repro.topology import build_mesh

SLOT_TABLE_SIZE = 16


def test_setup_linear_in_path_length(benchmark):
    def sweep():
        rows = []
        for length in range(2, 7):
            mesh = build_mesh(length, 1)
            params = daelite_parameters(
                slot_table_size=SLOT_TABLE_SIZE
            )
            allocator = SlotAllocator(topology=mesh, params=params)
            conn = allocator.allocate_connection(
                ConnectionRequest(
                    "c", "NI00", f"NI{length - 1}0", forward_slots=2
                )
            )
            net = DaeliteNetwork(mesh, params, host_ni="NI00")
            handle = net.host.setup_paths(conn)
            rows.append(
                (conn.forward.hops, net.run_until_configured(handle))
            )
        return rows

    rows = benchmark(sweep)
    print("\nC6 — SET-UP TIME vs PATH LENGTH (2 path packets, T=16)")
    for hops, cycles in rows:
        print(f"  {hops} hops: {cycles} cycles")
    deltas = [
        (rows[i + 1][1] - rows[i][1])
        / (rows[i + 1][0] - rows[i][0])
        for i in range(len(rows) - 1)
    ]
    print(f"  per-hop increments: {deltas}")
    # Each extra hop adds one (element, ports) pair per packet (2 words
    # per packet, 2 packets) plus tree-depth growth.
    for delta in deltas:
        assert 4 <= delta <= 12


def test_setup_serializes_at_config_module(benchmark):
    def measure():
        mesh = build_mesh(3, 3)
        params = daelite_parameters(slot_table_size=SLOT_TABLE_SIZE)
        allocator = SlotAllocator(topology=mesh, params=params)
        net = DaeliteNetwork(mesh, params, host_ni="NI11")
        pairs = [
            ("NI00", "NI22"),
            ("NI10", "NI02"),
            ("NI20", "NI01"),
            ("NI12", "NI21"),
        ]
        single_times = []
        handles = []
        for index, (src, dst) in enumerate(pairs):
            conn = allocator.allocate_connection(
                ConnectionRequest(f"c{index}", src, dst)
            )
            handles.append(net.host.setup_paths(conn))
        start = net.kernel.cycle
        net.kernel.run_until(
            lambda: all(handle.done for handle in handles),
            max_cycles=100_000,
        )
        total = net.kernel.cycle - start
        return total, handles

    total, handles = benchmark(measure)
    per_connection = [handle.setup_cycles for handle in handles]
    print("\nC6 — SERIALIZED SET-UP OF 4 CONNECTIONS")
    print(f"  total: {total} cycles")
    print(f"  per-connection completion times: {per_connection}")
    # Later connections wait for earlier ones: completion times grow
    # roughly linearly.
    assert per_connection == sorted(per_connection)
    assert per_connection[-1] > 3 * per_connection[0] * 0.7


def test_teardown_cost_similar_to_setup(benchmark):
    """Teardown packets have the same format, hence similar cost."""

    def measure():
        mesh = build_mesh(2, 2)
        params = daelite_parameters(slot_table_size=SLOT_TABLE_SIZE)
        allocator = SlotAllocator(topology=mesh, params=params)
        conn = allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI11", forward_slots=2)
        )
        net = DaeliteNetwork(mesh, params, host_ni="NI00")
        handle = net.configure(conn)
        setup_cycles = handle.setup_cycles
        teardown = net.host.teardown_connection(handle, conn)
        teardown_cycles = net.run_until_configured(teardown)
        return setup_cycles, teardown_cycles

    setup_cycles, teardown_cycles = benchmark(measure)
    print(
        f"\nC6 — full set-up {setup_cycles} vs tear-down "
        f"{teardown_cycles} cycles"
    )
    assert teardown_cycles < setup_cycles
    assert teardown_cycles > setup_cycles / 4
