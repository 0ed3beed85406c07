"""Network-size scaling within the 7-bit addressing envelope.

The 7-bit configuration word addresses "networks with up to 64 network
elements"; this bench sweeps mesh sizes up to that envelope (5x5 = 50
elements) and reports how set-up time and configuration-tree depth
scale, then carries the sweep past it with wider configuration words.
"""

from __future__ import annotations

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.params import daelite_parameters
from repro.topology import build_mesh, ni_name


def corner_to_corner_setup(side, config_word_bits=7):
    mesh = build_mesh(side, side)
    params = daelite_parameters(
        slot_table_size=16, config_word_bits=config_word_bits
    )
    allocator = SlotAllocator(topology=mesh, params=params)
    dst = ni_name(side - 1, side - 1)
    conn = allocator.allocate_connection(
        ConnectionRequest("c", "NI00", dst, forward_slots=1)
    )
    net = DaeliteNetwork(mesh, params, host_ni="NI00")
    handle = net.host.setup_paths(conn)
    cycles = net.run_until_configured(handle)
    return (
        len(mesh.elements),
        net.config_tree.max_depth,
        conn.forward.hops,
        cycles,
    )


def test_setup_scaling_with_network_size(benchmark):
    def sweep():
        return [corner_to_corner_setup(side) for side in (2, 3, 4, 5)]

    rows = benchmark(sweep)
    print("\nSCALABILITY — corner-to-corner set-up vs mesh size (T=16)")
    print(
        f"{'elements':>9} {'tree depth':>11} {'hops':>5} {'set-up':>7}"
    )
    for elements, depth, hops, cycles in rows:
        print(f"{elements:>9} {depth:>11} {hops:>5} {cycles:>7}")
    cycles = [row[3] for row in rows]
    assert cycles == sorted(cycles)
    # Even at the 64-element envelope, set-up stays ~100 cycles —
    # the basis for "fast connection set-up" at scale.
    assert cycles[-1] < 150


def test_setup_scaling_to_16x16_with_wider_words(benchmark):
    """Beyond the paper's 7-bit envelope: 11-bit configuration words
    address up to 1024 elements, so the same set-up machinery carries
    unchanged to a 16x16 mesh (512 elements)."""

    def sweep():
        return [
            corner_to_corner_setup(side, config_word_bits=11)
            for side in (8, 12, 16)
        ]

    rows = benchmark(sweep)
    print("\nSCALABILITY — corner-to-corner set-up, 11-bit words (T=16)")
    print(
        f"{'elements':>9} {'tree depth':>11} {'hops':>5} {'set-up':>7}"
    )
    for elements, depth, hops, cycles in rows:
        print(f"{elements:>9} {depth:>11} {hops:>5} {cycles:>7}")
    assert rows[-1][0] == 512
    cycles = [row[3] for row in rows]
    assert cycles == sorted(cycles)
    # Set-up grows only with path length (+~8 cycles/hop, Table III),
    # never with element count — the fast-set-up claim survives 8x the
    # paper's addressing envelope.
    assert cycles[-1] < 500


def test_addressing_envelope_enforced(benchmark):
    """A 6x6 mesh (72 elements) exceeds the 7-bit addressing limit."""

    def check():
        mesh = build_mesh(6, 6)
        params = daelite_parameters(slot_table_size=16)
        try:
            DaeliteNetwork(mesh, params)
        except Exception as error:
            return type(error).__name__
        return None

    error_name = benchmark(check)
    print(f"\n6x6 mesh rejected with: {error_name}")
    assert error_name == "TopologyError"
