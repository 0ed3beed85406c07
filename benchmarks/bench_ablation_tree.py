"""A4 — Ablation: host placement and the configuration tree.

"The subset of links forming the configuration tree is chosen in such a
way as to minimize the distance from the host to any of the network
nodes."  A central host halves the broadcast depth on a 5x5 mesh, which
directly shortens every set-up's commit latency.
"""

from __future__ import annotations

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.params import daelite_parameters
from repro.topology import build_config_tree, build_mesh


def setup_cycles_with_host(host):
    mesh = build_mesh(5, 5)
    params = daelite_parameters(slot_table_size=16)
    allocator = SlotAllocator(topology=mesh, params=params)
    conn = allocator.allocate_connection(
        ConnectionRequest("c", "NI00", "NI44", forward_slots=1)
    )
    net = DaeliteNetwork(mesh, params, host_ni=host)
    handle = net.host.setup_paths(conn)
    return net.run_until_configured(handle)


def test_host_placement(benchmark):
    def measure():
        mesh = build_mesh(5, 5)
        corner_tree = build_config_tree(mesh, "NI00")
        center_tree = build_config_tree(mesh, "NI22")
        return (
            corner_tree.max_depth,
            center_tree.max_depth,
            setup_cycles_with_host("NI00"),
            setup_cycles_with_host("NI22"),
        )

    corner_depth, center_depth, corner_setup, center_setup = benchmark(
        measure
    )
    print("\nA4 — HOST PLACEMENT ON A 5x5 MESH")
    print(
        f"  corner host: tree depth {corner_depth}, "
        f"set-up {corner_setup} cycles"
    )
    print(
        f"  centre host: tree depth {center_depth}, "
        f"set-up {center_setup} cycles"
    )
    assert center_depth < corner_depth
    assert center_setup < corner_setup


def test_tree_depth_matches_shortest_distance(benchmark):
    """The BFS tree realizes the distance-minimizing criterion."""

    def check():
        mesh = build_mesh(4, 4)
        tree = build_config_tree(mesh, "NI11")
        mismatches = 0
        for name in mesh.elements:
            shortest = len(mesh.shortest_path("NI11", name)) - 1
            if tree.depth[name] != shortest:
                mismatches += 1
        return mismatches

    mismatches = benchmark(check)
    assert mismatches == 0
