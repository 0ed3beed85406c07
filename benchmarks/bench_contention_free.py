"""F1 — Contention-free routing (Fig. 1), demonstrated in simulation.

Random contention-free schedules are driven with saturating traffic; the
register-level collision detection of the simulator would throw on any
two words meeting anywhere, and the drop counters catch any word without
a scheduled output.  Zero collisions, zero drops, all words in order —
"packets never collide and never have to wait for each other".

This bench also measures the simulator's own speed (cycles/second) on a
loaded 4x4 mesh, which is the practical cost of the Python substrate.
"""

from __future__ import annotations

from repro.alloc import SlotAllocator, validate_schedule
from repro.core import DaeliteNetwork
from repro.errors import AllocationError
from repro.params import daelite_parameters
from repro.topology import build_mesh
from repro.traffic import random_traffic_pattern

SLOT_TABLE_SIZE = 16


def build_loaded_network(seed=3, pairs=10):
    mesh = build_mesh(4, 4)
    params = daelite_parameters(slot_table_size=SLOT_TABLE_SIZE)
    allocator = SlotAllocator(topology=mesh, params=params)
    nis = [element.name for element in mesh.nis]
    connections = []
    for request in random_traffic_pattern(nis, pairs, seed=seed):
        try:
            connections.append(allocator.allocate_connection(request))
        except AllocationError:
            continue
    validate_schedule(mesh, connections)
    net = DaeliteNetwork(mesh, params, host_ni=nis[0])
    handles = [net.configure(conn) for conn in connections]
    return net, connections, handles


def test_contention_free_under_load(benchmark):
    def run():
        net, connections, handles = build_loaded_network()
        words = 60
        for conn, handle in zip(connections, handles):
            net.ni(conn.forward.src_ni).submit_words(
                handle.forward.src_channel,
                list(range(words)),
                conn.label,
            )
        outstanding = {
            conn.label: (conn.forward.dst_ni, handle)
            for conn, handle in zip(connections, handles)
        }
        for _ in range(30_000):
            net.run(1)
            for label, (dst, handle) in outstanding.items():
                net.ni(dst).receive(handle.forward.dst_channel)
            if all(
                net.stats.delivered_words(conn.label) >= words
                for conn in connections
            ):
                break
        return net, connections, words

    net, connections, words = benchmark(run)
    print(
        f"\nF1 — {len(connections)} concurrent connections, "
        f"{words} words each: dropped={net.total_dropped_words}"
    )
    assert net.total_dropped_words == 0
    for conn in connections:
        assert net.stats.delivered_words(conn.label) == words
    assert not net.stats.undelivered()


def test_space_time_figure(benchmark):
    """Render Fig. 1: words marching through the routers, slot by
    slot, never colliding."""
    from repro.alloc import ConnectionRequest
    from repro.analysis import has_collision, render_space_time
    from repro.sim import Tracer

    def run():
        mesh = build_mesh(2, 2)
        params = daelite_parameters(slot_table_size=8)
        allocator = SlotAllocator(topology=mesh, params=params)
        connection = allocator.allocate_connection(
            ConnectionRequest("fig1", "NI00", "NI11", forward_slots=2)
        )
        tracer = Tracer()
        net = DaeliteNetwork(
            mesh, params, host_ni="NI00", tracer=tracer
        )
        handle = net.configure(connection)
        net.ni("NI00").submit_words(
            handle.forward.src_channel, list(range(6)), "fig1"
        )
        for _ in range(200):
            net.run(1)
            net.ni("NI11").receive(handle.forward.dst_channel)
        return tracer, connection

    tracer, connection = benchmark(run)
    print("\nF1 — CONTENTION-FREE ROUTING (the paper's Fig. 1):")
    print(
        render_space_time(
            tracer, "fig1", list(connection.forward.path)
        )
    )
    assert not has_collision(tracer, "fig1")


def test_simulator_throughput(benchmark):
    """Raw simulator speed on the loaded 4x4 mesh (cycles/call)."""
    net, connections, handles = build_loaded_network()
    for conn, handle in zip(connections, handles):
        net.ni(conn.forward.src_ni).submit_words(
            handle.forward.src_channel, list(range(1000)), conn.label
        )
    sinks = [
        (conn.forward.dst_ni, handle.forward.dst_channel)
        for conn, handle in zip(connections, handles)
    ]

    def run_chunk():
        net.run(50)
        for dst, channel in sinks:
            net.ni(dst).receive(channel)

    benchmark(run_chunk)
