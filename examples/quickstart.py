"""Quickstart: bring up a daelite NoC and send guaranteed traffic.

Builds the paper's 2x2-mesh platform, computes a contention-free TDM
schedule for one bidirectional connection, configures the network through
the host's broadcast configuration tree, streams data, and checks the
QoS numbers against the analytical guarantees.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.analysis import (
    guaranteed_bandwidth_words_per_cycle,
    worst_case_latency_cycles,
)
from repro.core import DaeliteNetwork
from repro.params import daelite_parameters
from repro.sim.kernel import VECTOR_MODE
from repro.staticcheck import verify_network_state
from repro.topology import build_mesh
from repro.traffic.generators import CbrGenerator
from repro.traffic.sinks import CheckingSink


def main() -> None:
    # 1. Platform: a 2x2 mesh of routers, one NI per router.
    topology = build_mesh(2, 2)
    params = daelite_parameters(slot_table_size=16)
    print(f"platform: {topology}")

    # 2. Dimensioning: route and slot a connection NI00 -> NI11.
    allocator = SlotAllocator(topology=topology, params=params)
    connection = allocator.allocate_connection(
        ConnectionRequest(
            "quickstart",
            "NI00",
            "NI11",
            forward_slots=4,  # 4/16 of a link = 0.25 words/cycle
            reverse_slots=1,
        )
    )
    print(f"forward path : {' -> '.join(connection.forward.path)}")
    print(f"forward slots: {sorted(connection.forward.slots)} of 16")

    # 3. Configuration: the host writes path + channel packets into the
    #    dedicated 7-bit broadcast tree.
    network = DaeliteNetwork(topology, params, host_ni="NI00")
    handle = network.configure(connection)
    print(
        f"set-up took  : {handle.setup_cycles} cycles "
        f"({handle.config_words} config words in "
        f"{len(handle.requests)} packets)"
    )
    # Model-check the programmed tables against the allocation.
    verify_network_state(network, [handle])
    print("schedule check: router + NI tables match the allocation")

    # 4. Traffic: stream 100 words and drain the destination.
    words = 100
    network.ni("NI00").submit_words(
        handle.forward.src_channel, list(range(words)), "quickstart"
    )
    received = []
    while len(received) < words:
        network.run(2)
        received.extend(
            word.payload
            for word in network.ni("NI11").receive(
                handle.forward.dst_channel
            )
        )
    assert received == list(range(words)), "out-of-order delivery!"

    # 5. QoS check: measured vs guaranteed.
    stats = network.stats.connections["quickstart"]
    bound = worst_case_latency_cycles(connection.forward, params)
    bandwidth = guaranteed_bandwidth_words_per_cycle(
        connection.forward, params
    )
    print(f"delivered    : {stats.ejected}/{words} words, in order")
    print(
        f"latency      : min {stats.min_latency} / max "
        f"{stats.max_latency} cycles (analytical bound {bound})"
    )
    print(f"guaranteed bw: {bandwidth:.3f} words/cycle")
    print(f"words dropped: {network.total_dropped_words}")
    assert stats.max_latency <= bound
    assert network.total_dropped_words == 0

    # 6. Same platform in the vector kernel: flatten the configured
    #    data plane and replay the periodic steady state arithmetically
    #    (REPRO_KERNEL_MODE=vector selects this globally).
    fast = DaeliteNetwork(
        topology, params, host_ni="NI00", kernel_mode=VECTOR_MODE
    )
    fast_handle = fast.configure(connection)
    fast.run_until_configured(fast_handle)
    fast.kernel.add(
        CbrGenerator(
            "gen",
            inject=fast.ni("NI00").injector(
                fast_handle.forward.src_channel, "quickstart"
            ),
            period=8,
            total_words=words,
        )
    )
    sink = CheckingSink(
        "sink",
        receive=fast.ni("NI11").receiver(fast_handle.forward.dst_channel),
        words_per_cycle=2,
        stats=fast.stats,
    )
    fast.kernel.add(sink)
    fast.run(words * 8 + 200)
    kstats = fast.kernel.kernel_stats()
    assert sink.clean
    assert fast.stats.delivered_words("quickstart") == words
    print(
        f"vector run   : {words} words in order; "
        f"{kstats['compiled_cycles']} cycles compiled, "
        f"{kstats['replayed_cycles']} replayed in "
        f"{kstats['replayed_epochs']} epochs"
    )
    print("quickstart OK")


if __name__ == "__main__":
    main()
