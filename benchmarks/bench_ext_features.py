"""Extension benches: pipelined links and channel trees.

* Pipelined links (the paper's mesochronous future work): latency grows
  by exactly one wheel-slot per link-delay slot; schedules stay
  contention-free; the configuration protocol bridges delays with
  padding pairs at 2 words per delay slot.
* Channel trees ([13], excluded from daelite): slots saved vs the
  guarantee violation they cause — quantifying the paper's design
  decision.
"""

from __future__ import annotations

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.analysis import worst_case_latency_cycles
from repro.core import DaeliteNetwork
from repro.ext import PipelinedDaeliteNetwork, SharedChannel
from repro.params import daelite_parameters
from repro.topology import build_mesh


def pipelined_latency(delay_slots):
    params = daelite_parameters(slot_table_size=8)
    topology = build_mesh(2, 2)
    delays = (
        {("R00", "R01"): delay_slots, ("R01", "R00"): delay_slots}
        if delay_slots
        else {}
    )
    network = PipelinedDaeliteNetwork(
        topology, params, host_ni="NI00", link_extra_slots=delays
    )
    allocator = SlotAllocator(topology=topology, params=params)
    connection = network.allocate_connection(
        allocator,
        ConnectionRequest("c", "NI00", "NI01", forward_slots=2),
    )
    handle = network.configure_pipelined(connection)
    network.ni("NI00").submit_words(
        handle.forward.src_channel, list(range(10)), "c"
    )
    received = 0
    for _ in range(4000):
        network.run(1)
        received += len(
            network.ni("NI01").receive(handle.forward.dst_channel)
        )
        if received == 10:
            break
    return network.stats.connections["c"].min_latency


def test_pipelined_link_latency(benchmark):
    def sweep():
        return [
            (delay, pipelined_latency(delay)) for delay in (0, 1, 2, 3)
        ]

    rows = benchmark(sweep)
    params = daelite_parameters(slot_table_size=8)
    print("\nEXT — PIPELINED LINK: latency vs extra link delay (2 hops)")
    for delay, latency in rows:
        print(f"  +{delay} slots on R00-R01: min latency {latency}")
    base = rows[0][1]
    for delay, latency in rows:
        assert latency == base + delay * params.words_per_slot


def shared_channel_outcome(flows):
    """Latency of a single conforming word (the 'victim') on a channel
    shared with ``flows - 1`` flooding competitors."""
    params = daelite_parameters(slot_table_size=16)
    topology = build_mesh(2, 2)
    allocator = SlotAllocator(topology=topology, params=params)
    connection = allocator.allocate_connection(
        ConnectionRequest("tree", "NI00", "NI11", forward_slots=2)
    )
    network = DaeliteNetwork(topology, params)
    handle = network.configure(connection)
    shared = SharedChannel("tree", network, handle, flows=flows)
    network.kernel.add(shared)
    for competitor in range(1, flows):
        for payload in range(30):
            shared.submit(competitor, payload)
    network.run(4)
    shared.submit(0, 7)
    network.kernel.run_until(
        lambda: shared.stats[0].delivered == 1, max_cycles=60_000
    )
    victim_latency = shared.stats[0].max_latency
    bound = worst_case_latency_cycles(connection.forward, params)
    slots_saved = (flows - 1) * len(connection.forward.slots)
    return victim_latency, bound, slots_saved


def test_channel_tree_tradeoff(benchmark):
    def sweep():
        return [
            (flows, *shared_channel_outcome(flows))
            for flows in (1, 2, 4)
        ]

    rows = benchmark(sweep)
    print(
        "\nEXT — CHANNEL TREES: slots saved vs a conforming flow's "
        "latency (2-slot channel, T=16)"
    )
    print(
        f"{'flows':>6} {'victim lat':>10} {'bound':>6} "
        f"{'saved slots':>12}"
    )
    for flows, worst, bound, saved in rows:
        marker = "OK" if worst <= bound else "GUARANTEE BROKEN"
        print(
            f"{flows:>6} {worst:>10} {bound:>6} {saved:>12}   {marker}"
        )
    # One flow: guarantee holds.  Shared: guarantee broken — the
    # paper's reason for rejecting channel trees in a GS-only NoC.
    single = rows[0]
    assert single[1] <= single[2] + 2
    for flows, worst, bound, saved in rows[1:]:
        assert worst > bound
        assert saved > 0
