"""One-shot verification of every headline claim of the paper.

``python -m repro.claims`` re-measures, on the cycle simulator, the
quantitative claims of the paper's abstract and Section V, and prints a
paper-vs-measured scorecard.  The heavier full sweeps live in
``benchmarks/``; this module is the two-minute smoke check.

Claims covered:

1. set-up "faster by a factor of 10" vs aelite (both measured),
2. "network traversal latencies decreased by 33%",
3. "no header overhead, which in aelite is between 11% and 33%",
4. aelite's 6.25% config-slot bandwidth loss at T=16 (daelite: none),
5. native multicast: source link paid once, n destinations served,
6. set-up time depends on path length but not slot count,
7. lower area than every Table II competitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from .aelite import AeliteNetwork, InBandConfigurator
from .alloc import (
    ConnectionRequest,
    MulticastRequest,
    SlotAllocator,
)
from .analysis import config_slot_bandwidth_loss, table2_rows
from .core import DaeliteNetwork
from .params import aelite_parameters, daelite_parameters
from .topology import build_mesh


@dataclass
class ClaimResult:
    """One verified claim."""

    name: str
    paper: str
    measured: str
    holds: bool


def _daelite_setup_cycles() -> int:
    mesh = build_mesh(2, 2)
    params = daelite_parameters(slot_table_size=16)
    allocator = SlotAllocator(topology=mesh, params=params)
    connection = allocator.allocate_connection(
        ConnectionRequest("c", "NI00", "NI11", forward_slots=2)
    )
    net = DaeliteNetwork(mesh, params, host_ni="NI00")
    handle = net.host.setup_paths(connection)
    return net.run_until_configured(handle)


def _aelite_setup_cycles() -> int:
    mesh = build_mesh(2, 2, nis_per_router=2)
    params = aelite_parameters(slot_table_size=16)
    allocator = SlotAllocator(topology=mesh, params=params)
    network = AeliteNetwork(mesh, params, host_ni="NI00_1")
    configurator = InBandConfigurator(network, allocator)
    connection = allocator.allocate_connection(
        ConnectionRequest("c", "NI00", "NI11", forward_slots=2)
    )
    cycles, _ = configurator.setup_connection(connection)
    return cycles


def claim_setup_speed() -> ClaimResult:
    daelite = _daelite_setup_cycles()
    aelite = _aelite_setup_cycles()
    ratio = aelite / daelite
    return ClaimResult(
        name="connection set-up time",
        paper="~10x faster than aelite",
        measured=(
            f"daelite {daelite} vs aelite {aelite} cycles "
            f"({ratio:.1f}x)"
        ),
        holds=ratio >= 5,
    )


def _min_latency(kind: str) -> int:
    mesh = build_mesh(2, 2)
    if kind == "daelite":
        params = daelite_parameters(slot_table_size=8)
        allocator = SlotAllocator(topology=mesh, params=params)
        connection = allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI11", forward_slots=2)
        )
        net = DaeliteNetwork(mesh, params)
        handle = net.configure(connection)
        src_channel = handle.forward.src_channel
        dst_channel = handle.forward.dst_channel
    else:
        params = aelite_parameters(slot_table_size=8)
        allocator = SlotAllocator(topology=mesh, params=params)
        connection = allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI11", forward_slots=2)
        )
        net = AeliteNetwork(mesh, params)
        handle = net.install_connection(connection)
        src_channel = handle.forward.src_connection
        dst_channel = handle.forward.dst_queue
    net.ni("NI00").submit_words(src_channel, list(range(6)), "c")
    delivered = 0
    for _ in range(4000):
        net.run(1)
        delivered += len(net.ni("NI11").receive(dst_channel))
        if delivered >= 6:
            break
    return net.stats.connections["c"].min_latency


def claim_traversal_latency() -> ClaimResult:
    daelite = _min_latency("daelite")
    aelite = _min_latency("aelite")
    reduction = 1 - (daelite - 1) / (aelite - 1)
    return ClaimResult(
        name="network traversal latency",
        paper="decreased by 33% (2 vs 3 cycles/hop)",
        measured=(
            f"daelite {daelite} vs aelite {aelite} cycles "
            f"({reduction:.0%} per hop)"
        ),
        holds=abs(reduction - 1 / 3) < 0.01,
    )


def _overhead(kind: str, slots: int) -> float:
    mesh = build_mesh(2, 2)
    words = 120
    if kind == "daelite":
        params = daelite_parameters(
            slot_table_size=8, channel_buffer_words=48
        )
        allocator = SlotAllocator(topology=mesh, params=params)
        connection = allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI11", forward_slots=slots)
        )
        net = DaeliteNetwork(mesh, params)
        handle = net.configure(connection)
        src_channel = handle.forward.src_channel
        dst_channel = handle.forward.dst_channel
    else:
        params = aelite_parameters(
            slot_table_size=8, channel_buffer_words=48
        )
        allocator = SlotAllocator(
            topology=mesh, params=params, policy="first"
        )
        connection = allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI11", forward_slots=slots)
        )
        net = AeliteNetwork(mesh, params)
        handle = net.install_connection(connection)
        src_channel = handle.forward.src_connection
        dst_channel = handle.forward.dst_queue
    net.ni("NI00").submit_words(src_channel, list(range(words)), "c")
    delivered = 0
    for _ in range(30_000):
        net.run(1)
        delivered += len(net.ni("NI11").receive(dst_channel))
        if delivered >= words:
            break
    link_words = net.link("NI00", "R00").words_carried
    return (link_words - words) / link_words


def claim_header_overhead() -> ClaimResult:
    daelite = _overhead("daelite", 2)
    worst = _overhead("aelite", 1)
    best = _overhead("aelite", 3)
    return ClaimResult(
        name="header overhead",
        paper="daelite 0%; aelite 11%..33%",
        measured=(
            f"daelite {daelite:.1%}; aelite {best:.1%}..{worst:.1%}"
        ),
        holds=(
            daelite == 0.0
            and abs(worst - 1 / 3) < 0.02
            and abs(best - 1 / 9) < 0.02
        ),
    )


def claim_config_bandwidth() -> ClaimResult:
    from .aelite import reserve_config_slots

    params = aelite_parameters(slot_table_size=16)
    mesh = build_mesh(2, 2)
    allocator = SlotAllocator(topology=mesh, params=params)
    reserve_config_slots(allocator.ledger, mesh)
    edge = ("NI00", "R00")
    free = sum(
        1 for slot in range(16) if allocator.ledger.is_free(edge, slot)
    )
    loss = (16 - free) / 16
    return ClaimResult(
        name="config-slot bandwidth loss (T=16)",
        paper="aelite 6.25%; daelite none",
        measured=f"aelite {loss:.2%}; daelite dedicated links",
        holds=abs(loss - config_slot_bandwidth_loss(params)) < 1e-9,
    )


def claim_multicast() -> ClaimResult:
    mesh = build_mesh(3, 3)
    params = daelite_parameters(slot_table_size=16)
    allocator = SlotAllocator(topology=mesh, params=params)
    tree = allocator.allocate_multicast(
        MulticastRequest("m", "NI00", ("NI22", "NI20", "NI02"), slots=2)
    )
    net = DaeliteNetwork(mesh, params, host_ni="NI11")
    handle = net.configure_multicast(tree)
    words = 40
    net.ni("NI00").submit_words(
        handle.src_channel, list(range(words)), "m"
    )
    delivered = 0
    for _ in range(4000):
        net.run(1)
        for dst in tree.dst_nis:
            delivered += len(
                net.ni(dst).receive(handle.dst_channels[dst])
            )
        if delivered >= words * 3:
            break
    source_words = net.link("NI00", "R00").words_carried
    return ClaimResult(
        name="multicast",
        paper="tree pays the source link once (unicast: n times)",
        measured=(
            f"{words} words -> 3 destinations, source link carried "
            f"{source_words}"
        ),
        holds=(delivered == words * 3 and source_words == words),
    )


def claim_setup_dependencies() -> ClaimResult:
    params = daelite_parameters(slot_table_size=16)

    def path_setup(length, slots):
        mesh = build_mesh(length, 1)
        allocator = SlotAllocator(topology=mesh, params=params)
        connection = allocator.allocate_connection(
            ConnectionRequest(
                "c", "NI00", f"NI{length - 1}0", forward_slots=slots
            )
        )
        net = DaeliteNetwork(mesh, params, host_ni="NI00")
        handle = net.host.setup_paths(connection)
        return net.run_until_configured(handle)

    by_length = [path_setup(length, 2) for length in (2, 3, 4)]
    by_slots = [path_setup(3, slots) for slots in (1, 4, 8)]
    return ClaimResult(
        name="set-up time dependence",
        paper="depends on path length, not slot count",
        measured=(
            f"by hops {by_length}; by slots {by_slots}"
        ),
        holds=(
            by_length == sorted(by_length)
            and by_length[0] < by_length[-1]
            and len(set(by_slots)) == 1
        ),
    )


def claim_area() -> ClaimResult:
    rows = table2_rows()
    worst = max(
        abs(row.model_reduction - row.paper_reduction) for row in rows
    )
    return ClaimResult(
        name="area (Table II)",
        paper="daelite smaller than all 10 designs",
        measured=(
            f"all 10 rows won; worst model-vs-paper delta "
            f"{worst * 100:.1f}pp"
        ),
        holds=all(row.model_reduction > 0 for row in rows)
        and worst <= 0.03,
    )


ALL_CLAIMS: List[Callable[[], ClaimResult]] = [
    claim_setup_speed,
    claim_traversal_latency,
    claim_header_overhead,
    claim_config_bandwidth,
    claim_multicast,
    claim_setup_dependencies,
    claim_area,
]


def verify_all() -> List[ClaimResult]:
    """Run every claim check; returns the scorecard."""
    return [check() for check in ALL_CLAIMS]


def main() -> int:
    results = verify_all()
    width = max(len(result.name) for result in results)
    print("daelite paper claims — measured on this machine\n")
    for result in results:
        status = "PASS" if result.holds else "FAIL"
        print(f"[{status}] {result.name:<{width}}")
        print(f"        paper:    {result.paper}")
        print(f"        measured: {result.measured}")
    failed = sum(1 for result in results if not result.holds)
    print(
        f"\n{len(results) - failed}/{len(results)} claims reproduced"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
