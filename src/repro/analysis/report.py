"""Human-readable reports of schedules and live network state.

Tool-flow ergonomics: dump slot tables like the paper's Fig. 6/7
drawings, summarize link utilization, and describe each connection's
guarantees.  Everything renders to plain text so reports work in logs
and CI output.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..alloc.spec import (
    AllocatedChannel,
    AllocatedConnection,
)
from ..alloc.validate import Allocation, schedule_link_loads
from ..params import NetworkParameters
from .bounds import (
    guaranteed_bandwidth_words_per_cycle,
    worst_case_latency_cycles,
)

if TYPE_CHECKING:  # pragma: no cover - annotation only; a runtime import
    # would close the cycle core.network -> core.host -> alloc -> analysis.
    from ..core.network import DaeliteNetwork


def render_router_slot_table(network: DaeliteNetwork, name: str) -> str:
    """ASCII rendering of one router's slot table.

    Rows are output ports, columns are slots; a cell holds the feeding
    input port or '.' when idle — the layout of the paper's router
    figures.
    """
    router = network.router(name)
    size = network.params.slot_table_size
    lines = [f"router {name} (ports={router.ports}, T={size})"]
    header = "  out\\slot " + " ".join(f"{slot:>2}" for slot in range(size))
    lines.append(header)
    for output in range(router.ports):
        cells = []
        for slot in range(size):
            entry = router.slot_table.entry(output, slot)
            cells.append(f"{entry if entry is not None else '.':>2}")
        neighbor = router.element.neighbors[output]
        lines.append(f"  {output:>3} {' '.join(cells)}   -> {neighbor}")
    return "\n".join(lines)


def render_ni_tables(network: DaeliteNetwork, name: str) -> str:
    """ASCII rendering of an NI's injection and arrival tables."""
    ni = network.ni(name)
    size = network.params.slot_table_size
    lines = [f"NI {name} (T={size})"]
    for label, table in (
        ("inject", ni.injection_table),
        ("arrive", ni.arrival_table),
    ):
        cells = []
        for slot in range(size):
            channel = table.channel(slot)
            cells.append(f"{channel if channel is not None else '.':>2}")
        lines.append(f"  {label:>6} {' '.join(cells)}")
    return "\n".join(lines)


def render_link_utilization(
    allocations: Iterable[Allocation],
    params: NetworkParameters,
    top: Optional[int] = None,
) -> str:
    """Per-link slot utilization of a schedule, busiest first."""
    loads = schedule_link_loads(allocations, params.slot_table_size)
    ordered = sorted(loads.items(), key=lambda item: -item[1])
    if top is not None:
        ordered = ordered[:top]
    lines = ["link utilization (claimed slots / T)"]
    for (src, dst), load in ordered:
        bar = "#" * round(load * 20)
        lines.append(f"  {src:>8} -> {dst:<8} {load:>6.1%} {bar}")
    return "\n".join(lines)


def describe_channel(
    channel: AllocatedChannel, params: NetworkParameters
) -> str:
    """One-channel guarantee summary."""
    bandwidth = guaranteed_bandwidth_words_per_cycle(channel, params)
    latency = worst_case_latency_cycles(channel, params)
    mbps = (
        bandwidth
        * params.word_width_bits
        * params.frequency_mhz
        / 8.0
    )
    return (
        f"channel {channel.label!r}: "
        f"{' -> '.join(channel.path)} | slots "
        f"{sorted(channel.slots)}/{channel.slot_table_size} | "
        f"guaranteed {bandwidth:.3f} words/cycle "
        f"({mbps:.0f} MB/s @ {params.frequency_mhz:.0f} MHz) | "
        f"worst-case latency {latency} cycles"
    )


def describe_allocation(
    allocation: Allocation, params: NetworkParameters
) -> str:
    """Guarantee summary for a channel, connection, or multicast."""
    if isinstance(allocation, AllocatedChannel):
        return describe_channel(allocation, params)
    if isinstance(allocation, AllocatedConnection):
        return "\n".join(
            [
                f"connection {allocation.label!r}:",
                "  " + describe_channel(allocation.forward, params),
                "  " + describe_channel(allocation.reverse, params),
            ]
        )
    lines = [f"multicast {allocation.label!r}:"]
    for branch in allocation.paths:
        lines.append("  " + describe_channel(branch, params))
    return "\n".join(lines)


def network_summary(network: DaeliteNetwork) -> str:
    """Live-state overview: elements, occupancy, drop counters."""
    params = network.params
    used_router_entries = sum(
        1
        for router in network.routers.values()
        for output in range(router.ports)
        for slot in range(params.slot_table_size)
        if router.slot_table.entry(output, slot) is not None
    )
    total_router_entries = sum(
        router.ports * params.slot_table_size
        for router in network.routers.values()
    )
    lines = [
        f"daelite network {network.topology.name!r}: "
        f"{len(network.routers)} routers, {len(network.nis)} NIs, "
        f"T={params.slot_table_size}",
        f"  host: {network.host_element} "
        f"(config tree depth {network.config_tree.max_depth})",
        f"  router slot entries in use: {used_router_entries}"
        f"/{total_router_entries}",
        f"  words dropped: {network.total_dropped_words}",
        f"  cycle: {network.kernel.cycle}",
    ]
    return "\n".join(lines)
