"""aelite's in-band, centralized configuration — and its cost.

aelite (the GS-only Æthereal) is configured by the host through memory-
mapped reads and writes to NI registers, carried over the data network
itself on connections that "reserve at least one slot on each of the
NI-router and router-NI links for configuration traffic.  For a slot
wheel size of 16 this is a 6.25% loss of data bandwidth."

This module provides:

* :func:`reserve_config_slots` — claims the reserved slot on every NI
  link in the allocator's :class:`~repro.alloc.slot_alloc.LinkSlotLedger`
  (the one ledger), so data allocation sees the reduced capacity (the C3
  bandwidth experiment);
* :class:`AeliteConfigModel` — a cycle-count model of connection set-up
  and tear-down over those reserved slots.  Each register access waits
  for the next reserved-slot occurrence (up to a full TDM wheel), plus
  network traversal at 3 cycles/hop; accesses serialize on the single
  host config channel; the sequence ends with a read that round-trips to
  guarantee completion (this is the "ideal" measure of [12], counting
  "only the actual read and writes").  A per-access processor overhead
  models the non-ideal configuration code execution time.

The data-path simulator (:mod:`repro.aelite.network`) programs NI state
directly; the configuration *timing* comes from this model.  DESIGN.md
records this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..alloc.slot_alloc import LinkSlotLedger
from ..alloc.spec import AllocatedChannel, AllocatedConnection
from ..errors import ConfigurationError
from ..params import NetworkParameters
from ..topology import ElementKind, Topology

#: Ledger label under which the reserved configuration slots are claimed.
CONFIG_LABEL = "__aelite_config__"


def reserve_config_slots(
    ledger: LinkSlotLedger,
    topology: Topology,
    slot: int = 0,
) -> int:
    """Claim the reserved config slot on every NI-router link pair,
    one per-slot :meth:`~repro.alloc.slot_alloc.LinkSlotLedger.claim`
    per direction, under :data:`CONFIG_LABEL`.

    Returns the number of (link, slot) pairs claimed.
    """
    claimed = 0
    for ni in topology.nis:
        router = topology.ni_router(ni.name)
        ledger.claim((ni.name, router), slot, CONFIG_LABEL)
        ledger.claim((router, ni.name), slot, CONFIG_LABEL)
        claimed += 2
    return claimed


@dataclass
class ConfigAccess:
    """One memory-mapped access in a set-up sequence (for reporting)."""

    kind: str  # "write" or "read"
    target_ni: str
    issued_at: int
    completed_at: int

    @property
    def latency(self) -> int:
        return self.completed_at - self.issued_at


class AeliteConfigModel:
    """Cycle-count model of aelite's MMIO configuration over the NoC.

    Attributes:
        topology: Used for host-to-NI hop distances.
        params: aelite parameters (wheel size, words per slot, hop cost).
        host_ni: The NI whose attached processor runs the config code.
        processor_overhead: Cycles of configuration-code execution per
            access (0 = the "ideal" value of [12]).
    """

    def __init__(
        self,
        topology: Topology,
        params: NetworkParameters,
        host_ni: str,
        processor_overhead: int = 0,
    ) -> None:
        if topology.element(host_ni).kind is not ElementKind.NI:
            raise ConfigurationError(f"host {host_ni!r} must be an NI")
        self.topology = topology
        self.params = params
        self.host_ni = host_ni
        self.processor_overhead = processor_overhead

    # -- primitive timing --------------------------------------------------------

    def hops_to(self, ni_name: str) -> int:
        """Routers between the host NI and ``ni_name``."""
        path = self.topology.shortest_path(self.host_ni, ni_name)
        return len(path) - 2

    def _traversal(self, hops: int) -> int:
        """Network traversal cycles over ``hops`` routers (+1 for the
        final NI input stage, as in daelite's latency accounting)."""
        return self.params.hop_cycles * hops + 1

    def _next_slot_wait(self, cycle: int) -> int:
        """Worst-case wait for the next reserved-slot occurrence.

        The reserved slot recurs once per wheel; without knowledge of the
        phase we charge the expected worst case of a full revolution on
        first use and exactly one wheel between consecutive uses.
        """
        return self.params.wheel_cycles

    def write(self, target_ni: str, cycle: int) -> ConfigAccess:
        """One posted write from the host to a remote NI register."""
        issue = cycle + self.processor_overhead
        inject = issue + self._next_slot_wait(issue)
        arrive = inject + self._traversal(self.hops_to(target_ni))
        return ConfigAccess(
            kind="write",
            target_ni=target_ni,
            issued_at=cycle,
            completed_at=arrive,
        )

    def read(self, target_ni: str, cycle: int) -> ConfigAccess:
        """One read round trip (request out, response back)."""
        request = self.write(target_ni, cycle)
        respond = request.completed_at + self._next_slot_wait(
            request.completed_at
        )
        back = respond + self._traversal(self.hops_to(target_ni))
        return ConfigAccess(
            kind="read",
            target_ni=target_ni,
            issued_at=cycle,
            completed_at=back,
        )

    # -- set-up sequences -----------------------------------------------------------

    def channel_write_plan(
        self, channel: AllocatedChannel
    ) -> List[Tuple[str, str]]:
        """(kind, target) sequence to set up one channel.

        Source NI: path register, one slot-table write per slot, the
        credit counter, and the enable flag.  Destination NI: queue
        mapping and enable.  A final read from the source NI flushes the
        sequence ("the actual read and writes" of [12]).
        """
        accesses: List[Tuple[str, str]] = []
        accesses.append(("write", channel.src_ni))  # path register
        for _ in sorted(channel.slots):  # slot-table entries
            accesses.append(("write", channel.src_ni))
        accesses.append(("write", channel.src_ni))  # credit counter
        accesses.append(("write", channel.dst_ni))  # queue mapping
        accesses.append(("write", channel.dst_ni))  # queue enable
        accesses.append(("write", channel.src_ni))  # channel enable
        return accesses

    def setup_channel_time(
        self, channel: AllocatedChannel, start_cycle: int = 0
    ) -> Tuple[int, List[ConfigAccess]]:
        """Cycles to set up one channel; accesses serialize at the host.

        Returns (total cycles, per-access breakdown).
        """
        cycle = start_cycle
        log: List[ConfigAccess] = []
        for kind, target in self.channel_write_plan(channel):
            access = (
                self.write(target, cycle)
                if kind == "write"
                else self.read(target, cycle)
            )
            log.append(access)
            # Writes are posted but share the single reserved slot: the
            # next access cannot inject before the previous one did.
            cycle = access.completed_at - self._traversal(
                self.hops_to(target)
            )
        final = self.read(channel.src_ni, cycle)
        log.append(final)
        return final.completed_at - start_cycle, log

    def setup_connection_time(
        self, connection: AllocatedConnection, start_cycle: int = 0
    ) -> int:
        """Cycles to set up both channels of a connection."""
        forward_time, log = self.setup_channel_time(
            connection.forward, start_cycle
        )
        # The reverse channel's sequence starts after the forward one's
        # last injection; its final read is shared (one read flushes
        # everything), so drop the forward channel's read.
        resume = log[-2].completed_at - self._traversal(
            self.hops_to(log[-2].target_ni)
        )
        reverse_time, _ = self.setup_channel_time(
            connection.reverse, resume
        )
        return (resume + reverse_time) - start_cycle

    def teardown_channel_time(
        self, channel: AllocatedChannel, start_cycle: int = 0
    ) -> int:
        """Cycles to tear down one channel (disable, clear slots, read)."""
        cycle = start_cycle
        cycle = self.write(channel.src_ni, cycle).completed_at - (
            self._traversal(self.hops_to(channel.src_ni))
        )
        for _ in sorted(channel.slots):
            cycle = self.write(channel.src_ni, cycle).completed_at - (
                self._traversal(self.hops_to(channel.src_ni))
            )
        final = self.read(channel.src_ni, cycle)
        return final.completed_at - start_cycle
