"""Cycle-accurate in-band configuration of aelite — measured, not modelled.

:mod:`repro.aelite.config` *models* the cost of aelite's MMIO
configuration.  This module *executes* it on the simulator: the host's
processor issues memory-mapped writes through a real
:class:`~repro.shells.InitiatorShell`, the request messages travel over
dedicated configuration connections of the simulated aelite network
(one TDM slot per direction, the paper's "reserved ... for
configuration traffic"), and a :class:`ConfigSlave` behind a
:class:`~repro.shells.TargetShell` at each remote NI decodes the writes
into slot-table entries, path registers, credit counters and enables.
A final read from the last-written NI flushes the sequence — "the
actual read and writes" of [12].

The measured set-up times land in the same regime as the model and are
the real Table III comparison point for daelite's measured times.

Register map of one aelite NI (word addresses, local to that NI):

====================  ====================================================
``0x000 + 4*c``       path register of source connection *c*
                      (bit 28..24 hop count, 3 bits per output port)
``0x100 + 4*s``       injection slot-table entry for slot *s*
                      (0 = idle, otherwise connection index + 1)
``0x200 + 4*c``       credit counter of connection *c*
``0x280 + 4*c``       destination queue id used by connection *c*
``0x300 + 4*c``       paired arrival queue of connection *c*
``0x380 + 4*c``       enable of connection *c* (bit0 en, bit1 fc)
``0x400 + 4*q``       paired source connection of queue *q* + enable
``0x7FC``             status register (reads back the write count)
====================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..alloc.slot_alloc import SlotAllocator
from ..alloc.spec import AllocatedChannel, AllocatedConnection
from ..core.config_protocol import FLAG_ENABLED, FLAG_FLOW_CONTROLLED
from ..errors import ConfigurationError, TrafficError
from ..shells import (
    InitiatorShell,
    TargetShell,
    aelite_ports,
)
from .network import AeliteNetwork

_PATH_BASE = 0x000
_SLOT_BASE = 0x100
_CREDIT_BASE = 0x200
_QUEUE_BASE = 0x280
_PAIRED_BASE = 0x300
_ENABLE_BASE = 0x380
_QUEUE_CFG_BASE = 0x400
_STATUS_ADDR = 0x7FC


def encode_path(ports: Tuple[int, ...]) -> int:
    """Pack an output-port sequence into a path register value."""
    if len(ports) > 8:
        raise ConfigurationError("path register holds at most 8 hops")
    value = len(ports) << 24
    for index, port in enumerate(ports):
        if not 0 <= port <= 6:
            raise ConfigurationError(f"port {port} outside 0..6")
        value |= port << (3 * index)
    return value


def decode_path(value: int) -> Tuple[int, ...]:
    """Inverse of :func:`encode_path`."""
    count = (value >> 24) & 0xF
    return tuple((value >> (3 * index)) & 0b111 for index in range(count))


class ConfigSlave:
    """The register file behind a remote aelite NI's config port.

    Duck-typed like :class:`~repro.shells.MemorySlave` so a stock
    :class:`~repro.shells.TargetShell` can drive it.
    """

    def __init__(self, ni) -> None:
        self.ni = ni
        self.writes_applied = 0

    # -- MemorySlave-compatible interface --------------------------------------

    def write(self, address: int, data: List[int]) -> None:
        for offset, value in enumerate(data):
            self._write_word(address + 4 * offset, value)

    def read(self, address: int, length: int) -> List[int]:
        if address == _STATUS_ADDR:
            return [self.writes_applied] + [0] * (length - 1)
        raise TrafficError(
            f"config slave of {self.ni.name}: unreadable address "
            f"{address:#x}"
        )

    # -- decoding ----------------------------------------------------------------

    def _write_word(self, address: int, value: int) -> None:
        self.writes_applied += 1
        if _PATH_BASE <= address < _SLOT_BASE:
            index = (address - _PATH_BASE) // 4
            self.ni.source(index).path_ports = decode_path(value)
        elif _SLOT_BASE <= address < _CREDIT_BASE:
            slot = (address - _SLOT_BASE) // 4
            if value == 0:
                self.ni.injection_table.clear_slot(slot)
            else:
                self.ni.injection_table.set_slot(slot, value - 1)
        elif _CREDIT_BASE <= address < _QUEUE_BASE:
            index = (address - _CREDIT_BASE) // 4
            self.ni.source(index).credit_counter = value
        elif _QUEUE_BASE <= address < _PAIRED_BASE:
            index = (address - _QUEUE_BASE) // 4
            self.ni.source(index).dest_queue = value
        elif _PAIRED_BASE <= address < _ENABLE_BASE:
            index = (address - _PAIRED_BASE) // 4
            self.ni.source(index).paired_arrival = value
        elif _ENABLE_BASE <= address < _QUEUE_CFG_BASE:
            index = (address - _ENABLE_BASE) // 4
            source = self.ni.source(index)
            source.enabled = bool(value & FLAG_ENABLED)
            source.flow_controlled = bool(
                value & FLAG_FLOW_CONTROLLED
            )
        elif _QUEUE_CFG_BASE <= address < _STATUS_ADDR:
            queue = (address - _QUEUE_CFG_BASE) // 4
            endpoint = self.ni.queue_endpoint(queue)
            endpoint.paired_source = value & 0xFF
            endpoint.flags = (value >> 8) & 0xFF
        else:
            raise TrafficError(
                f"config slave of {self.ni.name}: unmapped address "
                f"{address:#x}"
            )


@dataclass
class _ConfigPlaneLink:
    """Host-side master and channel bookkeeping for one remote NI."""

    master: InitiatorShell
    connection: AllocatedConnection


class InBandConfigurator:
    """Host-processor software configuring aelite over the NoC itself.

    Construction installs one bidirectional config connection from the
    host NI to every remote NI (1 slot per direction — the reserved
    configuration slots) and hangs the shells off the kernel.  The
    :meth:`setup_connection` / :meth:`teardown_channel` methods then
    execute real write/read sequences and return measured cycle counts.
    """

    def __init__(
        self,
        network: AeliteNetwork,
        allocator: SlotAllocator,
        host_ni: Optional[str] = None,
    ) -> None:
        self.network = network
        self.allocator = allocator
        self.host_ni = host_ni or network.host_element
        self.links: Dict[str, _ConfigPlaneLink] = {}
        self.slaves: Dict[str, ConfigSlave] = {}
        self._install_config_plane()

    def _install_config_plane(self) -> None:
        from ..alloc.spec import ConnectionRequest

        for element in self.network.topology.nis:
            remote = element.name
            if remote == self.host_ni:
                continue
            connection = self.allocator.allocate_connection(
                ConnectionRequest(
                    f"__cfg_{remote}",
                    self.host_ni,
                    remote,
                    forward_slots=1,
                    reverse_slots=1,
                )
            )
            handle = self.network.install_connection(connection)
            master = InitiatorShell(
                f"cfgmaster.{remote}",
                aelite_ports(
                    self.network.ni(self.host_ni),
                    source_connection=handle.forward.src_connection,
                    arrive_queue=handle.reverse.dst_queue,
                    label=f"__cfg_{remote}",
                ),
            )
            slave = ConfigSlave(self.network.ni(remote))
            target = TargetShell(
                f"cfgslave.{remote}",
                aelite_ports(
                    self.network.ni(remote),
                    source_connection=handle.reverse.src_connection,
                    arrive_queue=handle.forward.dst_queue,
                    label=f"__cfg_{remote}.resp",
                ),
                slave,
            )
            self.network.kernel.add(master)
            self.network.kernel.add(target)
            self.links[remote] = _ConfigPlaneLink(
                master=master, connection=connection
            )
            self.slaves[remote] = slave

    # -- primitive accesses -----------------------------------------------------

    def _master(self, remote: str) -> InitiatorShell:
        try:
            return self.links[remote].master
        except KeyError:
            raise ConfigurationError(
                f"no config connection to {remote!r} (is it the host?)"
            ) from None

    def write(self, remote: str, address: int, value: int) -> None:
        """Posted 1-word write to a remote NI register."""
        self._master(remote).write(address, [value])

    def flush(self, remote: str, max_cycles: int = 50_000) -> int:
        """Read the remote status register; returns its value."""
        result = self._master(remote).read(_STATUS_ADDR, 1)
        self.network.kernel.run_until(
            lambda: result.done, max_cycles=max_cycles
        )
        return result.data[0]

    # -- set-up sequences ---------------------------------------------------------

    def _channel_writes(
        self,
        channel: AllocatedChannel,
        src_connection: int,
        dst_queue: int,
        paired_arrival: int,
        paired_source: int,
    ) -> None:
        """Issue the write sequence for one channel (posted)."""
        src = channel.src_ni
        dst = channel.dst_ni
        path_ports = []
        for position in range(1, len(channel.path) - 1):
            element = self.network.topology.element(
                channel.path[position]
            )
            path_ports.append(
                element.port_to(channel.path[position + 1])
            )
        self.write(
            src,
            _PATH_BASE + 4 * src_connection,
            encode_path(tuple(path_ports)),
        )
        for slot in sorted(channel.slots):
            self.write(
                src, _SLOT_BASE + 4 * slot, src_connection + 1
            )
        self.write(
            src,
            _CREDIT_BASE + 4 * src_connection,
            self.network.params.channel_buffer_words,
        )
        self.write(
            src, _QUEUE_BASE + 4 * src_connection, dst_queue
        )
        self.write(
            src, _PAIRED_BASE + 4 * src_connection, paired_arrival
        )
        flags = FLAG_ENABLED | FLAG_FLOW_CONTROLLED
        self.write(
            dst,
            _QUEUE_CFG_BASE + 4 * dst_queue,
            (flags << 8) | paired_source,
        )
        self.write(
            src, _ENABLE_BASE + 4 * src_connection, flags
        )

    def setup_connection(
        self, connection: AllocatedConnection
    ) -> Tuple[int, "AeliteMeasuredHandle"]:
        """Execute the full set-up over the NoC; returns
        (measured cycles, endpoint handle)."""
        if connection.forward.src_ni == self.host_ni or (
            connection.reverse.src_ni == self.host_ni
        ):
            # Host-local registers would be written directly in real
            # hardware; for uniform measurement we require remote ends.
            raise ConfigurationError(
                "measured set-up expects both endpoints remote from "
                "the host"
            )
        network = self.network
        start = network.kernel.cycle
        fwd_src = network._next_source.get(
            connection.forward.src_ni, 0
        )
        network._next_source[connection.forward.src_ni] = fwd_src + 1
        fwd_dst = network._next_queue.get(connection.forward.dst_ni, 0)
        network._next_queue[connection.forward.dst_ni] = fwd_dst + 1
        rev_src = network._next_source.get(
            connection.reverse.src_ni, 0
        )
        network._next_source[connection.reverse.src_ni] = rev_src + 1
        rev_dst = network._next_queue.get(connection.reverse.dst_ni, 0)
        network._next_queue[connection.reverse.dst_ni] = rev_dst + 1
        self._channel_writes(
            connection.forward,
            src_connection=fwd_src,
            dst_queue=fwd_dst,
            paired_arrival=rev_dst,
            paired_source=rev_src,
        )
        self._channel_writes(
            connection.reverse,
            src_connection=rev_src,
            dst_queue=rev_dst,
            paired_arrival=fwd_dst,
            paired_source=fwd_src,
        )
        self.flush(connection.forward.src_ni)
        elapsed = network.kernel.cycle - start
        handle = AeliteMeasuredHandle(
            label=connection.label,
            fwd_src_connection=fwd_src,
            fwd_dst_queue=fwd_dst,
            rev_src_connection=rev_src,
            rev_dst_queue=rev_dst,
        )
        return elapsed, handle

    def teardown_channel(self, channel: AllocatedChannel, src_connection: int) -> int:
        """Disable + clear slot entries + flushing read; measured."""
        start = self.network.kernel.cycle
        self.write(
            channel.src_ni, _ENABLE_BASE + 4 * src_connection, 0
        )
        for slot in sorted(channel.slots):
            self.write(channel.src_ni, _SLOT_BASE + 4 * slot, 0)
        self.flush(channel.src_ni)
        return self.network.kernel.cycle - start


@dataclass(frozen=True)
class AeliteMeasuredHandle:
    """Endpoint indices of an in-band-configured connection."""

    label: str
    fwd_src_connection: int
    fwd_dst_queue: int
    rev_src_connection: int
    rev_dst_queue: int
