"""The host controller: turns allocations into configuration requests.

"A typical usage scenario is that the required connections are set up
before starting an application or an execution phase of an application."
The host IP owns the configuration module; this class models the host's
driver software: it assigns NI channel indices, compiles
:class:`~repro.alloc.spec.AllocatedConnection` /
:class:`~repro.alloc.spec.AllocatedMulticast` objects into configuration
packets, submits them, and tracks completion so set-up and tear-down
times can be measured exactly.

Packet order for a connection follows the safety rule implied by the
paper's destination-first encoding: everything downstream is configured
before the source channel is finally enabled, so no word is ever sent
into an unconfigured path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..alloc.spec import (
    AllocatedChannel,
    AllocatedConnection,
    AllocatedMulticast,
)
from ..errors import ConfigurationError
from ..params import NetworkParameters
from ..topology import Topology
from .config_network import ConfigModule, ConfigRequest
from .config_protocol import (
    ChannelField,
    ConfigPacket,
    Direction,
    FLAG_ENABLED,
    FLAG_FLOW_CONTROLLED,
    build_bus_config_packet,
    build_channel_config_packet,
    build_channel_read_packet,
)
from .multicast import channel_path_packet, multicast_path_packets

if TYPE_CHECKING:
    from .ni import NetworkInterface


@dataclass
class ChannelEndpoints:
    """Channel indices assigned to one allocated channel."""

    channel: AllocatedChannel
    src_channel: int
    dst_channel: int


@dataclass
class SetupHandle:
    """Tracks the configuration requests of one set-up or tear-down.

    Attributes:
        label: Connection or multicast label.
        requests: The submitted configuration requests, in order.
    """

    label: str
    requests: List[ConfigRequest] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return all(request.done for request in self.requests)

    @property
    def submitted_at(self) -> int:
        return self.requests[0].submitted_at if self.requests else -1

    @property
    def finished_at(self) -> int:
        if not self.done:
            raise ConfigurationError(f"{self.label!r} not complete yet")
        return max(request.finished_at for request in self.requests)

    @property
    def setup_cycles(self) -> int:
        """Cycles from first submission to last completion."""
        return self.finished_at - self.submitted_at

    @property
    def config_words(self) -> int:
        """Total configuration words transmitted."""
        return sum(len(request.packet) for request in self.requests)


@dataclass
class ConnectionHandle(SetupHandle):
    """A configured bidirectional connection."""

    forward: Optional[ChannelEndpoints] = None
    reverse: Optional[ChannelEndpoints] = None
    #: Set by :meth:`Host.teardown_connection`; a second tear-down of
    #: the same handle raises instead of corrupting table state.
    torn_down: bool = False


@dataclass
class MulticastHandle(SetupHandle):
    """A configured multicast tree."""

    tree: Optional[AllocatedMulticast] = None
    src_channel: int = -1
    dst_channels: Dict[str, int] = field(default_factory=dict)
    torn_down: bool = False


class Host:
    """Driver for the configuration module.

    Attributes:
        topology: The network topology (for element IDs and ports).
        module: The configuration module at the tree root.
        params: Network parameters.
    """

    def __init__(
        self,
        topology: Topology,
        module: ConfigModule,
        params: NetworkParameters,
        cycle_supplier: Callable[[], int],
        channel_buffer_words: Optional[int] = None,
        ni_resolver: Optional[
            Callable[[str], Optional["NetworkInterface"]]
        ] = None,
    ) -> None:
        self.topology = topology
        self.module = module
        self.params = params
        self._cycle = cycle_supplier
        self._buffer_words = (
            channel_buffer_words
            if channel_buffer_words is not None
            else params.channel_buffer_words
        )
        self._next_channel: Dict[str, int] = {}
        # Min-heaps of recycled indices per NI: allocation prefers the
        # lowest freed index before extending the high-water mark, so
        # index assignment stays deterministic under churn.
        self._free_channels: Dict[str, List[int]] = {}
        # Lets index recycling quiesce the NI's driver-side channel
        # state (queued words, sequence counters); None in unit tests
        # that exercise the host against a bare config module.
        self._ni_resolver = ni_resolver

    # -- channel index management ----------------------------------------------

    def allocate_channel_index(self, ni_name: str) -> int:
        """Next free channel index at an NI (64 per NI).

        Indices released by :meth:`recycle_connection_indices` /
        :meth:`recycle_multicast_indices` are reused lowest-first
        before the high-water mark grows, so a sustained open/close
        churn never exhausts the space.

        Raises:
            ConfigurationError: if the NI ran out of channel indices.
        """
        free = self._free_channels.get(ni_name)
        if free:
            return heapq.heappop(free)
        index = self._next_channel.get(ni_name, 0)
        if index >= 64:
            raise ConfigurationError(
                f"NI {ni_name!r} exhausted its 64 channel indices"
            )
        self._next_channel[ni_name] = index + 1
        return index

    def _release_channel_index(self, ni_name: str, index: int) -> None:
        free = self._free_channels.setdefault(ni_name, [])
        if index in free:
            raise ConfigurationError(
                f"NI {ni_name!r} channel index {index} released twice"
            )
        heapq.heappush(free, index)
        if self._ni_resolver is not None:
            ni = self._ni_resolver(ni_name)
            if ni is not None:
                ni.quiesce_channel(index)

    def recycle_connection_indices(
        self, handle: ConnectionHandle, connection: AllocatedConnection
    ) -> None:
        """Return a torn-down connection's four channel indices to the
        free pool.

        Must only be called after the tear-down returned by
        :meth:`teardown_connection` has *completed* on the network —
        the cleared tables no longer reference the indices, so a later
        set-up may safely reuse them.

        Raises:
            ConfigurationError: if the handle is not torn down (the
                indices are still live in NI tables), or an index is
                released twice.
        """
        if handle.forward is None or handle.reverse is None:
            raise ConfigurationError(
                f"{handle.label!r} was never fully set up"
            )
        if not handle.torn_down:
            raise ConfigurationError(
                f"{handle.label!r} is still configured; tear it down "
                f"before recycling its channel indices"
            )
        for endpoints, channel in (
            (handle.forward, connection.forward),
            (handle.reverse, connection.reverse),
        ):
            self._release_channel_index(
                channel.src_ni, endpoints.src_channel
            )
            self._release_channel_index(
                channel.dst_ni, endpoints.dst_channel
            )

    def recycle_multicast_indices(self, handle: MulticastHandle) -> None:
        """Return a torn-down multicast tree's channel indices to the
        free pool (same completion contract as
        :meth:`recycle_connection_indices`).

        Raises:
            ConfigurationError: as :meth:`recycle_connection_indices`.
        """
        if handle.tree is None:
            raise ConfigurationError(
                f"{handle.label!r} was never fully set up"
            )
        if not handle.torn_down:
            raise ConfigurationError(
                f"{handle.label!r} is still configured; tear it down "
                f"before recycling its channel indices"
            )
        self._release_channel_index(
            handle.tree.src_ni, handle.src_channel
        )
        for dst, index in sorted(handle.dst_channels.items()):
            self._release_channel_index(dst, index)

    def _endpoints(self, channel: AllocatedChannel) -> ChannelEndpoints:
        """Assign source and destination channel indices for a channel."""
        return ChannelEndpoints(
            channel=channel,
            src_channel=self.allocate_channel_index(channel.src_ni),
            dst_channel=self.allocate_channel_index(channel.dst_ni),
        )

    def _submit(
        self, handle: SetupHandle, packet: ConfigPacket
    ) -> ConfigRequest:
        request = self.module.submit(packet, cycle=self._cycle())
        handle.requests.append(request)
        return request

    # -- connections -------------------------------------------------------------

    def setup_connection(
        self, connection: AllocatedConnection
    ) -> ConnectionHandle:
        """Submit all packets that set up a bidirectional connection.

        Six packets: the two path packets, then channel registers for
        the four endpoints; the forward source channel is enabled last.
        """
        handle = ConnectionHandle(label=connection.label)
        handle.forward = self._endpoints(connection.forward)
        handle.reverse = self._endpoints(connection.reverse)
        self._submit_connection_packets(handle, connection)
        return handle

    def replay_connection(
        self,
        handle: ConnectionHandle,
        connection: AllocatedConnection,
    ) -> SetupHandle:
        """Re-send the set-up packets of an established connection.

        Recovery path for soft faults (slot-table upsets, lost config
        words): every packet writes absolute values to the same channel
        indices, so the replay is idempotent — correct state is
        untouched and corrupted entries are rewritten.

        Raises:
            ConfigurationError: if the handle was never fully set up or
                is already torn down.
        """
        if handle.forward is None or handle.reverse is None:
            raise ConfigurationError(
                f"{handle.label!r} was never fully set up"
            )
        if handle.torn_down:
            raise ConfigurationError(
                f"{handle.label!r} is already torn down"
            )
        replay = ConnectionHandle(
            label=f"{handle.label}.replay",
            forward=handle.forward,
            reverse=handle.reverse,
        )
        self._submit_connection_packets(replay, connection)
        return replay

    def _submit_connection_packets(
        self,
        handle: ConnectionHandle,
        connection: AllocatedConnection,
    ) -> None:
        forward = handle.forward
        reverse = handle.reverse
        assert forward is not None and reverse is not None
        self._submit(
            handle,
            channel_path_packet(
                self.topology,
                connection.forward,
                src_channel=forward.src_channel,
                dst_channel=forward.dst_channel,
                word_bits=self.params.config_word_bits,
            ),
        )
        self._submit(
            handle,
            channel_path_packet(
                self.topology,
                connection.reverse,
                src_channel=reverse.src_channel,
                dst_channel=reverse.dst_channel,
                word_bits=self.params.config_word_bits,
            ),
        )
        flags = FLAG_ENABLED | FLAG_FLOW_CONTROLLED
        # Forward-data arrival queue at the destination NI; its credits
        # ride on the reverse channel, whose source endpoint lives in the
        # same NI.
        self._configure_endpoint(
            handle,
            ni=connection.forward.dst_ni,
            direction=Direction.ARRIVE,
            channel=forward.dst_channel,
            flags=flags,
            paired=reverse.src_channel,
        )
        # Reverse-data arrival queue at the source NI, paired with the
        # forward source endpoint.
        self._configure_endpoint(
            handle,
            ni=connection.reverse.dst_ni,
            direction=Direction.ARRIVE,
            channel=reverse.dst_channel,
            flags=flags,
            paired=forward.src_channel,
        )
        # Reverse source endpoint (at the forward destination NI).
        self._configure_endpoint(
            handle,
            ni=connection.reverse.src_ni,
            direction=Direction.INJECT,
            channel=reverse.src_channel,
            flags=flags,
            paired=forward.dst_channel,
            credits=self._buffer_words,
        )
        # Forward source endpoint — enabled last.
        self._configure_endpoint(
            handle,
            ni=connection.forward.src_ni,
            direction=Direction.INJECT,
            channel=forward.src_channel,
            flags=flags,
            paired=reverse.dst_channel,
            credits=self._buffer_words,
        )

    def teardown_connection(
        self, handle: ConnectionHandle, connection: AllocatedConnection
    ) -> SetupHandle:
        """Disable both source endpoints, then clear the path entries.

        Raises:
            ConfigurationError: if the handle was never fully set up,
                its set-up has not completed yet, or it was already torn
                down — a double tear-down would free channel indices
                twice and clear slots now owned by another connection.
        """
        if handle.forward is None or handle.reverse is None:
            raise ConfigurationError(
                f"{handle.label!r} was never fully set up"
            )
        if not handle.done:
            raise ConfigurationError(
                f"{handle.label!r}: set-up still in flight — run the "
                f"network until it completes before tearing down"
            )
        if handle.torn_down:
            raise ConfigurationError(
                f"{handle.label!r} is already torn down"
            )
        handle.torn_down = True
        teardown = SetupHandle(label=f"{handle.label}.teardown")
        for endpoints, channel in (
            (handle.forward, connection.forward),
            (handle.reverse, connection.reverse),
        ):
            self._configure_endpoint(
                teardown,
                ni=channel.src_ni,
                direction=Direction.INJECT,
                channel=endpoints.src_channel,
                flags=0,
            )
        for endpoints, channel in (
            (handle.forward, connection.forward),
            (handle.reverse, connection.reverse),
        ):
            self._submit(
                teardown,
                channel_path_packet(
                    self.topology,
                    channel,
                    src_channel=endpoints.src_channel,
                    dst_channel=endpoints.dst_channel,
                    teardown=True,
                    word_bits=self.params.config_word_bits,
                ),
            )
        return teardown

    def setup_paths(
        self, connection: AllocatedConnection
    ) -> SetupHandle:
        """Set up just the request and response paths of a connection.

        This is the Table III quantity: two path packets (forward and
        reverse), no channel-register traffic.
        """
        handle = SetupHandle(label=f"{connection.label}.paths")
        for channel in (connection.forward, connection.reverse):
            src_channel = self.allocate_channel_index(channel.src_ni)
            dst_channel = self.allocate_channel_index(channel.dst_ni)
            self._submit(
                handle,
                channel_path_packet(
                    self.topology,
                    channel,
                    src_channel=src_channel,
                    dst_channel=dst_channel,
                    word_bits=self.params.config_word_bits,
                ),
            )
        return handle

    def setup_path_only(
        self, channel: AllocatedChannel
    ) -> SetupHandle:
        """Set up just the slot-table entries of one channel.

        This is the quantity Table III reports ("the number of cycles
        required to set up one connection" as a function of path length):
        a single path packet plus the cool-down.
        """
        handle = SetupHandle(label=f"{channel.label}.path")
        src_channel = self.allocate_channel_index(channel.src_ni)
        dst_channel = self.allocate_channel_index(channel.dst_ni)
        self._submit(
            handle,
            channel_path_packet(
                self.topology,
                channel,
                src_channel=src_channel,
                dst_channel=dst_channel,
                word_bits=self.params.config_word_bits,
            ),
        )
        return handle

    # -- multicast ------------------------------------------------------------------

    def setup_multicast(
        self, tree: AllocatedMulticast
    ) -> MulticastHandle:
        """Set up a multicast tree: trunk, branch segments, channels.

        Multicast runs without end-to-end flow control ("the default
        flow-control mechanism cannot be used"), so the endpoints are
        enabled without FLAG_FLOW_CONTROLLED and need no credit or
        pairing registers.
        """
        handle = MulticastHandle(label=tree.label, tree=tree)
        handle.src_channel = self.allocate_channel_index(tree.src_ni)
        for dst in tree.dst_nis:
            handle.dst_channels[dst] = self.allocate_channel_index(dst)
        self._submit_multicast_packets(handle, tree)
        return handle

    def replay_multicast(self, handle: MulticastHandle) -> SetupHandle:
        """Re-send the set-up packets of an established multicast tree
        (idempotent, like :meth:`replay_connection`).

        Raises:
            ConfigurationError: if the handle was never fully set up or
                is already torn down.
        """
        if handle.tree is None:
            raise ConfigurationError(
                f"{handle.label!r} was never fully set up"
            )
        if handle.torn_down:
            raise ConfigurationError(
                f"{handle.label!r} is already torn down"
            )
        replay = MulticastHandle(
            label=f"{handle.label}.replay",
            tree=handle.tree,
            src_channel=handle.src_channel,
            dst_channels=dict(handle.dst_channels),
        )
        self._submit_multicast_packets(replay, handle.tree)
        return replay

    def _submit_multicast_packets(
        self, handle: MulticastHandle, tree: AllocatedMulticast
    ) -> None:
        for packet in multicast_path_packets(
            self.topology,
            tree,
            src_channel=handle.src_channel,
            dst_channels=handle.dst_channels,
            word_bits=self.params.config_word_bits,
        ):
            self._submit(handle, packet)
        for dst in tree.dst_nis:
            self._configure_endpoint(
                handle,
                ni=dst,
                direction=Direction.ARRIVE,
                channel=handle.dst_channels[dst],
                flags=FLAG_ENABLED,
            )
        self._configure_endpoint(
            handle,
            ni=tree.src_ni,
            direction=Direction.INJECT,
            channel=handle.src_channel,
            flags=FLAG_ENABLED,
        )

    def teardown_multicast(self, handle: MulticastHandle) -> SetupHandle:
        """Disable the source, then clear trunk and branch entries.

        Raises:
            ConfigurationError: if the handle was never fully set up,
                its set-up has not completed yet, or it was already
                torn down (see :meth:`teardown_connection`).
        """
        if handle.tree is None:
            raise ConfigurationError(
                f"{handle.label!r} was never fully set up"
            )
        if not handle.done:
            raise ConfigurationError(
                f"{handle.label!r}: set-up still in flight — run the "
                f"network until it completes before tearing down"
            )
        if handle.torn_down:
            raise ConfigurationError(
                f"{handle.label!r} is already torn down"
            )
        handle.torn_down = True
        teardown = SetupHandle(label=f"{handle.label}.teardown")
        self._configure_endpoint(
            teardown,
            ni=handle.tree.src_ni,
            direction=Direction.INJECT,
            channel=handle.src_channel,
            flags=0,
        )
        for packet in multicast_path_packets(
            self.topology,
            handle.tree,
            src_channel=handle.src_channel,
            dst_channels=handle.dst_channels,
            teardown=True,
            word_bits=self.params.config_word_bits,
        ):
            self._submit(teardown, packet)
        return teardown

    # -- register access -----------------------------------------------------------

    def _configure_endpoint(
        self,
        handle: SetupHandle,
        ni: str,
        direction: Direction,
        channel: int,
        flags: int,
        paired: Optional[int] = None,
        credits: Optional[int] = None,
    ) -> None:
        fields = []
        if credits is not None:
            fields.append((ChannelField.CREDIT, credits))
        if paired is not None:
            fields.append((ChannelField.PAIRED, paired))
        fields.append((ChannelField.FLAGS, flags))
        packet = build_channel_config_packet(
            element_id=self.topology.element(ni).element_id,
            direction=direction,
            channel=channel,
            fields=fields,
            word_bits=self.params.config_word_bits,
        )
        self._submit(handle, packet)

    def read_channel_register(
        self,
        ni: str,
        direction: Direction,
        channel: int,
        register: ChannelField,
        timeout_cycles: Optional[int] = None,
        max_retries: int = 0,
    ) -> ConfigRequest:
        """Read back one NI channel register over the response path.

        ``timeout_cycles``/``max_retries`` bound the wait for the
        response word (see :class:`ConfigRequest`); by default the
        read waits forever and is never re-sent.
        """
        packet = build_channel_read_packet(
            element_id=self.topology.element(ni).element_id,
            direction=direction,
            channel=channel,
            field_id=register,
            word_bits=self.params.config_word_bits,
        )
        return self.module.submit(
            packet,
            cycle=self._cycle(),
            expected_responses=1,
            timeout_cycles=timeout_cycles,
            max_retries=max_retries,
        )

    def verify_connection_requests(
        self,
        handle: ConnectionHandle,
        connection: AllocatedConnection,
        timeout_cycles: Optional[int] = None,
        max_retries: int = 0,
    ) -> List[Tuple[ConfigRequest, int]]:
        """Read back the FLAGS register of all four channel endpoints.

        Returns (request, expected value) pairs; once the requests
        complete, any mismatch means the set-up did not commit as
        intended (lost or corrupted configuration words) and the
        connection should be replayed.

        Raises:
            ConfigurationError: if the handle was never fully set up.
        """
        if handle.forward is None or handle.reverse is None:
            raise ConfigurationError(
                f"{handle.label!r} was never fully set up"
            )
        expected = FLAG_ENABLED | FLAG_FLOW_CONTROLLED
        reads = []
        for endpoints, channel in (
            (handle.forward, connection.forward),
            (handle.reverse, connection.reverse),
        ):
            reads.append(
                (
                    self.read_channel_register(
                        channel.src_ni,
                        Direction.INJECT,
                        endpoints.src_channel,
                        ChannelField.FLAGS,
                        timeout_cycles=timeout_cycles,
                        max_retries=max_retries,
                    ),
                    expected,
                )
            )
            reads.append(
                (
                    self.read_channel_register(
                        channel.dst_ni,
                        Direction.ARRIVE,
                        endpoints.dst_channel,
                        ChannelField.FLAGS,
                        timeout_cycles=timeout_cycles,
                        max_retries=max_retries,
                    ),
                    expected,
                )
            )
        return reads

    def configure_bus(self, ni: str, payload: List[int]) -> ConfigRequest:
        """Send raw configuration words to an NI's bus-config shell."""
        packet = build_bus_config_packet(
            element_id=self.topology.element(ni).element_id,
            payload=payload,
            word_bits=self.params.config_word_bits,
        )
        return self.module.submit(packet, cycle=self._cycle())
