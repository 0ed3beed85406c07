"""Pipelined (mesochronous-tolerant) links — the paper's future work.

"aelite ... introduces the possibility of using asynchronous and
mesochronous links.  Although we have not currently investigated this
possibility, we believe that the same techniques can be used in daelite."

This extension investigates it.  A *pipelined link* carries extra
register stages — the flit-synchronous abstraction of a mesochronous or
simply long link: as long as the added delay is a whole number of TDM
slots, the contention-free schedule still works, with every element
downstream of the link shifted by the link's delay.

Two pieces make it work end to end:

* **Data path** — :class:`LinkRelay` inserts ``delay_slots x
  words_per_slot`` registers into a link;
  :class:`PipelinedDaeliteNetwork` wires relays into selected edges.
* **Configuration** — the rotating-mask encoding advances one position
  per (element, data) pair, so a d-slot link is bridged by inserting d
  *padding pairs* addressed to a reserved element ID that no element
  owns: every element rotates past them, recovering exactly the
  shifted table indices.  No hardware change is needed in the decoders.

The slot arithmetic lives in
:meth:`repro.alloc.spec.AllocatedChannel.table_slots` via the
``link_delays`` field, and the allocator accepts ``link_delays`` in
:meth:`~repro.alloc.slot_alloc.SlotAllocator.allocate_channel`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..alloc.slot_alloc import SlotAllocator
from ..alloc.spec import (
    AllocatedChannel,
    AllocatedConnection,
    ConnectionRequest,
)
from ..core.config_protocol import (
    ConfigPacket,
    Direction,
    PathHop,
    ni_channel_word,
)
from ..core.multicast import _hop_payload
from ..core.network import DaeliteNetwork
from ..core.slot_table import SlotMask
from ..errors import ConfigurationError, ParameterError, TopologyError
from ..params import NetworkParameters
from ..sim.kernel import Component, Register
from ..sim.link import Link
from ..topology import Topology

#: Reserved element ID used for padding pairs; must be owned by no
#: element (checked at network construction).
PAD_ELEMENT_ID = 63


class LinkRelay(Component):
    """Extra pipeline stages spliced into a data link.

    Reads the upstream link's output every cycle, shifts phits through
    ``stages`` internal registers, and drives the downstream link — in
    total ``stages + 2`` cycles from the upstream drive to the
    downstream read, versus 1 for a plain link.
    """

    def __init__(
        self, name: str, upstream: Link, downstream: Link, stages: int
    ) -> None:
        super().__init__(name)
        if stages < 1:
            raise ParameterError("a relay needs >= 1 stage")
        self.upstream = upstream
        self.downstream = downstream
        self._stages: List[Register] = [
            self.make_register(f"stage{index}") for index in range(stages)
        ]

    def evaluate(self, cycle: int) -> None:
        tail = self._stages[-1].q
        if tail is not None:
            self.downstream.send(tail)
        for index in range(len(self._stages) - 1, 0, -1):
            previous = self._stages[index - 1].q
            if previous is not None:
                self._stages[index].drive(previous)
        incoming = self.upstream.incoming
        if not incoming.is_idle:
            self._stages[0].drive(incoming)


class PipelinedDaeliteNetwork(DaeliteNetwork):
    """A daelite network where chosen links carry extra whole-slot
    pipeline delay.

    Attributes:
        link_extra_slots: Directed edge -> extra delay in TDM slots.
            (Specify both directions of an edge for symmetric delay.)
    """

    def __init__(
        self,
        topology: Topology,
        params: Optional[NetworkParameters] = None,
        host_ni: Optional[str] = None,
        strict: bool = False,
        link_extra_slots: Optional[Dict[Tuple[str, str], int]] = None,
    ) -> None:
        self.link_extra_slots = dict(link_extra_slots or {})
        for edge, extra in self.link_extra_slots.items():
            if extra < 0:
                raise ParameterError(f"negative link delay on {edge}")
        self.relays: Dict[Tuple[str, str], LinkRelay] = {}
        super().__init__(
            topology, params, host_ni=host_ni, strict=strict
        )
        for element in topology.elements.values():
            if element.element_id == PAD_ELEMENT_ID:
                raise TopologyError(
                    f"element {element.name!r} owns the reserved pad "
                    f"ID {PAD_ELEMENT_ID}; use a smaller topology"
                )

    def _attach_link(self, src: str, dst: str) -> None:
        extra = self.link_extra_slots.get((src, dst), 0)
        if extra == 0:
            super()._attach_link(src, dst)
            return
        # Upstream half-link (driven by src) + relay + downstream
        # half-link (read by dst).  Total added delay must be a whole
        # number of slots: stages = extra*W, minus the one cycle the
        # second link register adds beyond a plain link.
        stages = extra * self.params.words_per_slot - 1
        upstream = Link(f"{src}->{dst}.head", self.changes)
        downstream = Link(f"{src}->{dst}", self.changes)
        self.kernel.add_register(upstream.register)
        self.kernel.add_register(downstream.register)
        if stages == 0:
            raise ParameterError(
                "pipelined links need words_per_slot >= 2 or delay >= 1"
            )
        relay = LinkRelay(
            f"relay.{src}->{dst}", upstream, downstream, stages
        )
        self.relays[(src, dst)] = relay
        self.kernel.add(relay)
        self.links[(src, dst)] = downstream
        src_element = self.topology.element(src)
        dst_element = self.topology.element(dst)
        from ..topology import ElementKind

        if src_element.kind is ElementKind.ROUTER:
            self.routers[src].out_links[
                src_element.port_to(dst)
            ] = upstream
        else:
            self.nis[src].out_link = upstream
        if dst_element.kind is ElementKind.ROUTER:
            self.routers[dst].in_links[
                dst_element.port_to(src)
            ] = downstream
        else:
            self.nis[dst].in_link = downstream

    def delays_for_path(self, path: Sequence[str]) -> Tuple[int, ...]:
        """Per-link extra slots along ``path``."""
        return tuple(
            self.link_extra_slots.get((path[k], path[k + 1]), 0)
            for k in range(len(path) - 1)
        )

    def allocate_connection(
        self, allocator: SlotAllocator, request: ConnectionRequest
    ) -> AllocatedConnection:
        """Allocate a connection whose channels carry this network's
        link delays (forward path chosen by the allocator's routing)."""
        path = allocator.route(request.src_ni, request.dst_ni)
        reverse_path = tuple(reversed(path))
        token = allocator.ledger.snapshot()
        try:
            forward = allocator.allocate_channel(
                request.forward,
                path=path,
                link_delays=self.delays_for_path(path),
            )
            reverse = allocator.allocate_channel(
                request.reverse,
                path=reverse_path,
                link_delays=self.delays_for_path(reverse_path),
            )
        except Exception:
            allocator.ledger.rollback(token)
            raise
        allocator.ledger.commit(token)
        return AllocatedConnection(
            label=request.label, forward=forward, reverse=reverse
        )

    def configure_pipelined(
        self, connection: AllocatedConnection
    ):
        """Set up a connection whose path packets carry padding pairs.

        Mirrors :meth:`DaeliteNetwork.configure`, but path packets are
        built by :func:`pipelined_path_packet`.
        """
        from ..core.host import ConnectionHandle

        host = self.host
        handle = ConnectionHandle(label=connection.label)
        endpoints = {}
        for direction_label, channel in (
            ("fwd", connection.forward),
            ("rev", connection.reverse),
        ):
            src_channel = host.allocate_channel_index(channel.src_ni)
            dst_channel = host.allocate_channel_index(channel.dst_ni)
            endpoints[direction_label] = (src_channel, dst_channel)
            packet = pipelined_path_packet(
                self.topology,
                channel,
                src_channel=src_channel,
                dst_channel=dst_channel,
                word_bits=self.params.config_word_bits,
            )
            handle.requests.append(
                self.config_module.submit(packet, self.kernel.cycle)
            )
        from ..core.host import ChannelEndpoints

        handle.forward = ChannelEndpoints(
            connection.forward, *endpoints["fwd"]
        )
        handle.reverse = ChannelEndpoints(
            connection.reverse, *endpoints["rev"]
        )
        from ..core.config_protocol import (
            FLAG_ENABLED,
            FLAG_FLOW_CONTROLLED,
        )

        flags = FLAG_ENABLED | FLAG_FLOW_CONTROLLED
        host._configure_endpoint(
            handle,
            ni=connection.forward.dst_ni,
            direction=Direction.ARRIVE,
            channel=handle.forward.dst_channel,
            flags=flags,
            paired=handle.reverse.src_channel,
        )
        host._configure_endpoint(
            handle,
            ni=connection.reverse.dst_ni,
            direction=Direction.ARRIVE,
            channel=handle.reverse.dst_channel,
            flags=flags,
            paired=handle.forward.src_channel,
        )
        host._configure_endpoint(
            handle,
            ni=connection.reverse.src_ni,
            direction=Direction.INJECT,
            channel=handle.reverse.src_channel,
            flags=flags,
            paired=handle.forward.dst_channel,
            credits=self.params.channel_buffer_words,
        )
        host._configure_endpoint(
            handle,
            ni=connection.forward.src_ni,
            direction=Direction.INJECT,
            channel=handle.forward.src_channel,
            flags=flags,
            paired=handle.reverse.dst_channel,
            credits=self.params.channel_buffer_words,
        )
        self.run_until_configured(handle)
        return handle


def pipelined_path_packet(
    topology: Topology,
    channel: AllocatedChannel,
    src_channel: int,
    dst_channel: int,
    teardown: bool = False,
    word_bits: int = 7,
) -> ConfigPacket:
    """A path packet with padding pairs bridging the link delays.

    Between the pair of the element at position p and the pair at
    position p-1, ``link_delays[p-1]`` padding pairs (addressed to
    :data:`PAD_ELEMENT_ID`) are inserted, so the upstream element's mask
    copy rotates the extra positions a delayed link requires.

    Raises:
        ConfigurationError: if the padding ID collides with a real
            element.
    """
    for element in topology.elements.values():
        if element.element_id == PAD_ELEMENT_ID:
            raise ConfigurationError(
                f"element {element.name!r} owns the reserved pad ID"
            )
    path = channel.path
    delays = channel.link_delays or (0,) * (len(path) - 1)
    last = len(path) - 1
    hops: List[PathHop] = []
    for position in range(last, -1, -1):
        if position == last:
            payload = ni_channel_word(Direction.ARRIVE, dst_channel)
        elif position == 0:
            payload = ni_channel_word(Direction.INJECT, src_channel)
        else:
            payload = _hop_payload(
                topology, path, position, src_channel, Direction.INJECT
            )
        hops.append(
            PathHop(
                element_id=topology.element(path[position]).element_id,
                payload=payload,
            )
        )
        if position > 0:
            for _ in range(delays[position - 1]):
                hops.append(PathHop(element_id=PAD_ELEMENT_ID, payload=0))
    mask = SlotMask.of(channel.slot_table_size, channel.arrival_slots)
    return _build_padded(mask, hops, teardown, word_bits)


def _build_padded(mask, hops, teardown, word_bits) -> ConfigPacket:
    """Like :func:`build_path_packet` but pads may repeat."""
    from ..core.config_protocol import Opcode, element_word, header_word

    words = [header_word(Opcode.PATH_TEARDOWN if teardown else Opcode.PATH_SETUP)]
    words.extend(mask.to_words(word_bits))
    for hop in hops:
        words.append(element_word(hop.element_id, word_bits))
        words.append(hop.payload)
    opcode = Opcode.PATH_TEARDOWN if teardown else Opcode.PATH_SETUP
    return ConfigPacket(
        opcode=opcode,
        words=tuple(words),
        description=(
            f"{opcode.name} padded T={mask.size} "
            f"slots={sorted(mask.slots)} "
            f"hops={[hop.element_id for hop in hops]}"
        ),
        word_bits=word_bits,
    )
