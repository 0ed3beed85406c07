"""Compilation of multicast trees into configuration packets (Fig. 7).

"The multiple paths to the different destinations form a tree, rooted at
the source NI. ... The configuration mechanism allows setting up partial
paths; i.e., paths that start at a router instead of a source NI."

The first branch of an :class:`~repro.alloc.spec.AllocatedMulticast` is
configured with an ordinary full-path packet; each further branch only
needs a *partial* packet covering the segment from the fork router (which
receives one additional output entry pointing at the same input — that is
the multicast) down to the new destination NI.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..alloc.spec import AllocatedChannel, AllocatedMulticast
from ..errors import AllocationError
from ..topology import ElementKind, Topology
from .config_protocol import (
    ConfigPacket,
    Direction,
    PathHop,
    build_path_packet,
    ni_channel_word,
    router_port_word,
)
from .slot_table import SlotMask


def _hop_payload(
    topology: Topology,
    path: Sequence[str],
    position: int,
    channel: int,
    direction: Direction,
) -> int:
    """Port/channel word for the element at ``position`` of ``path``."""
    element = topology.element(path[position])
    if element.kind is ElementKind.NI:
        return ni_channel_word(direction, channel)
    input_port = element.port_to(path[position - 1])
    output_port = element.port_to(path[position + 1])
    return router_port_word(input_port, output_port)


def channel_path_packet(
    topology: Topology,
    channel: AllocatedChannel,
    src_channel: int,
    dst_channel: int,
    teardown: bool = False,
    word_bits: int = 7,
) -> ConfigPacket:
    """Full-path PATH_SETUP/TEARDOWN packet for a unicast channel.

    The hop list runs destination-first; the mask carries the destination
    NI's arrival slots and each upstream element recovers its own table
    indices by rotating once per preceding pair.
    """
    path = channel.path
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
    mask = SlotMask.of(channel.slot_table_size, channel.arrival_slots)
    return build_path_packet(
        arrival_mask=mask,
        hops=hops,
        teardown=teardown,
        word_bits=word_bits,
    )


def _branch_segment(
    configured: set,
    branch: AllocatedChannel,
) -> Tuple[int, List[str]]:
    """Deepest already-configured position (the fork) and the segment
    from the fork to the branch destination, inclusive.

    Raises:
        AllocationError: if the fork is the destination NI itself (the
            branch adds nothing new).
    """
    fork_position = 0
    for position, element in enumerate(branch.path):
        if element in configured:
            fork_position = position
        else:
            break
    if fork_position >= len(branch.path) - 1:
        raise AllocationError(
            f"multicast branch to {branch.dst_ni!r} adds no new elements"
        )
    return fork_position, list(branch.path[fork_position:])


def multicast_path_packets(
    topology: Topology,
    tree: AllocatedMulticast,
    src_channel: int,
    dst_channels: Dict[str, int],
    teardown: bool = False,
    word_bits: int = 7,
) -> List[ConfigPacket]:
    """All PATH packets needed to build (or tear down) a multicast tree.

    ``dst_channels`` maps each destination NI name to its arrival channel
    index.  The first packet configures the trunk (a full path); each
    further packet is a partial path from a fork router downwards.  At the
    fork, the new output entry names the *same input* as the trunk entry —
    the hardware multicast of Fig. 7.

    For teardown the same segmentation applies; the per-output teardown
    semantics make sure clearing a branch leaves the trunk's entries
    intact.
    """
    packets: List[ConfigPacket] = []
    configured: set = set()
    for branch in tree.paths:
        if not configured:
            packets.append(
                channel_path_packet(
                    topology,
                    branch,
                    src_channel=src_channel,
                    dst_channel=dst_channels[branch.dst_ni],
                    teardown=teardown,
                    word_bits=word_bits,
                )
            )
            configured.update(branch.path)
            continue
        fork_position, segment = _branch_segment(configured, branch)
        hops: List[PathHop] = []
        last = len(segment) - 1
        for seg_index in range(last, -1, -1):
            position = fork_position + seg_index
            element = topology.element(segment[seg_index])
            if seg_index == last:
                payload = ni_channel_word(
                    Direction.ARRIVE, dst_channels[branch.dst_ni]
                )
            else:
                payload = _hop_payload(
                    topology,
                    branch.path,
                    position,
                    src_channel,
                    Direction.INJECT,
                )
            hops.append(
                PathHop(element_id=element.element_id, payload=payload)
            )
        arrival_position = fork_position + last
        mask = SlotMask.of(
            branch.slot_table_size, branch.table_slots(arrival_position)
        )
        packets.append(
            build_path_packet(
                arrival_mask=mask,
                hops=hops,
                teardown=teardown,
                word_bits=word_bits,
            )
        )
        configured.update(branch.path)
    return packets
