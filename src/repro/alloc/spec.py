"""Connection specifications and allocation results.

The dimensioning flow (our stand-in for the Æthereal tool chain the paper
leverages) starts from :class:`ChannelRequest` / :class:`ConnectionRequest`
objects, finds paths, assigns TDM slots and produces
:class:`AllocatedChannel` / :class:`AllocatedConnection` /
:class:`AllocatedMulticast` results, which the host controller compiles
into configuration packets.

Slot arithmetic (see DESIGN.md): a channel whose source-NI injection table
uses slot *s* claims table index ``(s + k) mod T`` at the element in
position *k* of its path (source NI = position 0) and occupies the link
from position *k* to *k+1* during slot ``(s + k + 1) mod T``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import AllocationError, ParameterError


@dataclass(frozen=True)
class ChannelRequest:
    """A unidirectional communication request.

    Attributes:
        label: Unique identifier of the channel.
        src_ni: Source network interface.
        dst_ni: Destination network interface.
        slots: Number of TDM slots requested (bandwidth =
            slots/T of a link).
    """

    label: str
    src_ni: str
    dst_ni: str
    slots: int = 1

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ParameterError(
                f"channel {self.label!r} must request >= 1 slot"
            )
        if self.src_ni == self.dst_ni:
            raise ParameterError(
                f"channel {self.label!r} connects an NI to itself"
            )


@dataclass(frozen=True)
class ConnectionRequest:
    """A bidirectional connection request (data + reverse channel).

    daelite connections are bidirectional; the reverse channel carries
    response data and, on its credit wires, the credits of the forward
    channel.  Even a unidirectional data flow therefore needs at least one
    reverse slot.
    """

    label: str
    src_ni: str
    dst_ni: str
    forward_slots: int = 1
    reverse_slots: int = 1

    def __post_init__(self) -> None:
        if self.forward_slots < 1 or self.reverse_slots < 1:
            raise ParameterError(
                f"connection {self.label!r} needs >= 1 slot per direction"
            )

    @cached_property
    def forward(self) -> ChannelRequest:
        return ChannelRequest(
            label=f"{self.label}.fwd",
            src_ni=self.src_ni,
            dst_ni=self.dst_ni,
            slots=self.forward_slots,
        )

    @cached_property
    def reverse(self) -> ChannelRequest:
        return ChannelRequest(
            label=f"{self.label}.rev",
            src_ni=self.dst_ni,
            dst_ni=self.src_ni,
            slots=self.reverse_slots,
        )


@dataclass(frozen=True)
class MulticastRequest:
    """A one-to-many streaming request (write-only, no flow control)."""

    label: str
    src_ni: str
    dst_nis: Tuple[str, ...]
    slots: int = 1

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ParameterError(
                f"multicast {self.label!r} must request >= 1 slot"
            )
        if len(self.dst_nis) < 1:
            raise ParameterError(
                f"multicast {self.label!r} needs >= 1 destination"
            )
        if len(set(self.dst_nis)) != len(self.dst_nis):
            raise ParameterError(
                f"multicast {self.label!r} lists a destination twice"
            )
        if self.src_ni in self.dst_nis:
            raise ParameterError(
                f"multicast {self.label!r} targets its own source"
            )


def broadcast_request(
    topology,
    src_ni: str,
    slots: int = 1,
    label: str = "broadcast",
) -> MulticastRequest:
    """A multicast request addressing *every other* NI — broadcast.

    "Broadcast and multicast can be easily achieved by setting up the
    router slot tables to forward the data packet to multiple
    destinations simultaneously"; broadcast is just the full
    destination set.
    """
    destinations = tuple(
        element.name
        for element in topology.nis
        if element.name != src_ni
    )
    return MulticastRequest(
        label=label, src_ni=src_ni, dst_nis=destinations, slots=slots
    )


@dataclass(frozen=True)
class AllocatedChannel:
    """A routed channel with its TDM slots.

    Attributes:
        label: Channel identifier.
        path: Element names source NI -> routers -> destination NI.
        slots: Injection-table slots at the source NI.
        slot_table_size: The wheel size T the slots refer to.
        link_delays: Extra pipeline delay per link, in whole TDM slots
            (empty = all zero).  Used by the pipelined/mesochronous link
            extension (:mod:`repro.ext.pipelined`): a link with delay d
            shifts every downstream element's table index by d extra
            positions.
        diagonal: The ``(edge, slot offset)`` claim diagonal the
            allocator probed and claimed the channel on, or ``None``
            for a channel built elsewhere.  Its identity names the
            channel's claim record at release; it takes no part in
            equality.
    """

    label: str
    path: Tuple[str, ...]
    slots: FrozenSet[int]
    slot_table_size: int
    link_delays: Tuple[int, ...] = ()
    diagonal: Optional[Sequence[Tuple[Tuple[str, str], int]]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise AllocationError(
                f"channel {self.label!r} path needs >= 2 elements"
            )
        if not self.slots:
            raise AllocationError(f"channel {self.label!r} has no slots")
        for slot in self.slots:
            if not 0 <= slot < self.slot_table_size:
                raise AllocationError(
                    f"channel {self.label!r} slot {slot} outside wheel "
                    f"of size {self.slot_table_size}"
                )
        if self.link_delays:
            if len(self.link_delays) != len(self.path) - 1:
                raise AllocationError(
                    f"channel {self.label!r}: {len(self.link_delays)} "
                    f"link delays for {len(self.path) - 1} links"
                )
            if any(delay < 0 for delay in self.link_delays):
                raise AllocationError(
                    f"channel {self.label!r}: negative link delay"
                )

    def delay_before(self, position: int) -> int:
        """Accumulated extra link delay upstream of ``position``."""
        if not self.link_delays:
            return 0
        return sum(self.link_delays[:position])

    @property
    def src_ni(self) -> str:
        return self.path[0]

    @property
    def dst_ni(self) -> str:
        return self.path[-1]

    @property
    def routers(self) -> Tuple[str, ...]:
        """Routers along the path, in order."""
        return self.path[1:-1]

    @property
    def hops(self) -> int:
        """Number of routers traversed."""
        return len(self.path) - 2

    def table_slots(self, position: int) -> FrozenSet[int]:
        """Slot-table indices used by the element at ``position``."""
        if not 0 <= position < len(self.path):
            raise AllocationError(
                f"position {position} outside path of {self.label!r}"
            )
        offset = position + self.delay_before(position)
        return frozenset(
            (slot + offset) % self.slot_table_size
            for slot in self.slots
        )

    @property
    def arrival_slots(self) -> FrozenSet[int]:
        """Arrival-table slots at the destination NI."""
        return self.table_slots(len(self.path) - 1)

    def link_claims(self) -> List[Tuple[Tuple[str, str], int]]:
        """All ((u, v), slot) pairs this channel occupies.

        The claimed slot is the link's *entry* slot; a pipelined link
        streams one word per cycle, so exclusive entry slots suffice
        for contention freedom along the whole pipeline.
        """
        claims: List[Tuple[Tuple[str, str], int]] = []
        for k in range(len(self.path) - 1):
            edge = (self.path[k], self.path[k + 1])
            offset = k + 1 + self.delay_before(k)
            for slot in self.slots:
                claims.append(
                    (edge, (slot + offset) % self.slot_table_size)
                )
        return claims

    @property
    def bandwidth_fraction(self) -> float:
        """Fraction of a link's bandwidth this channel owns."""
        return len(self.slots) / self.slot_table_size


@dataclass(frozen=True)
class AllocatedConnection:
    """A bidirectional connection: paired forward and reverse channels."""

    label: str
    forward: AllocatedChannel
    reverse: AllocatedChannel

    def __post_init__(self) -> None:
        if self.forward.src_ni != self.reverse.dst_ni or (
            self.forward.dst_ni != self.reverse.src_ni
        ):
            raise AllocationError(
                f"connection {self.label!r}: reverse channel does not "
                f"mirror the forward channel"
            )


@dataclass(frozen=True)
class AllocatedMulticast:
    """A multicast tree: one path per destination, sharing prefixes.

    All paths start at the same source NI and use the same injection
    slots; shared prefixes translate into shared (link, slot) claims, so
    the tree only pays each link once.  ``diagonal`` is the tree's
    claim diagonal, as :attr:`AllocatedChannel.diagonal` is a channel's.
    """

    label: str
    paths: Tuple[AllocatedChannel, ...]
    diagonal: Optional[Sequence[Tuple[Tuple[str, str], int]]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.paths:
            raise AllocationError(
                f"multicast {self.label!r} has no branches"
            )
        first = self.paths[0]
        for branch in self.paths[1:]:
            if branch.src_ni != first.src_ni:
                raise AllocationError(
                    f"multicast {self.label!r}: branches disagree on "
                    f"the source NI"
                )
            if branch.slots != first.slots:
                raise AllocationError(
                    f"multicast {self.label!r}: branches disagree on "
                    f"the slot set"
                )
            if branch.slot_table_size != first.slot_table_size:
                raise AllocationError(
                    f"multicast {self.label!r}: branches disagree on T"
                )
        self._check_tree_consistency()

    def _check_tree_consistency(self) -> None:
        """Paths must form a tree: equal-depth prefixes must agree."""
        parent: Dict[str, str] = {}
        for branch in self.paths:
            for k in range(1, len(branch.path)):
                node, previous = branch.path[k], branch.path[k - 1]
                if node in parent and parent[node] != previous:
                    raise AllocationError(
                        f"multicast {self.label!r}: element {node!r} "
                        f"reached over two different paths; not a tree"
                    )
                parent[node] = previous

    @property
    def src_ni(self) -> str:
        return self.paths[0].src_ni

    @property
    def dst_nis(self) -> Tuple[str, ...]:
        return tuple(branch.dst_ni for branch in self.paths)

    @property
    def slots(self) -> FrozenSet[int]:
        return self.paths[0].slots

    @property
    def slot_table_size(self) -> int:
        return self.paths[0].slot_table_size

    def tree_edges(self) -> List[Tuple[str, str]]:
        """Unique directed edges of the tree, parents before children."""
        seen = set()
        edges: List[Tuple[str, str]] = []
        for branch in self.paths:
            for k in range(len(branch.path) - 1):
                edge = (branch.path[k], branch.path[k + 1])
                if edge not in seen:
                    seen.add(edge)
                    edges.append(edge)
        return edges

    def link_claims(self) -> List[Tuple[Tuple[str, str], int]]:
        """Unique ((u, v), slot) pairs the whole tree occupies."""
        seen = set()
        claims: List[Tuple[Tuple[str, str], int]] = []
        for branch in self.paths:
            for claim in branch.link_claims():
                if claim not in seen:
                    seen.add(claim)
                    claims.append(claim)
        return claims
