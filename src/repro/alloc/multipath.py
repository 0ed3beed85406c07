"""Multipath slot allocation (after Stefan & Goossens, MICPRO 2011 [29]).

"daelite allows routing one connection over multiple paths at no
additional cost.  In [29] it was shown that multipath routing can provide
bandwidth gains of 24% on average."  Because daelite routers forward
purely on arrival time, splitting a channel's slots over several paths
needs no extra hardware: each path gets its own base slots, and the union
delivers the requested bandwidth.

The allocator asks for slots on the shortest path first and spills the
remainder onto successively longer simple paths, which is the greedy core
of the cited flow.  The result is a :class:`MultipathAllocation` holding
one :class:`~repro.alloc.spec.AllocatedChannel` per used path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..errors import AllocationError
from .pathfind import cached_k_shortest_paths
from .slot_alloc import SlotAllocator, _slot_mask
from .spec import AllocatedChannel, ChannelRequest


@dataclass(frozen=True)
class MultipathAllocation:
    """A channel realized over one or more parallel paths."""

    label: str
    parts: Tuple[AllocatedChannel, ...]

    @property
    def total_slots(self) -> int:
        return sum(len(part.slots) for part in self.parts)

    @property
    def paths_used(self) -> int:
        return len(self.parts)

    @property
    def bandwidth_fraction(self) -> float:
        """Delivered bandwidth as a fraction of one link."""
        if not self.parts:
            return 0.0
        return self.total_slots / self.parts[0].slot_table_size


def allocate_multipath(
    allocator: SlotAllocator,
    request: ChannelRequest,
    max_paths: int = 4,
) -> MultipathAllocation:
    """Allocate ``request`` over up to ``max_paths`` simple paths.

    Slots are taken greedily: as many as possible on the shortest path,
    the remainder on the next path, and so on — each path probed once,
    by the allocator's own channel probe.  The whole attempt runs
    inside one ledger snapshot, so partial claims are rolled back in a
    single operation if the request cannot be met in full.

    Raises:
        AllocationError: if even the union of paths lacks capacity.
    """
    paths = cached_k_shortest_paths(
        allocator.topology, request.src_ni, request.dst_ni, max_paths
    )
    remaining = request.slots
    parts: List[AllocatedChannel] = []
    ledger = allocator.ledger
    token = ledger.snapshot()
    for index, path in enumerate(paths):
        if remaining == 0:
            break
        diagonal = allocator._claim_diagonal(path, None)
        mask, context = ledger.probe_rotations(diagonal)
        take = min(remaining, mask.bit_count())
        if not take:
            continue
        part = allocator._picked_channel(
            ChannelRequest(
                label=f"{request.label}#p{index}",
                src_ni=request.src_ni,
                dst_ni=request.dst_ni,
                slots=take,
            ),
            path,
            None,
            mask,
            diagonal,
        )
        ledger.claim_prepared(context, _slot_mask(part.slots), part.label)
        parts.append(part)
        remaining -= take
    if remaining > 0:
        ledger.rollback(token)
        raise AllocationError(
            f"multipath channel {request.label!r}: {remaining} of "
            f"{request.slots} slots unplaceable over {len(paths)} paths"
        )
    ledger.commit(token)
    return MultipathAllocation(label=request.label, parts=tuple(parts))


def release_multipath(
    allocator: SlotAllocator, allocation: MultipathAllocation
) -> None:
    """Return all claims of a multipath allocation."""
    for part in allocation.parts:
        allocator.release_channel(part)
