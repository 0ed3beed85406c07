"""Schedule validation: the contention-free invariant, statically.

Fig. 1's property — "packets never collide and never have to wait for
each other" — reduces to a static condition on the allocation: no two
channels may claim the same (directed link, slot) pair, with multicast
trees counting each shared tree edge once.  ``validate_schedule`` checks
exactly that, plus the structural sanity of every path (NI endpoints,
router interior, adjacency in the topology).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple, Union

from ..errors import ScheduleError, SlotConflictError
from ..topology import ElementKind, Topology
from .spec import (
    AllocatedChannel,
    AllocatedConnection,
    AllocatedMulticast,
)

Allocation = Union[AllocatedChannel, AllocatedConnection, AllocatedMulticast]


def check_path(topology: Topology, path: Sequence[str]) -> None:
    """Validate one channel path structurally.

    Raises:
        ScheduleError: if the endpoints are not NIs, an interior element
            is not a router, or two consecutive elements are not linked.
    """
    if len(path) < 2:
        raise ScheduleError(f"path {path} too short")
    for index, name in enumerate(path):
        element = topology.element(name)
        expected = (
            ElementKind.NI
            if index in (0, len(path) - 1)
            else ElementKind.ROUTER
        )
        if element.kind is not expected:
            raise ScheduleError(
                f"path element {name!r} at position {index} should be "
                f"a {expected.value}"
            )
    for a, b in zip(path, path[1:]):
        if not topology.has_link(a, b):
            raise ScheduleError(f"path uses missing link {a!r} -> {b!r}")


def _claims_of(allocation: Allocation) -> List[Tuple[str, Tuple, int]]:
    """(label, edge, slot) triples of one allocation."""
    if isinstance(allocation, AllocatedChannel):
        return [
            (allocation.label, edge, slot)
            for edge, slot in allocation.link_claims()
        ]
    if isinstance(allocation, AllocatedConnection):
        return _claims_of(allocation.forward) + _claims_of(
            allocation.reverse
        )
    return [
        (allocation.label, edge, slot)
        for edge, slot in allocation.link_claims()
    ]


def _paths_of(allocation: Allocation) -> List[Tuple[str, ...]]:
    if isinstance(allocation, AllocatedChannel):
        return [allocation.path]
    if isinstance(allocation, AllocatedConnection):
        return [allocation.forward.path, allocation.reverse.path]
    return [branch.path for branch in allocation.paths]


def validate_schedule(
    topology: Topology,
    allocations: Iterable[Allocation],
) -> None:
    """Check a set of allocations for contention freedom.

    Raises:
        ScheduleError: on structurally broken paths.
        SlotConflictError: if two allocations share a (link, slot) pair.
    """
    owners: Dict[Tuple[Tuple, int], str] = {}
    for allocation in allocations:
        for path in _paths_of(allocation):
            check_path(topology, path)
        for label, edge, slot in _claims_of(allocation):
            key = (edge, slot)
            owner = owners.get(key)
            if owner is not None and owner != label:
                raise SlotConflictError(
                    f"link {edge} slot {slot} claimed by both "
                    f"{owner!r} and {label!r}"
                )
            owners[key] = label


def schedule_link_loads(
    allocations: Iterable[Allocation],
    slot_table_size: int,
) -> Dict[Tuple, float]:
    """Per-link utilization (claimed slots / T) of a schedule."""
    counts: Dict[Tuple, set] = {}
    for allocation in allocations:
        for _, edge, slot in _claims_of(allocation):
            counts.setdefault(edge, set()).add(slot)
    return {
        edge: len(slots) / slot_table_size
        for edge, slots in counts.items()
    }
