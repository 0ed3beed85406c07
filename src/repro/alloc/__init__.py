"""Design-time toolflow: specs, routing, slot allocation, validation."""

from .dimension import (
    DimensioningResult,
    PlatformSpec,
    dimension_platform,
)
from .multipath import (
    MultipathAllocation,
    allocate_multipath,
    release_multipath,
)
from .pathfind import (
    cached_k_shortest_paths,
    cached_route,
    k_shortest_paths,
    path_via_tree,
    shortest_path,
    xy_path,
)
from .serialize import (
    allocation_from_dict,
    allocation_to_dict,
    schedule_from_json,
    schedule_to_json,
)
from .slot_alloc import LinkSlotLedger, SlotAllocator
from .spec import (
    AllocatedChannel,
    broadcast_request,
    AllocatedConnection,
    AllocatedMulticast,
    ChannelRequest,
    ConnectionRequest,
    MulticastRequest,
)
from .usecase import UseCase, UseCaseManager, UseCaseSwitch
from .validate import (
    check_path,
    schedule_link_loads,
    validate_schedule,
)

__all__ = [
    "DimensioningResult",
    "PlatformSpec",
    "dimension_platform",
    "MultipathAllocation",
    "allocate_multipath",
    "release_multipath",
    "cached_k_shortest_paths",
    "cached_route",
    "k_shortest_paths",
    "path_via_tree",
    "shortest_path",
    "xy_path",
    "allocation_from_dict",
    "allocation_to_dict",
    "schedule_from_json",
    "schedule_to_json",
    "LinkSlotLedger",
    "SlotAllocator",
    "AllocatedChannel",
    "broadcast_request",
    "AllocatedConnection",
    "AllocatedMulticast",
    "ChannelRequest",
    "ConnectionRequest",
    "MulticastRequest",
    "UseCase",
    "UseCaseManager",
    "UseCaseSwitch",
    "check_path",
    "schedule_link_loads",
    "validate_schedule",
]
