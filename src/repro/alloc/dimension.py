"""Platform dimensioning: find the smallest network that fits a spec.

The paper "leverage[s] on existing tools for network dimensioning,
analysis and instantiation" — this module is the dimensioning front end
of our flow: given a set of use cases (each a set of connection and
multicast requests over *logical* IP names), search mesh sizes and TDM
wheel sizes for the cheapest platform whose every use case allocates
contention-free, and report the estimated silicon cost.

IP names are bound to NIs in raster order; a custom ``placement`` maps
logical names to NI names when the caller wants control.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.area import (
    daelite_ni_ge,
    daelite_router_ge,
    full_interconnect_ge,
    ge_to_mm2,
)
from ..errors import AllocationError, ParameterError
from ..params import NetworkParameters, daelite_parameters
from ..topology import Topology, build_mesh
from ..topology.mesh import ni_name as mesh_ni_name
from .slot_alloc import SlotAllocator
from .usecase import UseCase


@dataclass(frozen=True)
class PlatformSpec:
    """What the platform must support.

    Attributes:
        ips: Logical IP names needing one NI each.
        usecases: The use cases over those logical names.
    """

    ips: Tuple[str, ...]
    usecases: Tuple[UseCase, ...]

    def __post_init__(self) -> None:
        if not self.ips:
            raise ParameterError("a platform needs at least one IP")
        if len(set(self.ips)) != len(self.ips):
            raise ParameterError("duplicate IP names")
        known = set(self.ips)
        for usecase in self.usecases:
            for request in usecase.connections:
                for name in (request.src_ni, request.dst_ni):
                    if name not in known:
                        raise ParameterError(
                            f"use case {usecase.name!r} references "
                            f"unknown IP {name!r}"
                        )


@dataclass(frozen=True)
class DimensioningResult:
    """The chosen platform and its cost."""

    width: int
    height: int
    params: NetworkParameters
    placement: Dict[str, str]
    area_ge: float

    @property
    def slot_table_size(self) -> int:
        return self.params.slot_table_size

    def area_mm2(self, tech: str = "65nm") -> float:
        return ge_to_mm2(self.area_ge, tech)

    def build_topology(self) -> Topology:
        return build_mesh(self.width, self.height)


def _bind(usecase: UseCase, placement: Dict[str, str]) -> UseCase:
    """Rewrite a use case's logical IP names into NI names."""
    bound = tuple(
        dc_replace(
            request,
            src_ni=placement[request.src_ni],
            dst_ni=placement[request.dst_ni],
        )
        for request in usecase.connections
    )
    return UseCase(name=usecase.name, connections=bound)


def _fits(
    topology: Topology,
    params: NetworkParameters,
    spec: PlatformSpec,
    placement: Dict[str, str],
) -> bool:
    for usecase in spec.usecases:
        allocator = SlotAllocator(topology=topology, params=params)
        try:
            for request in _bind(usecase, placement).connections:
                allocator.allocate_connection(request)
        except AllocationError:
            return False
    return True


def _platform_cost(
    width: int, height: int, params: NetworkParameters
) -> float:
    routers = width * height
    nis = width * height
    # Interior mesh routers have 5 ports; use the worst case for cost.
    return full_interconnect_ge(
        routers=routers,
        nis=nis,
        router_ge=daelite_router_ge(
            ports=5, slots=params.slot_table_size
        ),
        ni_ge=daelite_ni_ge(slots=params.slot_table_size),
    )


def _search_points(
    spec: PlatformSpec,
    max_side: int,
    slot_table_sizes: Sequence[int],
    placement: Optional[Dict[str, str]],
    base: NetworkParameters,
) -> List[Tuple[float, int, int, NetworkParameters, Dict[str, str]]]:
    """All viable (cost, mesh, T, placement) points in cost order.

    Raises:
        ParameterError: if an explicit ``placement`` does not cover
            exactly the spec's IPs.
    """
    if placement is not None and set(placement) != set(spec.ips):
        raise ParameterError(
            "placement must cover exactly the spec's IPs"
        )
    candidates: List[Tuple[float, int, int, NetworkParameters]] = []
    for side_area in range(1, max_side * max_side + 1):
        for width in range(1, max_side + 1):
            if side_area % width:
                continue
            height = side_area // width
            if height > max_side:
                continue
            if width * height < len(spec.ips):
                continue
            if 2 * width * height > 64:
                continue  # the 7-bit addressing envelope
            for slot_table_size in slot_table_sizes:
                params = base.with_changes(
                    slot_table_size=slot_table_size
                )
                candidates.append(
                    (
                        _platform_cost(width, height, params),
                        width,
                        height,
                        params,
                    )
                )
    candidates.sort(key=lambda item: item[0])
    points: List[
        Tuple[float, int, int, NetworkParameters, Dict[str, str]]
    ] = []
    for cost, width, height, params in candidates:
        # Same raster order build_mesh inserts NIs in (x-major).
        ni_names = [
            mesh_ni_name(x, y)
            for x in range(width)
            for y in range(height)
        ]
        if placement is not None:
            if not set(placement.values()) <= set(ni_names):
                continue  # placement needs a bigger mesh
            chosen = placement
        else:
            chosen = {
                ip: ni_names[index]
                for index, ip in enumerate(spec.ips)
            }
        points.append((cost, width, height, params, chosen))
    return points


def dimension_platform(
    spec: PlatformSpec,
    max_side: int = 5,
    slot_table_sizes: Sequence[int] = (8, 16, 32),
    placement: Optional[Dict[str, str]] = None,
    base_params: Optional[NetworkParameters] = None,
) -> DimensioningResult:
    """Find the cheapest (mesh, T) combination that fits ``spec``.

    Candidates are tried in increasing estimated-area order; the first
    one whose every use case allocates wins.  With ``placement`` the
    caller pins IPs to NIs; otherwise IPs are placed in raster order.

    Raises:
        AllocationError: if nothing within the search space fits.
    """
    base = base_params or daelite_parameters()
    points = _search_points(
        spec, max_side, slot_table_sizes, placement, base
    )
    for cost, width, height, params, chosen in points:
        if _fits(build_mesh(width, height), params, spec, chosen):
            return DimensioningResult(
                width=width,
                height=height,
                params=params,
                placement=chosen,
                area_ge=cost,
            )
    raise AllocationError(
        f"no mesh up to {max_side}x{max_side} with T in "
        f"{tuple(slot_table_sizes)} fits the platform spec"
    )
