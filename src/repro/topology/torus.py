"""Torus topology builder (mesh with wrap-around links)."""

from __future__ import annotations

from ..errors import TopologyError
from .mesh import ni_name, router_name
from .topology import Topology


def build_torus(
    width: int,
    height: int,
    nis_per_router: int = 1,
    name: str = "",
) -> Topology:
    """Build a ``width`` x ``height`` torus of routers with attached NIs.

    Every router connects to four neighbours with wrap-around at the grid
    edges, so all routers have the same arity (4 + NIs).  Degenerate
    dimensions of 1 or 2 are handled by omitting wrap links that would
    duplicate an existing edge.

    Raises:
        TopologyError: on non-positive dimensions.
    """
    if width < 1 or height < 1:
        raise TopologyError("torus dimensions must be positive")
    topology = Topology(name or f"torus{width}x{height}")
    for x in range(width):
        for y in range(height):
            router = topology.add_router(router_name(x, y))
            router.position = (x, y)
    for x in range(width):
        for y in range(height):
            east = router_name((x + 1) % width, y)
            north = router_name(x, (y + 1) % height)
            here = router_name(x, y)
            if east != here and not topology.has_link(here, east):
                topology.connect(here, east)
            if north != here and not topology.has_link(here, north):
                topology.connect(here, north)
    for x in range(width):
        for y in range(height):
            for k in range(nis_per_router):
                ni = topology.add_ni(ni_name(x, y, k))
                ni.position = (x, y)
                topology.connect(ni.name, router_name(x, y))
    return topology
