"""Path finding over the element graph.

Channels are routed NI -> router ... router -> NI.  Three strategies are
provided: hop-minimal (breadth-first), dimension-ordered XY (for meshes,
deterministic and deadlock-free — though contention-free TDM needs no
deadlock argument, XY keeps schedules reproducible), and k-shortest
simple paths for the multipath allocator.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Tuple

from ..errors import RoutingError, TopologyError
from ..topology import ElementKind, Topology
from ..topology.mesh import router_name


def _check_endpoints(topology: Topology, src_ni: str, dst_ni: str) -> None:
    for name in (src_ni, dst_ni):
        if topology.element(name).kind is not ElementKind.NI:
            raise RoutingError(f"{name!r} is not an NI")
    if src_ni == dst_ni:
        raise RoutingError(f"cannot route {src_ni!r} to itself")


def shortest_path(
    topology: Topology, src_ni: str, dst_ni: str
) -> Tuple[str, ...]:
    """Hop-minimal path between two NIs.

    Raises:
        RoutingError: if the endpoints are not NIs or are disconnected.
    """
    _check_endpoints(topology, src_ni, dst_ni)
    try:
        return tuple(topology.shortest_path(src_ni, dst_ni))
    except TopologyError as error:
        raise RoutingError(str(error)) from error


def xy_path(
    topology: Topology, src_ni: str, dst_ni: str
) -> Tuple[str, ...]:
    """Dimension-ordered (X then Y) path on a mesh.

    Requires every element to carry grid coordinates (meshes built by
    :func:`~repro.topology.build_mesh` do).

    Raises:
        RoutingError: if coordinates are missing or an expected mesh
            router does not exist.
    """
    _check_endpoints(topology, src_ni, dst_ni)
    src = topology.element(src_ni)
    dst = topology.element(dst_ni)
    if src.position is None or dst.position is None:
        raise RoutingError("XY routing needs grid positions")
    x, y = src.position
    dst_x, dst_y = dst.position
    path: List[str] = [src_ni, router_name(x, y)]
    while x != dst_x:
        x += 1 if dst_x > x else -1
        path.append(router_name(x, y))
    while y != dst_y:
        y += 1 if dst_y > y else -1
        path.append(router_name(x, y))
    path.append(dst_ni)
    for name in path[1:-1]:
        if (
            name not in topology.elements
            or topology.element(name).kind is not ElementKind.ROUTER
        ):
            raise RoutingError(
                f"XY routing expected mesh router {name!r}"
            )
    # Collapse the degenerate case where src and dst share a router.
    deduped: List[str] = []
    for name in path:
        if not deduped or deduped[-1] != name:
            deduped.append(name)
    # XY is computed from grid coordinates, so unlike the graph-based
    # routers it must check explicitly that no hop crosses a failed (or
    # otherwise absent) link.
    for u, v in zip(deduped, deduped[1:]):
        if not topology.has_link(u, v):
            raise RoutingError(
                f"XY route {u!r} -> {v!r} crosses a failed or missing "
                f"link"
            )
    return tuple(deduped)


def k_shortest_paths(
    topology: Topology, src_ni: str, dst_ni: str, k: int
) -> List[Tuple[str, ...]]:
    """Up to ``k`` simple paths in non-decreasing length order.

    Raises:
        RoutingError: if no path exists at all.
    """
    _check_endpoints(topology, src_ni, dst_ni)
    if k < 1:
        raise RoutingError("k must be >= 1")
    paths = topology.shortest_simple_paths(src_ni, dst_ni)
    try:
        return [tuple(path) for path in islice(paths, k)]
    except TopologyError as error:
        raise RoutingError(str(error)) from error


# -- route caching -------------------------------------------------------------
#
# Routing is a pure function of the topology's structure and the
# endpoint pair, so routes are memoized in the topology's own memo,
# which every structural change (``version``) empties.


def cached_route(
    topology: Topology, routing: str, src_ni: str, dst_ni: str
) -> Tuple[str, ...]:
    """Memoized :func:`xy_path` / :func:`shortest_path`.

    Raises:
        RoutingError: on an unknown routing policy, or whatever the
            underlying router raises (failures are not cached).
    """
    routes = topology.route_memo()
    key = (routing, src_ni, dst_ni)
    path = routes.get(key)
    if path is None:
        if routing == "xy":
            path = xy_path(topology, src_ni, dst_ni)
        elif routing == "shortest":
            path = shortest_path(topology, src_ni, dst_ni)
        else:
            raise RoutingError(f"unknown routing {routing!r}")
        routes[key] = path
    return path


def cached_k_shortest_paths(
    topology: Topology, src_ni: str, dst_ni: str, k: int
) -> List[Tuple[str, ...]]:
    """Memoized :func:`k_shortest_paths` (keyed also on ``k``)."""
    routes = topology.route_memo()
    key = ("ksp", src_ni, dst_ni, k)
    paths = routes.get(key)
    if paths is None:
        paths = k_shortest_paths(topology, src_ni, dst_ni, k)
        routes[key] = paths
    return list(paths)


def path_via_tree(
    topology: Topology,
    tree_nodes: List[str],
    tree_path_to: dict,
    dst_ni: str,
) -> Tuple[str, ...]:
    """Cheapest path to ``dst_ni`` that grafts onto an existing tree.

    ``tree_nodes`` are elements already in the multicast tree and
    ``tree_path_to[n]`` is the (unique) tree path from the source NI to
    node *n*.  The result is that tree path extended by the shortest
    graph path from the best graft point to ``dst_ni``.

    Raises:
        RoutingError: if the destination is unreachable.
    """
    if topology.element(dst_ni).kind is not ElementKind.NI:
        raise RoutingError(f"{dst_ni!r} is not an NI")
    try:
        # The sources go in as given (the tree's insertion order), never
        # as a set: among equal-cost graft points the search keeps the
        # first it was handed, and a set of strings iterates in hash
        # order — the allocated tree would follow PYTHONHASHSEED.
        extension = topology.path_from_nearest(tree_nodes, dst_ni)
    except TopologyError:
        raise RoutingError(
            f"multicast destination {dst_ni!r} unreachable"
        ) from None
    graft = extension[0]
    return tuple(list(tree_path_to[graft]) + list(extension[1:]))
