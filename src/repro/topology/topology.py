"""Network topology description.

A :class:`Topology` is a graph of network *elements* — routers and network
interfaces (NIs) — joined by bidirectional link pairs.  Each element has
numbered ports; port *p* is used symmetrically for the incoming and the
outgoing link to the same neighbour, as in the daelite RTL where a router's
input *i* / output *i* wire pairs go to one neighbour.

Element IDs are small integers because the 7-bit configuration word must
encode them: with the paper's parameters at most 64 elements (routers and
NIs together) are addressable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from itertools import count
from typing import AbstractSet, Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import TopologyError


class ElementKind(Enum):
    """The two kinds of network elements."""

    ROUTER = "router"
    NI = "ni"


@dataclass
class Element:
    """One network element (router or NI).

    Attributes:
        name: Unique human-readable name (e.g. ``"R00"`` or ``"NI10"``).
        kind: Router or NI.
        element_id: Dense integer ID used by the configuration protocol.
        neighbors: Neighbour element names, indexed by port number.
        position: Optional grid coordinates for regular topologies.
    """

    name: str
    kind: ElementKind
    element_id: int
    neighbors: List[str] = field(default_factory=list)
    position: Optional[Tuple[int, int]] = None

    @property
    def arity(self) -> int:
        """Number of connected ports."""
        return len(self.neighbors)

    def port_to(self, neighbor: str) -> int:
        """Port number facing ``neighbor``.

        Raises:
            TopologyError: if ``neighbor`` is not adjacent.
        """
        try:
            return self.neighbors.index(neighbor)
        except ValueError:
            raise TopologyError(
                f"{self.name!r} has no port towards {neighbor!r}"
            ) from None


#: ``(version, names, index, neighbours, routes)``: element ``names`` in
#: adjacency order, ``index[name]`` its position there,
#: ``neighbours[i]`` the indices adjacent to element *i*, in adjacency
#: order too, and ``routes`` the route memo of that version.
Snapshot = Tuple[
    int, List[str], Dict[str, int], List[Tuple[int, ...]], Dict[tuple, Any]
]


def _meet(
    neighbours: List[Tuple[int, ...]],
    source: int,
    target: int,
    banned_nodes: AbstractSet[int] = frozenset(),
    banned_edges: AbstractSet[Tuple[int, int]] = frozenset(),
) -> Optional[Tuple[List[int], List[int], int]]:
    """Bidirectional breadth-first search from ``source`` and ``target``.

    A port of the reference graph library's search (DESIGN.md §6),
    tie-breaks included: the forward fringe expands while it is no
    longer than the reverse one, and the search stops at the first
    neighbour the other side has already seen.  It avoids the banned
    elements and links, a link in both directions.  Returns ``(pred,
    succ, meet)`` — the chain from ``meet`` back to ``source`` and on to
    ``target``, ended by -1, with -2 marking an element that side has
    not seen — or None when the two are disconnected.
    """
    if banned_nodes or banned_edges:
        if source in banned_nodes or target in banned_nodes:
            return None
        neighbours = neighbours[:]
        for v in banned_nodes:
            for w in neighbours[v]:
                neighbours[w] = tuple(x for x in neighbours[w] if x != v)
        for v, w in banned_edges:
            neighbours[v] = tuple(x for x in neighbours[v] if x != w)
            neighbours[w] = tuple(x for x in neighbours[w] if x != v)
    pred = [-2] * len(neighbours)
    succ = pred[:]
    pred[source] = -1
    succ[target] = -1
    if source == target:
        return pred, succ, source
    forward = [source]
    reverse = [target]
    while forward and reverse:
        if len(forward) <= len(reverse):
            level = forward
            forward = []
            for v in level:
                for w in neighbours[v]:
                    if pred[w] == -2:
                        forward.append(w)
                        pred[w] = v
                    if succ[w] != -2:
                        return pred, succ, w
        else:
            level = reverse
            reverse = []
            for v in level:
                for w in neighbours[v]:
                    if succ[w] == -2:
                        succ[w] = v
                        reverse.append(w)
                    if pred[w] != -2:
                        return pred, succ, w
    return None


def _chain(found: Tuple[List[int], List[int], int]) -> List[int]:
    """The path :func:`_meet` found: the ``pred`` chain to the meeting
    element, then the ``succ`` chain on from it."""
    pred, succ, meet = found
    path: List[int] = []
    w = meet
    while w >= 0:
        path.append(w)
        w = pred[w]
    path.reverse()
    w = succ[meet]
    while w >= 0:
        path.append(w)
        w = succ[w]
    return path


def _spread(
    neighbours: List[Tuple[int, ...]], sources: Iterable[int], target: int
) -> List[int]:
    """Breadth-first search from all ``sources``, seeded in the order
    given, until ``target`` is reached: ``pred`` of each element, -1 for
    a source and -2 for one not reached.  An element keeps the first
    predecessor that reaches it, so the first of equally near sources
    wins, as in a unit-weight multi-source Dijkstra search."""
    pred = [-2] * len(neighbours)
    fringe: List[int] = []
    for v in sources:
        if pred[v] == -2:
            pred[v] = -1
            fringe.append(v)
    for v in fringe:
        if v == target:
            break
        for w in neighbours[v]:
            if pred[w] == -2:
                pred[w] = v
                fringe.append(w)
    return pred


class Topology:
    """A network of routers and NIs with numbered, symmetric ports."""

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self.elements: Dict[str, Element] = {}
        #: The routable graph: each element's neighbours across links not
        #: failed, in the order the links were added or restored.  A
        #: failed link keeps its ports (element ``neighbors``) and leaves
        #: only this graph: a wired pair absent from it is failed.
        self.graph: Dict[str, Dict[str, None]] = {}
        #: Structural version, bumped on every element/link mutation.
        #: Derived caches (the adjacency snapshot and the route memo)
        #: key on it so they never serve paths from a stale structure.
        self.version = 0
        #: Integer-indexed copy of :attr:`graph` and route memo, rebuilt
        #: by :meth:`_adjacency` when :attr:`version` has moved.
        self._snapshot: Optional[Snapshot] = None

    # -- construction ---------------------------------------------------------

    def _add_element(self, name: str, kind: ElementKind) -> Element:
        if name in self.elements:
            raise TopologyError(f"duplicate element name {name!r}")
        element = Element(
            name=name, kind=kind, element_id=len(self.elements)
        )
        self.elements[name] = element
        self.graph[name] = {}
        self.version += 1
        return element

    def add_router(self, name: str) -> Element:
        """Add a router element."""
        return self._add_element(name, ElementKind.ROUTER)

    def add_ni(self, name: str) -> Element:
        """Add a network-interface element."""
        return self._add_element(name, ElementKind.NI)

    def connect(self, a: str, b: str) -> None:
        """Join elements ``a`` and ``b`` with a bidirectional link pair.

        Raises:
            TopologyError: on unknown elements, self-loops, duplicate
                links, or an NI that already has its single network port.
        """
        if a == b:
            raise TopologyError(f"self-loop on {a!r}")
        for name in (a, b):
            if name not in self.elements:
                raise TopologyError(f"unknown element {name!r}")
        # The wiring, not the routable graph: a failed link keeps its ports.
        if b in self.elements[a].neighbors:
            raise TopologyError(f"duplicate link {a!r}<->{b!r}")
        for name in (a, b):
            element = self.elements[name]
            if element.kind is ElementKind.NI and element.arity >= 1:
                raise TopologyError(
                    f"NI {name!r} already connected; NIs have one port"
                )
        self.elements[a].neighbors.append(b)
        self.elements[b].neighbors.append(a)
        self.graph[a][b] = None
        self.graph[b][a] = None
        self.version += 1

    # -- link failure ---------------------------------------------------------

    def fail_link(self, a: str, b: str) -> None:
        """Mask the bidirectional link pair ``a <-> b`` as failed.

        The edge leaves the routable graph (so every path finder and
        the allocator's route cache — keyed on :attr:`version` — avoid
        it from now on) but the elements keep their ports: a failed
        link is broken, not unwired.

        Raises:
            TopologyError: on unknown elements, a non-existent link, or
                a link that is already failed.
        """
        self.element(a)
        self.element(b)
        if self.link_is_failed(a, b):
            raise TopologyError(f"link {a!r}<->{b!r} already failed")
        if not self.has_link(a, b):
            raise TopologyError(f"no link {a!r}<->{b!r}")
        del self.graph[a][b]
        del self.graph[b][a]
        self.version += 1

    def restore_link(self, a: str, b: str) -> None:
        """Return a previously failed link pair to service.

        Raises:
            TopologyError: if the link is not currently failed.
        """
        if not self.link_is_failed(a, b):
            raise TopologyError(f"link {a!r}<->{b!r} is not failed")
        self.graph[a][b] = None
        self.graph[b][a] = None
        self.version += 1

    def link_is_failed(self, a: str, b: str) -> bool:
        """True if ``a <-> b`` is wired but out of the routable graph."""
        element = self.elements.get(a)
        return (
            element is not None
            and b in element.neighbors
            and not self.has_link(a, b)
        )

    def has_link(self, a: str, b: str) -> bool:
        """True if ``a <-> b`` is a routable (wired, not failed) link."""
        return b in self.graph.get(a, ())

    # -- queries --------------------------------------------------------------

    def element(self, name: str) -> Element:
        """Look up an element by name.

        Raises:
            TopologyError: if it does not exist.
        """
        try:
            return self.elements[name]
        except KeyError:
            raise TopologyError(f"unknown element {name!r}") from None

    def element_by_id(self, element_id: int) -> Element:
        """Look up an element by its configuration ID."""
        for element in self.elements.values():
            if element.element_id == element_id:
                return element
        raise TopologyError(f"no element with id {element_id}")

    @property
    def routers(self) -> List[Element]:
        return [
            element
            for element in self.elements.values()
            if element.kind is ElementKind.ROUTER
        ]

    @property
    def nis(self) -> List[Element]:
        return [
            element
            for element in self.elements.values()
            if element.kind is ElementKind.NI
        ]

    def links(self) -> List[Tuple[str, str]]:
        """All directed links, both directions of every routable pair:
        each element in turn, with its neighbours not listed before it."""
        directed: List[Tuple[str, str]] = []
        listed: Set[str] = set()
        for a, adjacent in self.graph.items():
            for b in adjacent:
                if b not in listed:
                    directed.append((a, b))
                    directed.append((b, a))
            listed.add(a)
        return directed

    def ni_router(self, ni_name: str) -> str:
        """The router an NI attaches to.

        Raises:
            TopologyError: if ``ni_name`` is not a connected NI.
        """
        element = self.element(ni_name)
        if element.kind is not ElementKind.NI:
            raise TopologyError(f"{ni_name!r} is not an NI")
        if element.arity != 1:
            raise TopologyError(f"NI {ni_name!r} is not connected")
        return element.neighbors[0]

    def _adjacency(self) -> Snapshot:
        """The integer-indexed adjacency snapshot of the current version.

        It keeps :attr:`graph`'s iteration order: :meth:`restore_link`
        re-adds an edge at the end of both endpoints' adjacency, and the
        search's tie-breaks must see that live order.
        """
        snapshot = self._snapshot
        if snapshot is None or snapshot[0] != self.version:
            adjacency = self.graph
            names = list(adjacency)
            index = {name: i for i, name in enumerate(names)}
            neighbours = [
                tuple(index[w] for w in adjacency[name]) for name in names
            ]
            snapshot = self._snapshot = (
                self.version, names, index, neighbours, {}
            )
        return snapshot

    def shortest_path(self, src: str, dst: str) -> List[str]:
        """Hop-minimal element path from ``src`` to ``dst`` inclusive.

        Found by :func:`_meet` over integer indices; routes pick the
        links whose slots a request claims, so its tie-breaks are
        pinned (DESIGN.md §6).

        Raises:
            TopologyError: if either element is unknown or no path exists.
        """
        self.element(src)
        self.element(dst)
        _, names, index, neighbours, _ = self._adjacency()
        found = _meet(neighbours, index[src], index[dst])
        if found is None:
            raise TopologyError(f"no path {src!r} -> {dst!r}")
        return [names[w] for w in _chain(found)]

    def shortest_simple_paths(
        self, src: str, dst: str
    ) -> Iterator[List[str]]:
        """Every simple path from ``src`` to ``dst``, shortest first, by
        Yen's algorithm: each spur is a :func:`_meet` search banning the
        root's elements and the next link of each listed path with the
        same root.  Found paths wait in a heap of ``(length, counter,
        path)`` holding each path once, so equal lengths leave in the
        order found.

        Raises:
            TopologyError: if either element is unknown or no path exists.
        """
        self.element(src)
        self.element(dst)
        _, names, index, neighbours, _ = self._adjacency()
        target = index[dst]
        found = _meet(neighbours, index[src], target)
        if found is None:
            raise TopologyError(f"no path {src!r} -> {dst!r}")
        first = _chain(found)
        counter = count()
        heap = [(len(first), next(counter), first)]
        queued = {tuple(first)}
        listed: List[List[int]] = []
        while heap:
            _, _, path = heappop(heap)
            queued.remove(tuple(path))
            yield [names[w] for w in path]
            listed.append(path)
            banned_nodes: Set[int] = set()
            banned_edges: Set[Tuple[int, int]] = set()
            for i in range(1, len(path)):
                root = path[:i]
                for other in listed:
                    if other[:i] == root:
                        banned_edges.add((other[i - 1], other[i]))
                found = _meet(
                    neighbours, root[-1], target, banned_nodes, banned_edges
                )
                if found is not None:
                    spurred = root[:-1] + _chain(found)
                    if tuple(spurred) not in queued:
                        queued.add(tuple(spurred))
                        heappush(
                            heap, (len(spurred), next(counter), spurred)
                        )
                banned_nodes.add(root[-1])

    def path_from_nearest(
        self, sources: Iterable[str], dst: str
    ) -> List[str]:
        """Hop-minimal path to ``dst`` from the nearest of ``sources``; of
        equally near ones, the first given (:func:`_spread`).

        Raises:
            TopologyError: if ``dst`` is unknown or no source reaches it.
        """
        self.element(dst)
        _, names, index, neighbours, _ = self._adjacency()
        target = index[dst]
        pred = _spread(neighbours, (index[name] for name in sources), target)
        if pred[target] == -2:
            raise TopologyError(f"no path to {dst!r}")
        path: List[str] = []
        w = target
        while w >= 0:
            path.append(names[w])
            w = pred[w]
        path.reverse()
        return path

    def route_memo(self) -> Dict[tuple, Any]:
        """The routes :mod:`repro.alloc.pathfind` found on this version."""
        return self._adjacency()[4]

    def validate(self, max_elements: int = 64, max_arity: int = 7) -> None:
        """Check the configuration-protocol addressing limits.

        Raises:
            TopologyError: if the topology exceeds what a 7-bit
                configuration word can encode.
        """
        if len(self.elements) > max_elements:
            raise TopologyError(
                f"{len(self.elements)} elements exceed the addressing "
                f"limit of {max_elements}"
            )
        for element in self.elements.values():
            if element.kind is ElementKind.ROUTER and (
                element.arity > max_arity
            ):
                raise TopologyError(
                    f"router {element.name!r} arity {element.arity} "
                    f"exceeds {max_arity}"
                )
        if self.elements and -2 in _spread(self._adjacency()[3], [0], -1):
            raise TopologyError("topology is not connected")

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, routers={len(self.routers)}, "
            f"nis={len(self.nis)}, links={len(self.links()) // 2})"
        )
