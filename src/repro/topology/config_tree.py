"""Construction of the daelite configuration broadcast tree.

The configuration infrastructure is "a dedicated broadcast network with a
tree topology, with links running in parallel to a subset of the normal
data network links", rooted at the host's configuration module.  The tree
is "chosen in such a way as to minimize the distance from the host to any
of the network nodes" — i.e. a breadth-first (shortest-path) spanning tree
of the element graph rooted at the host element.

Every router *and* NI is a node of the tree; each node forwards the words
it receives to all of its children (forward/broadcast direction) and
merges child responses towards the root (reverse direction).  Like the
data network, each tree hop buffers twice, costing 2 cycles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import TopologyError
from .topology import Topology

#: Cycles per configuration-tree hop ("for reasons of symmetry data is
#: also buffered twice at each hop in the configuration tree").
CONFIG_HOP_CYCLES = 2


@dataclass
class ConfigTree:
    """A broadcast tree over all network elements.

    Attributes:
        root: Name of the element the configuration module attaches to.
        parent: Parent element per node (root maps to ``None``).
        children: Child list per node, in deterministic BFS order.
        depth: Tree depth per node (root = 0).
        max_depth: Depth of the farthest element from the host, set
            once by :func:`build_config_tree` (the tree does not change
            after it is built; no constructor argument can set it).
    """

    root: str
    parent: Dict[str, Optional[str]] = field(default_factory=dict)
    children: Dict[str, List[str]] = field(default_factory=dict)
    depth: Dict[str, int] = field(default_factory=dict)
    max_depth: int = field(init=False, default=0)

    @property
    def nodes(self) -> List[str]:
        """All tree nodes in BFS order from the root."""
        order: List[str] = []
        queue = deque([self.root])
        while queue:
            node = queue.popleft()
            order.append(node)
            queue.extend(self.children[node])
        return order

    def forward_latency(self, element: str) -> int:
        """Cycles for a config word to reach ``element`` from the root.

        Raises:
            TopologyError: if ``element`` is not in the tree.
        """
        if element not in self.depth:
            raise TopologyError(f"{element!r} not in configuration tree")
        return CONFIG_HOP_CYCLES * self.depth[element]

    def round_trip_latency(self, element: str) -> int:
        """Cycles for request to ``element`` plus response back."""
        return 2 * self.forward_latency(element)

    @property
    def broadcast_latency(self) -> int:
        """Cycles until a config word has reached every element."""
        return CONFIG_HOP_CYCLES * self.max_depth

    def path_from_root(self, element: str) -> List[str]:
        """Elements from the root to ``element`` inclusive."""
        if element not in self.parent:
            raise TopologyError(f"{element!r} not in configuration tree")
        path = [element]
        node: Optional[str] = element
        while self.parent[node] is not None:
            node = self.parent[node]
            path.append(node)
        path.reverse()
        return path

    def max_fanout(self) -> int:
        """Largest child count of any tree node ("parameterizable
        number of neighbors")."""
        return max((len(kids) for kids in self.children.values()), default=0)


def build_config_tree(topology: Topology, host: str) -> ConfigTree:
    """Breadth-first spanning tree of ``topology`` rooted at ``host``.

    BFS guarantees every element sits at its minimum possible distance
    from the host, which is exactly the paper's tree-selection criterion.
    Neighbour order follows port numbering so the tree is deterministic.

    Raises:
        TopologyError: if ``host`` is unknown or the graph is disconnected.
    """
    topology.element(host)
    tree = ConfigTree(root=host)
    tree.parent[host] = None
    tree.depth[host] = 0
    tree.children[host] = []
    queue = deque([host])
    while queue:
        node = queue.popleft()
        for neighbor in topology.element(node).neighbors:
            if neighbor in tree.parent:
                continue
            tree.parent[neighbor] = node
            tree.depth[neighbor] = tree.depth[node] + 1
            tree.children[neighbor] = []
            tree.children[node].append(neighbor)
            queue.append(neighbor)
    missing = set(topology.elements) - set(tree.parent)
    if missing:
        raise TopologyError(
            f"configuration tree cannot reach: {sorted(missing)}"
        )
    tree.max_depth = max(tree.depth.values())
    return tree
