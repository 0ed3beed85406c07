"""The topology's searches return networkx's paths.

:class:`Topology` owns its routable graph and searches it with ports of
networkx's algorithms: the bidirectional search (``shortest_path``),
Yen's k-shortest simple paths (``shortest_simple_paths``) and a
multi-source search for multicast grafts (``path_from_nearest``).
Routes feed slot allocation, so a different tie-break would move
allocation decisions and every pinned digest downstream: each port must
return networkx's paths exactly, list links in ``nx.Graph.edges`` order
and agree with ``nx.is_connected``, on fresh topologies and after links
fail and come back.

The reference graph is not a copy of the port's adjacency: while
:func:`mirrored` is open, every element a topology adds and every
``connect`` / ``fail_link`` / ``restore_link`` it makes is replayed onto
an ``nx.Graph`` of its own.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.alloc import k_shortest_paths, pathfind
from repro.errors import RoutingError, TopologyError
from repro.topology import Topology, build_mesh, build_ring, build_torus

from ..properties.test_random_topology_props import random_topologies
from ..sim.test_vector_equivalence import plant


def _mirroring(method, apply):
    def mirrored_method(topology, *args):
        result = method(topology, *args)
        apply(vars(topology).setdefault("reference", nx.Graph()), *args)
        return result

    return mirrored_method


@contextmanager
def mirrored():
    """Replay each topology's structural changes onto its
    :func:`reference` graph while open.  Whatever ``Topology`` holds at
    entry is wrapped, so a planted mutant is mirrored too."""
    replay = {
        "_add_element": lambda graph, name, _kind: graph.add_node(name),
        "connect": nx.Graph.add_edge,
        "fail_link": nx.Graph.remove_edge,
        "restore_link": nx.Graph.add_edge,
    }
    with pytest.MonkeyPatch.context() as patch:
        for name, apply in replay.items():
            patch.setattr(
                Topology, name, _mirroring(getattr(Topology, name), apply)
            )
        yield


def reference(topology):
    """The ``nx.Graph`` :func:`mirrored` kept for ``topology``."""
    return vars(topology)["reference"]


def reference_path(topology, src, dst):
    """``networkx.shortest_path`` with the port's error contract."""
    topology.element(src)
    topology.element(dst)
    try:
        return nx.shortest_path(reference(topology), src, dst)
    except nx.NetworkXNoPath:
        raise TopologyError(f"no path {src!r} -> {dst!r}") from None


def reference_k_paths(topology, src, dst, k):
    """``networkx.shortest_simple_paths`` with the port's error contract."""
    try:
        paths = nx.shortest_simple_paths(reference(topology), src, dst)
        return [tuple(path) for path in itertools.islice(paths, k)]
    except nx.NetworkXNoPath:
        raise RoutingError(f"no path {src!r} -> {dst!r}") from None


def reference_graft(topology, tree_nodes, tree_path_to, dst):
    """``pathfind.path_via_tree`` over ``networkx.multi_source_dijkstra``."""
    try:
        _, extension = nx.multi_source_dijkstra(
            reference(topology), tree_nodes, dst
        )
    except nx.NetworkXNoPath:
        raise RoutingError(
            f"multicast destination {dst!r} unreachable"
        ) from None
    return tuple(list(tree_path_to[extension[0]]) + extension[1:])


def port_graft(topology, tree_nodes, tree_path_to, dst):
    """Looked up at call time, so a planted ``path_via_tree`` runs."""
    return pathfind.path_via_tree(topology, tree_nodes, tree_path_to, dst)


def outcome(route, *args):
    """A route's result, or the text of the typed error it raised."""
    try:
        return route(*args)
    except (TopologyError, RoutingError) as error:
        return f"{type(error).__name__}: {error}"


def grow_tree(graft, topology, src, dsts):
    """The branches of a multicast tree grafted as the allocator grafts
    them: each destination onto the tree so far, in insertion order."""
    tree_path_to = {src: (src,)}
    branches = []
    for dst in dsts:
        branch = outcome(graft, topology, list(tree_path_to), tree_path_to, dst)
        branches.append(branch)
        if isinstance(branch, str):
            continue
        for position in range(1, len(branch)):
            tree_path_to.setdefault(branch[position], branch[: position + 1])
    return branches


def connected(topology):
    """Whether :meth:`Topology.validate` finds the topology connected."""
    try:
        topology.validate(max_elements=len(topology.elements), max_arity=99)
    except TopologyError as error:
        assert str(error) == "topology is not connected"
        return False
    return True


def mismatches(topology, pairs):
    """The pairs on which the port and networkx route differently."""
    return [
        (src, dst)
        for src, dst in pairs
        if outcome(Topology.shortest_path, topology, src, dst)
        != outcome(reference_path, topology, src, dst)
    ]


def structure_mismatches(topology, rng, samples=8):
    """The checks beyond hop-minimal routes on which the port and
    networkx disagree: link order, connectivity, ``k_shortest_paths``
    on ``samples`` NI pairs (k cycling through 1..8) and ``samples``
    multicast trees of up to four destinations."""
    wrong = []
    if topology.links()[::2] != list(reference(topology).edges):
        wrong.append("links")
    if connected(topology) != nx.is_connected(reference(topology)):
        wrong.append("connected")
    names = [element.name for element in topology.nis]
    for k in itertools.islice(itertools.cycle(range(1, 9)), samples):
        src, dst = rng.sample(names, 2)
        if outcome(k_shortest_paths, topology, src, dst, k) != outcome(
            reference_k_paths, topology, src, dst, k
        ):
            wrong.append(("k_shortest_paths", src, dst, k))
    for _ in range(samples):
        src, *dsts = rng.sample(names, min(len(names), 5))
        if grow_tree(port_graft, topology, src, dsts) != grow_tree(
            reference_graft, topology, src, dsts
        ):
            wrong.append(("path_via_tree", src, tuple(dsts)))
    return wrong


def ni_pairs(topology):
    names = [element.name for element in topology.nis]
    return list(itertools.permutations(names, 2))


def fail_restore_walk(seed=2026, steps=30, samples=300):
    """Disagreements along a seeded walk of link failures and restores
    on the 12x12 mesh, and how many partitioned pairs it compared."""
    with mirrored():
        mesh = build_mesh(12, 12)
        rng = random.Random(seed)
        names = [element.name for element in mesh.nis]
        failed = []
        wrong = []
        partitioned = 0
        for _ in range(steps):
            if failed and rng.random() < 0.4:
                mesh.restore_link(*failed.pop(rng.randrange(len(failed))))
            else:
                link = rng.choice(sorted(mesh.links()[::2]))
                mesh.fail_link(*link)
                failed.append(link)
            for _ in range(samples):
                src, dst = rng.sample(names, 2)
                expected = outcome(reference_path, mesh, src, dst)
                partitioned += isinstance(expected, str)
                if outcome(Topology.shortest_path, mesh, src, dst) != expected:
                    wrong.append((src, dst))
            wrong += structure_mismatches(mesh, rng, samples=2)
        return wrong, partitioned


class TestPathsAreNetworkxPaths:
    @pytest.mark.parametrize("side", [4, 8, 12])
    def test_every_ni_pair_of_a_mesh(self, side):
        with mirrored():
            mesh = build_mesh(side, side)
        assert mismatches(mesh, ni_pairs(mesh)) == []
        assert structure_mismatches(mesh, random.Random(side)) == []

    def test_ring(self):
        with mirrored():
            ring = build_ring(8, nis_per_router=2)
        assert mismatches(ring, ni_pairs(ring)) == []
        assert structure_mismatches(ring, random.Random(8)) == []

    def test_torus(self):
        with mirrored():
            torus = build_torus(4, 3)
        assert mismatches(torus, ni_pairs(torus)) == []
        assert structure_mismatches(torus, random.Random(12)) == []

    def test_mesh_with_two_nis_per_router(self):
        with mirrored():
            mesh = build_mesh(4, 4, nis_per_router=2)
        assert mismatches(mesh, ni_pairs(mesh)) == []
        assert structure_mismatches(mesh, random.Random(4)) == []

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_topology_every_element_pair(self, data):
        with mirrored():
            topology = data.draw(random_topologies())
        pairs = itertools.product(topology.elements, repeat=2)
        assert mismatches(topology, pairs) == []
        rng = random.Random(len(topology.elements))
        assert structure_mismatches(topology, rng) == []

    def test_fail_restore_walk(self):
        wrong, partitioned = fail_restore_walk()
        assert wrong == []
        assert partitioned > 0

    def test_restore_moves_the_tie_break(self):
        """A restored link rejoins both endpoints' adjacency at the
        end, so the same graph routes some pair differently from a
        freshly built one; the port follows the live order."""
        with mirrored():
            fresh, restored = build_mesh(4, 4), build_mesh(4, 4)
            restored.fail_link("R11", "R12")
            restored.restore_link("R11", "R12")
        pairs = ni_pairs(fresh)
        assert mismatches(restored, pairs) == []
        assert any(
            fresh.shortest_path(src, dst)
            != restored.shortest_path(src, dst)
            for src, dst in pairs
        )

    def test_partitioned_pair_raises_typed(self):
        mesh = build_mesh(3, 3)
        mesh.fail_link("NI22", "R22")
        with pytest.raises(TopologyError, match="no path 'NI00' -> 'NI22'"):
            mesh.shortest_path("NI00", "NI22")
        with pytest.raises(TopologyError, match="unknown element"):
            mesh.shortest_path("NI00", "NI99")
        assert mesh.shortest_path("R11", "R11") == ["R11"]
        with pytest.raises(RoutingError, match="no path 'NI00' -> 'NI22'"):
            k_shortest_paths(mesh, "NI00", "NI22", 3)
        with pytest.raises(RoutingError, match="'NI22' unreachable"):
            pathfind.path_via_tree(mesh, ["NI00"], {"NI00": ("NI00",)}, "NI22")
        with pytest.raises(TopologyError, match="not connected"):
            mesh.validate()


def survives_identity():
    """Whether the identity checks above still pass: every NI pair of
    the 8x8 mesh, then the fail/restore walk.  64 samples of the rest:
    a graft mutant shows only on the trees with an equal-cost tie, and
    a set-ordering mutant only on some of those, by hash seed."""
    with mirrored():
        mesh = build_mesh(8, 8)
    return (
        mismatches(mesh, ni_pairs(mesh)) == []
        and structure_mismatches(mesh, random.Random(8), samples=64) == []
        and fail_restore_walk(steps=10, samples=100)[0] == []
    )


class TestPlantedSearchMutantsAreKilled:
    """Each tie-break the port keeps, dropped, changes some route."""

    def test_forward_fringe_always_expanded(self, monkeypatch):
        plant(
            monkeypatch,
            "if len(forward) <= len(reverse):",
            "if forward:",
            owner=Topology,
            method="shortest_path",
        )
        assert not survives_identity()

    def test_sorted_neighbour_order(self, monkeypatch):
        plant(
            monkeypatch,
            "tuple(index[w] for w in adjacency[name])",
            "tuple(sorted(index[w] for w in adjacency[name]))",
            owner=Topology,
            method="_adjacency",
        )
        assert not survives_identity()

    def test_snapshot_not_rebuilt_when_version_moves(self, monkeypatch):
        plant(
            monkeypatch,
            "if snapshot is None or snapshot[0] != self.version:",
            "if snapshot is None:",
            owner=Topology,
            method="_adjacency",
        )
        assert not survives_identity()

    def test_edge_banned_in_one_direction_only(self, monkeypatch):
        plant(
            monkeypatch,
            "neighbours[v] = tuple(x for x in neighbours[v] if x != w)\n"
            "            neighbours[w] = tuple(x for x in neighbours[w] if x != v)",
            "neighbours[v] = tuple(x for x in neighbours[v] if x != w)",
            owner=Topology,
            method="shortest_simple_paths",
        )
        assert not survives_identity()

    def test_graft_sources_passed_through_a_set(self, monkeypatch):
        plant(
            monkeypatch,
            "topology.path_from_nearest(tree_nodes, dst_ni)",
            "topology.path_from_nearest(set(tree_nodes), dst_ni)",
            owner=pathfind,
            method="path_via_tree",
        )
        assert not survives_identity()

    def test_restore_readds_the_edge_at_the_front(self, monkeypatch):
        plant(
            monkeypatch,
            'raise TopologyError(f"link {a!r}<->{b!r} is not failed")\n'
            "        self.graph[a][b] = None\n"
            "        self.graph[b][a] = None",
            'raise TopologyError(f"link {a!r}<->{b!r} is not failed")\n'
            "        self.graph[a] = {b: None, **self.graph[a]}\n"
            "        self.graph[b] = {a: None, **self.graph[b]}",
            owner=Topology,
            method="restore_link",
        )
        assert not survives_identity()

