"""Hop-minimal routes are networkx's routes.

:meth:`Topology.shortest_path` ports networkx's bidirectional search to
an integer-indexed adjacency snapshot.  Routes feed slot allocation, so
a different tie-break would move allocation decisions and every pinned
digest downstream: the port must return ``networkx.shortest_path``'s
path exactly, on fresh topologies and after links fail and come back.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.errors import TopologyError
from repro.topology import Topology, build_mesh, build_ring

from ..properties.test_random_topology_props import random_topologies
from ..sim.test_vector_equivalence import plant


def reference_path(topology, src, dst):
    """``networkx.shortest_path`` with the port's error contract."""
    topology.element(src)
    topology.element(dst)
    try:
        return nx.shortest_path(topology.graph, src, dst)
    except nx.NetworkXNoPath:
        raise TopologyError(f"no path {src!r} -> {dst!r}") from None


def outcome(route, topology, src, dst):
    """A route's path, or the text of the ``TopologyError`` it raised."""
    try:
        return route(topology, src, dst)
    except TopologyError as error:
        return f"TopologyError: {error}"


def mismatches(topology, pairs):
    """The pairs on which the port and networkx disagree."""
    return [
        (src, dst)
        for src, dst in pairs
        if outcome(Topology.shortest_path, topology, src, dst)
        != outcome(reference_path, topology, src, dst)
    ]


def ni_pairs(topology):
    names = [element.name for element in topology.nis]
    return list(itertools.permutations(names, 2))


def fail_restore_walk(seed=2026, steps=30, samples=300):
    """Disagreements along a seeded walk of link failures and restores
    on the 12x12 mesh, and how many partitioned pairs it compared."""
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
            link = rng.choice(sorted(mesh.graph.edges))
            mesh.fail_link(*link)
            failed.append(link)
        for _ in range(samples):
            src, dst = rng.sample(names, 2)
            expected = outcome(reference_path, mesh, src, dst)
            partitioned += isinstance(expected, str)
            if outcome(Topology.shortest_path, mesh, src, dst) != expected:
                wrong.append((src, dst))
    return wrong, partitioned


class TestPathsAreNetworkxPaths:
    @pytest.mark.parametrize("side", [4, 8, 12])
    def test_every_ni_pair_of_a_mesh(self, side):
        mesh = build_mesh(side, side)
        assert mismatches(mesh, ni_pairs(mesh)) == []

    def test_ring(self):
        ring = build_ring(8, nis_per_router=2)
        assert mismatches(ring, ni_pairs(ring)) == []

    def test_mesh_with_two_nis_per_router(self):
        mesh = build_mesh(4, 4, nis_per_router=2)
        assert mismatches(mesh, ni_pairs(mesh)) == []

    @settings(max_examples=30, deadline=None)
    @given(random_topologies())
    def test_random_topology_every_element_pair(self, topology):
        pairs = itertools.product(topology.elements, repeat=2)
        assert mismatches(topology, pairs) == []

    def test_fail_restore_walk(self):
        wrong, partitioned = fail_restore_walk()
        assert wrong == []
        assert partitioned > 0

    def test_restore_moves_the_tie_break(self):
        """A restored link rejoins both endpoints' adjacency at the
        end, so the same graph routes some pair differently from a
        freshly built one; the port follows the live order."""
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


def survives_identity():
    """Whether the identity checks above still pass: every NI pair of
    the 8x8 mesh, then the fail/restore walk."""
    mesh = build_mesh(8, 8)
    return (
        mismatches(mesh, ni_pairs(mesh)) == []
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
