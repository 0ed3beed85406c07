"""Unit tests for path finding."""

from __future__ import annotations

import pytest

from repro.alloc import (
    cached_k_shortest_paths,
    cached_route,
    k_shortest_paths,
    shortest_path,
    xy_path,
)
from repro.errors import RoutingError
from repro.topology import build_mesh, build_ring


@pytest.fixture
def mesh():
    return build_mesh(3, 3)


class TestShortestPath:
    def test_endpoints_included(self, mesh):
        path = shortest_path(mesh, "NI00", "NI22")
        assert path[0] == "NI00" and path[-1] == "NI22"
        assert len(path) == 2 + 5  # 4 routers... NI00 R.. R.. NI22

    def test_minimal_length(self, mesh):
        assert len(shortest_path(mesh, "NI00", "NI10")) == 4

    def test_non_ni_rejected(self, mesh):
        with pytest.raises(RoutingError):
            shortest_path(mesh, "R00", "NI22")

    def test_self_route_rejected(self, mesh):
        with pytest.raises(RoutingError):
            shortest_path(mesh, "NI00", "NI00")


class TestXyPath:
    def test_x_before_y(self, mesh):
        path = xy_path(mesh, "NI00", "NI22")
        assert path == (
            "NI00",
            "R00",
            "R10",
            "R20",
            "R21",
            "R22",
            "NI22",
        )

    def test_same_router_pair(self):
        mesh = build_mesh(2, 2, nis_per_router=2)
        path = xy_path(mesh, "NI00", "NI00_1")
        assert path == ("NI00", "R00", "NI00_1")

    def test_matches_shortest_length(self, mesh):
        for dst in ("NI21", "NI12", "NI02"):
            assert len(xy_path(mesh, "NI00", dst)) == len(
                shortest_path(mesh, "NI00", dst)
            )

    def test_needs_positions(self):
        ring = build_ring(4)
        for element in ring.elements.values():
            element.position = None
        with pytest.raises(RoutingError, match="positions"):
            xy_path(ring, "NI0", "NI2")


class TestKShortest:
    def test_distinct_simple_paths(self, mesh):
        paths = k_shortest_paths(mesh, "NI00", "NI22", 3)
        assert len(paths) == 3
        assert len({tuple(p) for p in paths}) == 3
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths)

    def test_k_larger_than_available(self):
        mesh = build_mesh(2, 1)
        paths = k_shortest_paths(mesh, "NI00", "NI10", 10)
        assert len(paths) == 1  # only one simple path in a 2x1 mesh

    def test_invalid_k(self, mesh):
        with pytest.raises(RoutingError):
            k_shortest_paths(mesh, "NI00", "NI22", 0)


class TestRouteCache:
    def test_cached_route_matches_uncached(self, mesh):
        assert cached_route(mesh, "xy", "NI00", "NI22") == xy_path(
            mesh, "NI00", "NI22"
        )
        assert cached_route(
            mesh, "shortest", "NI00", "NI22"
        ) == shortest_path(mesh, "NI00", "NI22")

    def test_repeat_lookup_hits_the_memo(self, mesh):
        first = cached_route(mesh, "xy", "NI00", "NI22")
        assert cached_route(mesh, "xy", "NI00", "NI22") is first

    def test_unknown_routing_rejected(self, mesh):
        with pytest.raises(RoutingError, match="unknown routing"):
            cached_route(mesh, "zigzag", "NI00", "NI22")

    def test_caches_are_per_topology(self):
        left, right = build_mesh(2, 2), build_mesh(2, 2)
        assert cached_route(left, "xy", "NI00", "NI11") == cached_route(
            right, "xy", "NI00", "NI11"
        )
        assert cached_route(
            left, "xy", "NI00", "NI11"
        ) is not cached_route(right, "xy", "NI00", "NI11")

    def test_topology_mutation_invalidates(self):
        mesh = build_mesh(3, 3)
        before = cached_route(mesh, "shortest", "NI00", "NI22")
        # Splice a shortcut router across the diagonal; the memoized
        # 4-hop route must not survive the structural change.
        mesh.add_router("RX")
        mesh.connect("R00", "RX")
        mesh.connect("RX", "R22")
        after = cached_route(mesh, "shortest", "NI00", "NI22")
        assert len(after) < len(before)

    def test_link_failure_invalidates(self, mesh):
        before = cached_route(mesh, "shortest", "NI00", "NI22")
        assert ("R12", "R22") in zip(before, before[1:])
        mesh.fail_link("R12", "R22")
        after = cached_route(mesh, "shortest", "NI00", "NI22")
        assert len(after) == len(before)
        assert not any(
            mesh.link_is_failed(u, v) for u, v in zip(after, after[1:])
        )

    def test_link_restore_invalidates(self, mesh):
        before = cached_route(mesh, "shortest", "NI00", "NI22")
        mesh.fail_link("R12", "R22")
        cached_route(mesh, "shortest", "NI00", "NI22")
        mesh.restore_link("R12", "R22")
        restored = cached_route(mesh, "shortest", "NI00", "NI22")
        # The restored link rejoins the adjacency at the end, so the
        # tie-break now picks another hop-minimal route.
        assert restored == (
            "NI00", "R00", "R10", "R11", "R21", "R22", "NI22"
        )
        assert restored != before and len(restored) == len(before)

    def test_cached_k_shortest_matches_and_copies(self, mesh):
        direct = k_shortest_paths(mesh, "NI00", "NI22", 3)
        cached = cached_k_shortest_paths(mesh, "NI00", "NI22", 3)
        assert cached == direct
        cached.append(("bogus",))  # callers get a private copy
        assert cached_k_shortest_paths(mesh, "NI00", "NI22", 3) == direct
