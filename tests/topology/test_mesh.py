"""Unit tests for the regular topology builders."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.topology import (
    build_mesh,
    build_ring,
    build_torus,
    mesh_positions,
    ni_name,
    router_name,
)


class TestMesh:
    def test_2x2_element_counts(self):
        mesh = build_mesh(2, 2)
        assert len(mesh.routers) == 4
        assert len(mesh.nis) == 4
        assert len(mesh.links()) == 2 * (4 + 4)  # mesh + NI links, both ways

    def test_corner_router_arity(self):
        mesh = build_mesh(3, 3)
        assert mesh.element(router_name(0, 0)).arity == 3  # E, N, NI
        assert mesh.element(router_name(1, 1)).arity == 5  # 4 + NI

    def test_multiple_nis_per_router(self):
        mesh = build_mesh(2, 2, nis_per_router=2)
        assert len(mesh.nis) == 8
        assert mesh.element(ni_name(0, 0, 1)).name == "NI00_1"

    def test_zero_nis(self):
        mesh = build_mesh(2, 2, nis_per_router=0)
        assert mesh.nis == []

    def test_positions(self):
        mesh = build_mesh(2, 3)
        positions = mesh_positions(mesh)
        assert positions[router_name(1, 2)] == (1, 2)
        assert positions[ni_name(1, 2)] == (1, 2)

    def test_invalid_dimensions(self):
        with pytest.raises(TopologyError):
            build_mesh(0, 2)

    def test_validates_for_config(self):
        build_mesh(4, 4).validate()

    def test_1x1_mesh(self):
        mesh = build_mesh(1, 1)
        assert len(mesh.routers) == 1
        assert mesh.element("R00").arity == 1  # just the NI

    def test_positions_missing_raises(self):
        mesh = build_mesh(2, 2)
        mesh.add_router("extra")
        mesh.connect("extra", "R00")
        with pytest.raises(TopologyError, match="no grid position"):
            mesh_positions(mesh)


class TestTorus:
    def test_uniform_router_arity(self):
        torus = build_torus(3, 3)
        for router in torus.routers:
            assert router.arity == 5  # 4 wrap neighbours + NI

    def test_2x2_no_duplicate_edges(self):
        torus = build_torus(2, 2)
        torus.validate()
        # 2x2 torus: wrap link would duplicate the mesh link.
        assert len(torus.links()) == 2 * (4 + 4)

    def test_1xn_degenerate(self):
        torus = build_torus(1, 4)
        torus.validate()

    def test_invalid_dimensions(self):
        with pytest.raises(TopologyError):
            build_torus(2, 0)


class TestRing:
    def test_ring_structure(self):
        ring = build_ring(4)
        for router in ring.routers:
            assert router.arity == 3  # two ring neighbours + NI
        ring.validate()

    def test_two_router_ring(self):
        ring = build_ring(2)
        assert ring.has_link("R0", "R1")
        ring.validate()

    def test_single_router(self):
        ring = build_ring(1)
        assert len(ring.routers) == 1
        ring.validate()

    def test_invalid(self):
        with pytest.raises(TopologyError):
            build_ring(0)

    def test_shortest_path_wraps(self):
        ring = build_ring(6)
        path = ring.shortest_path("NI0", "NI5")
        # Around the short way: NI0 R0 R5 NI5.
        assert len(path) == 4
