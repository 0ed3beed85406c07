"""Unit tests for the element-graph topology."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.topology import Topology, build_mesh


def tiny():
    topology = Topology("tiny")
    topology.add_router("R0")
    topology.add_router("R1")
    topology.add_ni("NI0")
    topology.add_ni("NI1")
    topology.connect("NI0", "R0")
    topology.connect("R0", "R1")
    topology.connect("R1", "NI1")
    return topology


class TestConstruction:
    def test_element_ids_are_dense(self):
        topology = tiny()
        ids = sorted(e.element_id for e in topology.elements.values())
        assert ids == [0, 1, 2, 3]

    def test_duplicate_name_rejected(self):
        topology = tiny()
        with pytest.raises(TopologyError, match="duplicate"):
            topology.add_router("R0")

    def test_self_loop_rejected(self):
        topology = tiny()
        with pytest.raises(TopologyError, match="self-loop"):
            topology.connect("R0", "R0")

    def test_duplicate_link_rejected(self):
        topology = tiny()
        with pytest.raises(TopologyError, match="duplicate link"):
            topology.connect("R0", "R1")

    def test_failed_link_is_still_wired(self):
        """A failed pair keeps its ports: connecting it again would
        wire a second port to the same neighbour."""
        mesh = build_mesh(2, 2)
        mesh.fail_link("R00", "R10")
        with pytest.raises(TopologyError, match="duplicate link"):
            mesh.connect("R00", "R10")
        assert mesh.element("R00").neighbors == ["R10", "R01", "NI00"]
        assert not mesh.has_link("R00", "R10")

    def test_unwired_pair_is_not_failed(self):
        """Failed means wired but out of the routable graph: a pair
        never wired is not failed, and restoring it adds no edge."""
        mesh = build_mesh(2, 2)
        assert not mesh.link_is_failed("R00", "R11")
        with pytest.raises(TopologyError, match="is not failed"):
            mesh.restore_link("R00", "R11")
        assert not mesh.has_link("R00", "R11")

    def test_fresh_pair_connects(self):
        mesh = build_mesh(2, 2)
        mesh.connect("R00", "R11")
        assert mesh.element("R00").neighbors[-1] == "R11"
        assert mesh.has_link("R00", "R11") and mesh.has_link("R11", "R00")

    def test_ni_single_port(self):
        topology = tiny()
        topology.add_router("R2")
        with pytest.raises(TopologyError, match="one port"):
            topology.connect("NI0", "R2")

    def test_unknown_element_rejected(self):
        topology = tiny()
        with pytest.raises(TopologyError, match="unknown"):
            topology.connect("R0", "nope")


class TestQueries:
    def test_port_numbering_symmetric(self):
        topology = tiny()
        r0 = topology.element("R0")
        assert r0.neighbors[r0.port_to("NI0")] == "NI0"
        assert r0.neighbors[r0.port_to("R1")] == "R1"

    def test_port_to_missing_neighbor(self):
        topology = tiny()
        with pytest.raises(TopologyError, match="no port"):
            topology.element("R0").port_to("NI1")

    def test_ni_router(self):
        topology = tiny()
        assert topology.ni_router("NI0") == "R0"

    def test_ni_router_rejects_router(self):
        topology = tiny()
        with pytest.raises(TopologyError, match="not an NI"):
            topology.ni_router("R0")

    def test_routers_and_nis_partition(self):
        topology = tiny()
        assert {e.name for e in topology.routers} == {"R0", "R1"}
        assert {e.name for e in topology.nis} == {"NI0", "NI1"}

    def test_links_directed_both_ways(self):
        topology = tiny()
        links = topology.links()
        assert ("R0", "R1") in links and ("R1", "R0") in links
        assert len(links) == 6

    def test_shortest_path(self):
        topology = tiny()
        assert topology.shortest_path("NI0", "NI1") == [
            "NI0",
            "R0",
            "R1",
            "NI1",
        ]

    def test_element_by_id_roundtrip(self):
        topology = tiny()
        for element in topology.elements.values():
            assert (
                topology.element_by_id(element.element_id) is element
            )

    def test_element_by_id_missing(self):
        with pytest.raises(TopologyError):
            tiny().element_by_id(99)


class TestValidation:
    def test_valid_topology_passes(self):
        tiny().validate()

    def test_element_limit(self):
        topology = tiny()
        with pytest.raises(TopologyError, match="addressing"):
            topology.validate(max_elements=2)

    def test_arity_limit(self):
        topology = Topology()
        center = topology.add_router("C")
        for index in range(8):
            topology.add_router(f"R{index}")
            topology.connect("C", f"R{index}")
        with pytest.raises(TopologyError, match="arity"):
            topology.validate(max_arity=7)

    def test_disconnected_rejected(self):
        topology = tiny()
        topology.add_router("island")
        with pytest.raises(TopologyError, match="not connected"):
            topology.validate()
