"""Property tests on randomly generated (non-mesh) topologies.

The core timing model never assumes a mesh; these tests build random
connected router graphs with NIs hung off them and check that
allocation, configuration, and delivery all hold.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.alloc import ConnectionRequest, SlotAllocator, validate_schedule
from repro.core import DaeliteNetwork
from repro.errors import AllocationError
from repro.params import daelite_parameters
from repro.topology import Topology


@st.composite
def random_topologies(draw):
    """A random connected topology: a router tree plus extra edges,
    with one NI per router (arity limits respected)."""
    router_count = draw(st.integers(min_value=2, max_value=8))
    # Random tree: each router i > 0 attaches to an earlier router.
    parents = [
        draw(st.integers(min_value=0, max_value=i - 1))
        for i in range(1, router_count)
    ]
    extra_edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=router_count - 1),
                st.integers(min_value=0, max_value=router_count - 1),
            ),
            max_size=3,
        )
    )
    topology = Topology("random")
    for i in range(router_count):
        topology.add_router(f"R{i}")
    for i, parent in enumerate(parents, start=1):
        topology.connect(f"R{i}", f"R{parent}")
    for a, b in extra_edges:
        if a == b:
            continue
        if topology.has_link(f"R{a}", f"R{b}"):
            continue
        if (
            topology.element(f"R{a}").arity >= 5
            or topology.element(f"R{b}").arity >= 5
        ):
            continue
        topology.connect(f"R{a}", f"R{b}")
    for i in range(router_count):
        if topology.element(f"R{i}").arity >= 7:
            continue
        topology.add_ni(f"NI{i}")
        topology.connect(f"NI{i}", f"R{i}")
    assume(len(topology.nis) >= 2)
    topology.validate()
    return topology


class TestRandomTopologies:
    @settings(max_examples=20, deadline=None)
    @given(random_topologies(), st.integers(min_value=0, max_value=999))
    def test_allocation_and_delivery(self, topology, seed):
        params = daelite_parameters(slot_table_size=8)
        allocator = SlotAllocator(topology=topology, params=params)
        nis = sorted(element.name for element in topology.nis)
        src = nis[seed % len(nis)]
        dst = nis[(seed + 1) % len(nis)]
        assume(src != dst)
        try:
            connection = allocator.allocate_connection(
                ConnectionRequest("r", src, dst, forward_slots=1)
            )
        except AllocationError:
            return  # legal on tiny wheels
        validate_schedule(topology, [connection])
        network = DaeliteNetwork(topology, params, host_ni=nis[0])
        handle = network.configure(connection)
        network.ni(src).submit_words(
            handle.forward.src_channel, [1, 2, 3], "r"
        )
        received = []
        for _ in range(2000):
            network.run(1)
            received.extend(
                w.payload
                for w in network.ni(dst).receive(
                    handle.forward.dst_channel
                )
            )
            if len(received) == 3:
                break
        assert received == [1, 2, 3]
        stats = network.stats.connections["r"]
        assert stats.min_latency == 2 * connection.forward.hops + 1
        assert network.total_dropped_words == 0

    @settings(max_examples=15, deadline=None)
    @given(random_topologies())
    def test_config_tree_spans_everything(self, topology):
        from repro.topology import build_config_tree

        host = sorted(e.name for e in topology.nis)[0]
        tree = build_config_tree(topology, host)
        assert set(tree.parent) == set(topology.elements)
        for name in topology.elements:
            shortest = len(topology.shortest_path(host, name)) - 1
            assert tree.depth[name] == shortest
