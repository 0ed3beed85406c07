"""Property-based tests for the allocator's contention-free invariant."""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.alloc import (
    ChannelRequest,
    MulticastRequest,
    SlotAllocator,
    validate_schedule,
)
from repro.errors import AllocationError
from repro.params import daelite_parameters
from repro.topology import build_mesh
from repro.traffic import random_traffic_pattern


@st.composite
def traffic_scenarios(draw):
    width = draw(st.integers(min_value=2, max_value=4))
    height = draw(st.integers(min_value=1, max_value=3))
    slot_table_size = draw(st.sampled_from([8, 16, 32]))
    pairs = draw(st.integers(min_value=1, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return width, height, slot_table_size, pairs, seed


class TestAllocatorProperties:
    @settings(max_examples=40, deadline=None)
    @given(traffic_scenarios())
    def test_accepted_schedules_are_contention_free(self, scenario):
        width, height, slot_table_size, pairs, seed = scenario
        topology = build_mesh(width, height)
        params = daelite_parameters(slot_table_size=slot_table_size)
        allocator = SlotAllocator(topology=topology, params=params)
        nis = [element.name for element in topology.nis]
        accepted = []
        for request in random_traffic_pattern(nis, pairs, seed=seed):
            try:
                accepted.append(allocator.allocate_connection(request))
            except AllocationError:
                pass  # rejection is legal; corruption is not
        validate_schedule(topology, accepted)

    @settings(max_examples=30, deadline=None)
    @given(traffic_scenarios())
    def test_release_restores_ledger(self, scenario):
        width, height, slot_table_size, pairs, seed = scenario
        topology = build_mesh(width, height)
        params = daelite_parameters(slot_table_size=slot_table_size)
        allocator = SlotAllocator(topology=topology, params=params)
        nis = [element.name for element in topology.nis]
        accepted = []
        for request in random_traffic_pattern(nis, pairs, seed=seed):
            try:
                accepted.append(allocator.allocate_connection(request))
            except AllocationError:
                pass
        for connection in accepted:
            allocator.release_connection(connection)
        assert allocator.ledger.total_claims() == 0

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=1, max_value=3),
    )
    def test_multicast_trees_contention_free(
        self, width, height, seed, slots
    ):
        topology = build_mesh(width, height)
        params = daelite_parameters(slot_table_size=16)
        allocator = SlotAllocator(topology=topology, params=params)
        nis = sorted(element.name for element in topology.nis)
        assume(len(nis) >= 4)
        src = nis[seed % len(nis)]
        dsts = tuple(ni for ni in nis if ni != src)[:3]
        tree = allocator.allocate_multicast(
            MulticastRequest("m", src, dsts, slots=slots)
        )
        unicast = None
        try:
            unicast = allocator.allocate_channel(
                ChannelRequest("u", src, dsts[0], slots=1)
            )
        except AllocationError:
            pass
        allocations = [tree] + ([unicast] if unicast else [])
        validate_schedule(topology, allocations)

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([8, 16]),
        st.integers(min_value=0, max_value=500),
    )
    def test_allocator_never_exceeds_link_capacity(
        self, slot_table_size, seed
    ):
        topology = build_mesh(3, 3)
        params = daelite_parameters(slot_table_size=slot_table_size)
        allocator = SlotAllocator(topology=topology, params=params)
        nis = [element.name for element in topology.nis]
        for request in random_traffic_pattern(nis, 30, seed=seed):
            try:
                allocator.allocate_connection(request)
            except AllocationError:
                pass
        for edge in topology.links():
            assert allocator.ledger.link_utilization(edge) <= 1.0
