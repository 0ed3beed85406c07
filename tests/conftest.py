"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.core.config_protocol import (
    ChannelField,
    Direction,
    build_channel_config_packet,
)
from repro.params import aelite_parameters, daelite_parameters
from repro.sim.kernel import DEFAULT_KERNEL_MODE, KERNEL_MODE_ENV, Kernel
from repro.topology import Topology, build_mesh


@pytest.fixture(scope="session", autouse=True)
def _kernel_mode_honors_environment():
    """CI runs the whole suite in every mode by exporting
    ``REPRO_KERNEL_MODE``; guarantee the plumbing actually works — a
    default-constructed kernel must resolve to the requested mode
    (``DEFAULT_KERNEL_MODE`` when unset)."""
    expected = os.environ.get(KERNEL_MODE_ENV, DEFAULT_KERNEL_MODE)
    assert Kernel().mode == expected, (
        f"kernel mode plumbing broken: {KERNEL_MODE_ENV}="
        f"{os.environ.get(KERNEL_MODE_ENV)!r} but Kernel() resolved to "
        f"{Kernel().mode!r}"
    )
    yield


@pytest.fixture
def params8():
    """daelite parameters with the paper's Fig. 6 slot-table size."""
    return daelite_parameters(slot_table_size=8)


@pytest.fixture
def params16():
    """daelite parameters with the paper's default wheel of 16."""
    return daelite_parameters(slot_table_size=16)


@pytest.fixture
def aelite_params8():
    return aelite_parameters(slot_table_size=8)


@pytest.fixture
def mesh22():
    """A fresh 2x2 mesh (paper's area-comparison platform)."""
    return build_mesh(2, 2)


@pytest.fixture
def mesh33():
    return build_mesh(3, 3)


def make_connected_network(
    topology,
    params,
    src="NI00",
    dst="NI11",
    forward_slots=2,
    reverse_slots=1,
    host=None,
    label="conn",
):
    """Build a daelite network with one configured connection.

    Returns (network, connection, handle).
    """
    allocator = SlotAllocator(topology=topology, params=params)
    connection = allocator.allocate_connection(
        ConnectionRequest(
            label,
            src,
            dst,
            forward_slots=forward_slots,
            reverse_slots=reverse_slots,
        )
    )
    network = DaeliteNetwork(topology, params, host_ni=host or src)
    handle = network.configure(connection)
    return network, connection, handle


def pump_until_delivered(network, dst_ni, channel, expected, max_steps=3000):
    """Step the network, draining ``channel`` at ``dst_ni``, until
    ``expected`` payloads arrived (returned in order)."""
    payloads = []
    for _ in range(max_steps):
        network.run(2)
        payloads.extend(
            word.payload for word in network.ni(dst_ni).receive(channel)
        )
        if len(payloads) >= expected:
            break
    return payloads


def other_element_packet(net):
    """Every word of a CHANNEL_CONFIG packet for an element the network
    does not have, without the closing gap: fed to a decoder, it leaves
    it mid-packet until a stepped cycle delivers the gap, on which it
    decodes to nothing."""
    bits = net.params.config_word_bits
    return build_channel_config_packet(
        (1 << (bits - 1)) - 1,
        Direction.INJECT,
        3,
        [(ChannelField.CREDIT, 1)],
        bits,
    ).words


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
