"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.alloc import (
    ALLOC_ENGINE_ENV,
    BITMASK_ENGINE,
    ConnectionRequest,
    SlotAllocator,
    make_ledger,
)
from repro.core import DaeliteNetwork
from repro.params import aelite_parameters, daelite_parameters
from repro.sim.kernel import DEFAULT_KERNEL_MODE, KERNEL_MODE_ENV, Kernel
from repro.topology import build_mesh

# The --no-fast-path plumbing is shared with the benchmark harness.
sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "benchmarks")
)
from _helpers import (  # noqa: E402
    add_no_fast_path_option,
    apply_no_fast_path,
)


def pytest_addoption(parser):
    add_no_fast_path_option(parser)


def pytest_configure(config):
    apply_no_fast_path(config)


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


@pytest.fixture(scope="session", autouse=True)
def _alloc_engine_honors_environment():
    """CI runs a whole-suite leg on the reference ledger by exporting
    ``REPRO_ALLOC_ENGINE``; guarantee the plumbing actually works — a
    default-constructed ledger must resolve to the requested engine."""
    expected = os.environ.get(ALLOC_ENGINE_ENV, BITMASK_ENGINE)
    resolved = make_ledger(8).engine
    assert resolved == expected, (
        f"alloc engine plumbing broken: {ALLOC_ENGINE_ENV}="
        f"{os.environ.get(ALLOC_ENGINE_ENV)!r} but make_ledger() "
        f"resolved to {resolved!r}"
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
