"""Shared fixtures for the fault-injection suite."""

from __future__ import annotations

import pytest

from repro.alloc import ConnectionRequest
from repro.core import DaeliteNetwork, OnlineConnectionManager
from repro.params import daelite_parameters
from repro.topology import build_mesh
from repro.traffic import CheckingSink


@pytest.fixture
def managed_mesh():
    """A 3x3 mesh with an online manager and one open connection.

    Returns (network, manager, open_connection); the connection runs
    NI00 -> NI22 with 4 forward slots, so its forward path always has a
    detour available after any single link failure.
    """
    topology = build_mesh(3, 3)
    params = daelite_parameters(slot_table_size=16)
    network = DaeliteNetwork(topology, params, host_ni="NI11")
    manager = OnlineConnectionManager(network)
    record = manager.open_connection(
        ConnectionRequest("stream", "NI00", "NI22", forward_slots=4)
    )
    return network, manager, record


def forward_edge(record, hop: int = 1):
    """The ``hop``-th link of the open connection's forward path."""
    path = record.allocation.forward.path
    return (path[hop], path[hop + 1])


class RecordingSink(CheckingSink):
    """A checking sink that also keeps ``(cycle, payload)`` per word it
    consumes: the fault campaigns judge delivery by payload.  The
    engine admits only the library's sinks, so a network carrying one
    steps naively; the campaigns drain through bare
    callables, which keep them there anyway (``compiled_cycles`` 0)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.received: list = []

    def consume(self, cycle: int, word) -> None:
        super().consume(cycle, word)
        self.received.append((cycle, word.payload))
