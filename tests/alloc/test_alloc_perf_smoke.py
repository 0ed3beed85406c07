"""Perf-regression smoke test for the bitmask allocation engine.

Bounds the bitmask engine's advantage over the reference ledger on the
fleet workload (8x8 mesh, T=32, 220 fleet connections).  It uses a
single round and a deliberately loose 2x bound so it stays robust on
noisy shared CI runners while still catching a change that destroys the
optimization.  The allocator's host cost itself is measured by the
benchmark harness's ``plan_admission`` workload (``alloc.allocate_s``).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.alloc import (
    BITMASK_ENGINE,
    REFERENCE_ENGINE,
    ConnectionRequest,
    SlotAllocator,
)
from repro.errors import AllocationError
from repro.params import daelite_parameters
from repro.topology import build_mesh, ni_name

#: Loose CI bound against the reference ledger.
MIN_SPEEDUP = 2.0
CONNECTIONS = 220
ROUNDS = 3


def _fleet_requests(side, seed=7):
    rng = random.Random(seed)
    names = [
        ni_name(x, y) for x in range(side) for y in range(side)
    ]
    return [
        ConnectionRequest(
            f"c{index}",
            *rng.sample(names, 2),
            forward_slots=8,
            reverse_slots=2,
        )
        for index in range(CONNECTIONS)
    ]


def _allocate_fleet(topology, params, engine, requests):
    allocator = SlotAllocator(
        topology=topology, params=params, routing="xy", engine=engine
    )
    started = time.perf_counter()
    ok = 0
    for request in requests:
        try:
            allocator.allocate_connection(request)
        except AllocationError:
            continue
        ok += 1
    return time.perf_counter() - started, ok


@pytest.mark.slow
def test_bitmask_engine_beats_reference_on_fleet_allocation():
    topology = build_mesh(8, 8)
    params = daelite_parameters(slot_table_size=32)
    requests = _fleet_requests(8)
    walls = {BITMASK_ENGINE: [], REFERENCE_ENGINE: []}
    allocated = {}
    for engine in walls:  # warm-up: route cache + dict sizing
        _allocate_fleet(topology, params, engine, requests)
    for _ in range(ROUNDS):
        for engine in walls:
            wall, ok = _allocate_fleet(
                topology, params, engine, requests
            )
            walls[engine].append(wall)
            allocated[engine] = ok
    assert allocated[BITMASK_ENGINE] == allocated[REFERENCE_ENGINE]
    speedup = min(walls[REFERENCE_ENGINE]) / min(walls[BITMASK_ENGINE])
    assert speedup >= MIN_SPEEDUP, (
        f"bitmask engine only {speedup:.2f}x faster than the reference "
        f"ledger (smoke bound {MIN_SPEEDUP}x)"
    )
