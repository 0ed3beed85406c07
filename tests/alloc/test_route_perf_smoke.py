"""Perf-regression smoke test for hop-minimal routing.

Bounds :meth:`Topology.shortest_path` (an integer-indexed port of
networkx's bidirectional search) against
``networkx.bidirectional_shortest_path`` itself on random NI pairs of
the 12x12 mesh.  It uses a single round and a deliberately loose 2x
bound so it stays robust on noisy shared CI runners while still catching
a change that destroys the optimization.  Routing's end-to-end share is
measured by the benchmark harness's ``plan_admission`` workload.
"""

from __future__ import annotations

import random
import time

import networkx as nx
import pytest

from repro.topology import build_mesh

#: Loose CI bound against networkx.
MIN_SPEEDUP = 2.0
PAIRS = 4000


@pytest.mark.slow
def test_port_beats_networkx_on_cold_routes():
    mesh = build_mesh(12, 12)
    reference = nx.Graph(mesh.links()[::2])
    names = [element.name for element in mesh.nis]
    rng = random.Random(2026)
    pairs = [tuple(rng.sample(names, 2)) for _ in range(PAIRS)]
    mesh.shortest_path(*pairs[0])  # build the adjacency snapshot
    started = time.perf_counter()
    for src, dst in pairs:
        nx.bidirectional_shortest_path(reference, src, dst)
    reference = time.perf_counter() - started
    started = time.perf_counter()
    for src, dst in pairs:
        mesh.shortest_path(src, dst)
    port = time.perf_counter() - started
    speedup = reference / port
    assert speedup >= MIN_SPEEDUP, (
        f"routing port only {speedup:.2f}x faster than networkx "
        f"(smoke bound {MIN_SPEEDUP}x)"
    )
