"""Perf-regression smoke test for hop-minimal routing.

Bounds :meth:`Topology.shortest_path` (an integer-indexed port of
networkx's bidirectional search) against
``networkx.bidirectional_shortest_path`` itself on random NI pairs of
the 12x12 mesh.  Rounds of the two alternate, with the garbage collector
collected and then off while a round is timed, and each side keeps its
best round: garbage left by earlier tests and a neighbour's burst of
load then hit both sides alike instead of one round of one side.  The
2x bound is deliberately loose so it stays robust on noisy shared CI
runners while still catching a change that destroys the optimization.
Routing's end-to-end share is measured by the benchmark harness's
``plan_admission`` workload.
"""

from __future__ import annotations

import gc
import random
import time
from functools import partial

import networkx as nx
import pytest

from repro.topology import build_mesh

#: Loose CI bound against networkx.
MIN_SPEEDUP = 2.0
PAIRS = 4000
#: Timed rounds per side, interleaved; each side keeps its best.
ROUNDS = 5


def timed(route, pairs) -> float:
    """Seconds ``route`` takes over ``pairs``, the collector off."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for src, dst in pairs:
            route(src, dst)
        return time.perf_counter() - started
    finally:
        gc.enable()


@pytest.mark.slow
def test_port_beats_networkx_on_cold_routes():
    mesh = build_mesh(12, 12)
    reference = nx.Graph(mesh.links()[::2])
    names = [element.name for element in mesh.nis]
    rng = random.Random(2026)
    pairs = [tuple(rng.sample(names, 2)) for _ in range(PAIRS)]
    mesh.shortest_path(*pairs[0])  # build the adjacency snapshot
    networkx_best = port_best = float("inf")
    for _ in range(ROUNDS):
        networkx_best = min(
            networkx_best,
            timed(partial(nx.bidirectional_shortest_path, reference), pairs),
        )
        port_best = min(port_best, timed(mesh.shortest_path, pairs))
    speedup = networkx_best / port_best
    assert speedup >= MIN_SPEEDUP, (
        f"routing port only {speedup:.2f}x faster than networkx "
        f"(smoke bound {MIN_SPEEDUP}x, best of {ROUNDS} rounds each)"
    )
