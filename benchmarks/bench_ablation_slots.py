"""A1 — Ablation: slot-table size T.

"A small TDM slot size is useful to improve the scheduling latency" and
a larger table means finer bandwidth granularity — but the router slot
table grows linearly with T, and set-up packets carry more mask words.
This sweep quantifies all three trade-offs the paper discusses.
"""

from __future__ import annotations

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.analysis import (
    daelite_router_ge,
    max_scheduling_wait_cycles,
    path_packet_words,
)
from repro.core import DaeliteNetwork
from repro.params import daelite_parameters
from repro.topology import build_mesh


def measured_setup(slot_table_size):
    mesh = build_mesh(2, 2)
    params = daelite_parameters(slot_table_size=slot_table_size)
    allocator = SlotAllocator(topology=mesh, params=params)
    conn = allocator.allocate_connection(
        ConnectionRequest("c", "NI00", "NI11", forward_slots=1)
    )
    net = DaeliteNetwork(mesh, params, host_ni="NI00")
    handle = net.host.setup_paths(conn)
    return net.run_until_configured(handle)


def test_slot_table_size_tradeoffs(benchmark):
    def sweep():
        rows = []
        for size in (8, 16, 32, 64):
            params = daelite_parameters(slot_table_size=size)
            wait = max_scheduling_wait_cycles(frozenset({0}), params)
            area = daelite_router_ge(ports=5, slots=size)
            words = path_packet_words(2, params)
            setup = measured_setup(size)
            granularity = 1.0 / size
            rows.append(
                (size, wait, granularity, area, words, setup)
            )
        return rows

    rows = benchmark(sweep)
    print("\nA1 — SLOT-TABLE SIZE ABLATION (1-slot connection, 2 hops)")
    print(
        f"{'T':>4} {'max wait':>9} {'bw gran':>9} {'router GE':>10} "
        f"{'pkt words':>10} {'setup':>6}"
    )
    for size, wait, granularity, area, words, setup in rows:
        print(
            f"{size:>4} {wait:>9} {granularity:>9.3f} {area:>10.0f} "
            f"{words:>10} {setup:>6}"
        )
    waits = [row[1] for row in rows]
    areas = [row[3] for row in rows]
    setups = [row[5] for row in rows]
    assert waits == sorted(waits)  # coarser wheel -> longer waits
    assert areas == sorted(areas)  # bigger table -> bigger router
    assert setups == sorted(setups)  # more mask words -> longer setup


def test_two_word_slots_vs_three(benchmark):
    """'The daelite TDM slot is 2 words, and could be further decreased
    to a single word if necessary' — smaller slots shorten the
    scheduling wait for the same wheel."""

    def compute():
        rows = []
        for words_per_slot in (1, 2, 3):
            params = daelite_parameters(
                slot_table_size=16,
                words_per_slot=words_per_slot,
                hop_cycles=words_per_slot,
            )
            rows.append(
                (
                    words_per_slot,
                    max_scheduling_wait_cycles(
                        frozenset({0}), params
                    ),
                )
            )
        return rows

    rows = benchmark(compute)
    print("\nA1 — SLOT SIZE (words) vs WORST SCHEDULING WAIT, T=16")
    for words_per_slot, wait in rows:
        print(f"  {words_per_slot}-word slots: wait up to {wait} cycles")
    waits = [wait for _, wait in rows]
    assert waits == sorted(waits)
