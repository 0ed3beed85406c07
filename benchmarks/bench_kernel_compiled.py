"""Compiled-engine (``vector`` mode) throughput on a steady 8x8 workload.

ISSUE 5's claim: once the configuration tree is quiet, flattening the
data plane into integer-indexed tables and replaying the periodic
steady state arithmetically must be >=5x faster than the activity
kernel on a *busy* workload — the profile where activity-driven
scheduling has nothing left to skip.

Results land in ``BENCH_kernel.json``.
"""

from __future__ import annotations

import gc
import statistics
import time

from _helpers import write_bench_json
from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.params import daelite_parameters
from repro.sim.kernel import (
    ACTIVITY_MODE,
    NAIVE_MODE,
    VECTOR_MODE,
)
from repro.topology import build_mesh, ni_name
from repro.traffic.generators import CbrGenerator
from repro.traffic.sinks import CheckingSink

#: Corner/edge flows crossing the whole 8x8 mesh in four directions.
FLOW_PAIRS = [
    (ni_name(0, 0), ni_name(7, 7)),
    (ni_name(0, 7), ni_name(7, 0)),
    (ni_name(3, 0), ni_name(4, 7)),
    (ni_name(0, 3), ni_name(7, 4)),
]

#: One word per flow every GEN_PERIOD cycles — continuous traffic, so
#: the activity kernel has awake components every single cycle.  The
#: rate sits below the credit-window limit of a cross-mesh flow
#: (8 credits per ~100-cycle round trip), so queues stay bounded and
#: the steady state is exactly periodic.
GEN_PERIOD = 20

WARMUP_CYCLES = 2_000


def build_workload(mode):
    """An 8x8 mesh with four configured cross-mesh CBR flows."""
    params = daelite_parameters(slot_table_size=16, config_word_bits=9)
    mesh = build_mesh(8, 8)
    allocator = SlotAllocator(topology=mesh, params=params)
    allocated = [
        allocator.allocate_connection(
            ConnectionRequest(
                f"flow{i}", src, dst, forward_slots=2, reverse_slots=1
            )
        )
        for i, (src, dst) in enumerate(FLOW_PAIRS)
    ]
    net = DaeliteNetwork(mesh, params, host_ni="NI00", kernel_mode=mode)
    handles = [net.configure(conn) for conn in allocated]
    for handle in handles:
        net.run_until_configured(handle)
    sinks = []
    for i, handle in enumerate(handles):
        src, dst = FLOW_PAIRS[i]
        fwd = handle.forward
        gen = CbrGenerator(
            f"gen{i}",
            inject=net.ni(src).injector(fwd.src_channel, f"flow{i}"),
            period=GEN_PERIOD,
        )
        sink = CheckingSink(
            f"sink{i}",
            receive=net.ni(dst).receiver(fwd.dst_channel),
            words_per_cycle=2,
            stats=net.stats,
        )
        net.kernel.add(gen)
        net.kernel.add(sink)
        sinks.append(sink)
    return net, sinks


def timed_run(mode, run_cycles):
    """Wall-clock one measured window; returns (elapsed, net, sinks).

    A pre-window ``gc.collect()`` keeps a generational collection of
    the previous runs' sink streams and networks from landing inside
    the timed region — at replay speeds a single gen-2 pass is
    comparable to the whole measured window.
    """
    net, sinks = build_workload(mode)
    net.run(WARMUP_CYCLES)
    gc.collect()
    started = time.perf_counter()
    net.run(run_cycles)
    elapsed = time.perf_counter() - started
    return elapsed, net, sinks


def timed_runs(mode, run_cycles, runs):
    """Repeat timed_run; returns (walls, nets) with sinks asserted clean."""
    walls, nets = [], []
    for _ in range(runs):
        wall, net, sinks = timed_run(mode, run_cycles)
        assert all(sink.clean for sink in sinks)
        walls.append(wall)
        nets.append(net)
    return walls, nets


def delivered_profile(net):
    """Per-flow delivered word counts at the current cycle."""
    return {
        f"flow{i}": net.stats.delivered_words(f"flow{i}")
        for i in range(len(FLOW_PAIRS))
    }


def test_compiled_kernel_speedup_steady_state():
    """Vector mode must beat activity by >=5x on saturated traffic,
    both delivering the bit-identical word stream."""
    window_cycles = 30_000
    naive_cycles = 3_000
    runs = 5

    vector_walls, vector_nets = timed_runs(VECTOR_MODE, window_cycles, runs)
    activity_walls, activity_nets = timed_runs(
        ACTIVITY_MODE, window_cycles, runs
    )
    naive_walls, _ = timed_runs(NAIVE_MODE, naive_cycles, 3)

    vector_cps = window_cycles / statistics.median(vector_walls)
    activity_cps = window_cycles / statistics.median(activity_walls)
    naive_cps = naive_cycles / statistics.median(naive_walls)
    speedup = vector_cps / activity_cps
    vs_naive = vector_cps / naive_cps

    # Identical cycle horizon => the word streams must match exactly.
    reference = delivered_profile(activity_nets[0])
    assert all(count > 0 for count in reference.values())
    for net in vector_nets + activity_nets:
        assert delivered_profile(net) == reference
        assert net.total_dropped_words == 0

    kernel_stats = vector_nets[0].kernel.kernel_stats()
    assert kernel_stats["compiled_cycles"] > 0
    assert kernel_stats["replayed_epochs"] > 0

    print("\n8x8 MESH steady state (4 CBR flows) — kernel throughput")
    print(f"{'kernel':>9} {'cycles/s':>12}")
    print(f"{'vector':>9} {vector_cps:>12,.0f}")
    print(f"{'activity':>9} {activity_cps:>12,.0f}")
    print(f"{'naive':>9} {naive_cps:>12,.0f}")
    print(
        f"vector speedup: {speedup:.1f}x vs activity, "
        f"{vs_naive:.1f}x vs naive "
        f"(replayed {kernel_stats['replayed_cycles']} of "
        f"{window_cycles + WARMUP_CYCLES} cycles in "
        f"{kernel_stats['replayed_epochs']} epochs)"
    )

    write_bench_json(
        "kernel",
        {
            "workload": "8x8 mesh, 4 cross-mesh CBR flows, T=16",
            "runs": runs,
            "measured_cycles": {
                "vector": window_cycles,
                "activity": window_cycles,
                "naive": naive_cycles,
            },
            "cycles_per_second": {
                "vector": round(vector_cps),
                "activity": round(activity_cps),
                "naive": round(naive_cps),
            },
            "speedup_vector_vs_activity": round(speedup, 2),
            "speedup_vector_vs_naive": round(vs_naive, 2),
            "vector_telemetry": {
                "compiled_cycles": kernel_stats["compiled_cycles"],
                "replayed_epochs": kernel_stats["replayed_epochs"],
                "replayed_cycles": kernel_stats["replayed_cycles"],
                "replay_coverage": round(
                    kernel_stats["replayed_cycles"]
                    / kernel_stats["compiled_cycles"],
                    4,
                ),
                "regimes_detected": kernel_stats["regimes_detected"],
                "compile_fallbacks": kernel_stats["compile_fallbacks"],
            },
        },
        kernel_mode=[ACTIVITY_MODE, NAIVE_MODE, VECTOR_MODE],
    )

    assert speedup >= 5.0, (
        f"vector kernel only {speedup:.2f}x faster than activity on "
        f"the steady-state 8x8 workload — expected >=5x"
    )
