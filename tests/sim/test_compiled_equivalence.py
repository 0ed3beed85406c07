"""Differential proof that the compiled kernel is bit-exact.

Every scenario is built twice — once on the activity kernel (already
proven cycle-accurate against the naive reference in
``test_kernel_equivalence``) and once on the compiled kernel — and run
through an identical sequence of ``step`` chunks.  At every chunk
boundary the compiled engine materializes its flat state back into the
Register objects, so all register outputs must be bit-identical; at the
end, the full statistics (per-word lifecycles, latency distributions,
fault logs), every sink's received stream and checker state, and every
link/router counter must match exactly.

Epoch replay is covered two ways: the Hypothesis scenarios include
steady periodic traffic long enough for replay to engage on many
examples, and a deterministic test pins a workload where replay *must*
engage and still asserts bitwise equality afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.aelite import AeliteNetwork
from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.errors import AllocationError
from repro.params import aelite_parameters, daelite_parameters
from repro.sim.kernel import ACTIVITY_MODE, COMPILED_MODE
from repro.topology import build_mesh, ni_name
from repro.traffic.generators import (
    BurstGenerator,
    CbrGenerator,
    TraceGenerator,
)
from repro.traffic.sinks import CheckingSink, DrainSink, ThrottledSink

pytestmark = pytest.mark.differential

# -- scenario description ------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A reproducible network + component workload."""

    width: int
    height: int
    #: (src NI, dst NI, forward_slots) per connection.
    connections: Tuple[Tuple[str, str, int], ...]
    #: Per connection: (kind, period, start_cycle, total, burst_words).
    generators: Tuple[Tuple[str, int, int, int, int], ...]
    #: Per connection: (kind, words_per_cycle, period).
    sinks: Tuple[Tuple[str, int, int], ...]
    #: step() chunk sizes driven against both builds.
    chunks: Tuple[int, ...]


DIMS = [(1, 2), (2, 2), (2, 3), (3, 3)]

#: Periods that keep lcm(wheel, periods) small enough for replay to
#: have a chance inside a scenario's horizon.
PERIODS = [2, 4, 5, 8, 10, 16, 20]


@st.composite
def scenarios(draw) -> Scenario:
    width, height = draw(st.sampled_from(DIMS))
    nis = [ni_name(x, y) for x in range(width) for y in range(height)]
    n_conns = draw(st.integers(1, min(3, len(nis) - 1)))
    connections = []
    for _ in range(n_conns):
        src, dst = draw(
            st.tuples(st.sampled_from(nis), st.sampled_from(nis)).filter(
                lambda pair: pair[0] != pair[1]
            )
        )
        connections.append((src, dst, draw(st.integers(1, 2))))
    generators = tuple(
        (
            draw(st.sampled_from(["cbr", "burst", "trace"])),
            draw(st.sampled_from(PERIODS)),
            draw(st.integers(0, 60)),
            draw(st.integers(0, 12)),  # 0 => unbounded (cbr/burst)
            draw(st.integers(1, 4)),
        )
        for _ in range(n_conns)
    )
    sinks = tuple(
        (
            draw(st.sampled_from(["drain", "checking", "throttled"])),
            draw(st.integers(1, 3)),
            draw(st.sampled_from(PERIODS)),
        )
        for _ in range(n_conns)
    )
    chunks = tuple(
        draw(
            st.lists(st.integers(1, 700), min_size=2, max_size=5)
        )
    )
    return Scenario(
        width=width,
        height=height,
        connections=tuple(connections),
        generators=generators,
        sinks=sinks,
        chunks=chunks,
    )


def allocate(scenario: Scenario, params):
    mesh = build_mesh(scenario.width, scenario.height)
    allocator = SlotAllocator(topology=mesh, params=params)
    allocated = []
    for index, (src, dst, forward_slots) in enumerate(
        scenario.connections
    ):
        allocated.append(
            allocator.allocate_connection(
                ConnectionRequest(
                    f"c{index}",
                    src,
                    dst,
                    forward_slots=forward_slots,
                    reverse_slots=1,
                )
            )
        )
    return mesh, allocated


def make_generator(index, spec, inject):
    kind, period, start, total, burst_words = spec
    if kind == "cbr":
        return CbrGenerator(
            f"gen{index}",
            inject=inject,
            period=period,
            total_words=total or None,
            start_cycle=start,
        )
    if kind == "burst":
        return BurstGenerator(
            f"gen{index}",
            inject=inject,
            burst_words=burst_words,
            period=period,
            total_bursts=total or None,
            start_cycle=start,
        )
    trace = [
        (start + i * period, i) for i in range(max(1, total))
    ]
    return TraceGenerator(f"gen{index}", inject=inject, trace=trace)


def make_sink(index, spec, receive, stats):
    kind, words_per_cycle, period = spec
    if kind == "drain":
        return DrainSink(
            f"sink{index}", receive=receive, words_per_cycle=words_per_cycle
        )
    if kind == "throttled":
        return ThrottledSink(
            f"sink{index}",
            receive=receive,
            period=period,
            words_per_drain=words_per_cycle,
        )
    return CheckingSink(
        f"sink{index}",
        receive=receive,
        words_per_cycle=words_per_cycle,
        stats=stats,
    )


def build_daelite(scenario: Scenario, mode: str):
    params = daelite_parameters(slot_table_size=8)
    mesh, allocated = allocate(scenario, params)
    net = DaeliteNetwork(mesh, params, kernel_mode=mode)
    handles = [net.configure(connection) for connection in allocated]
    for handle in handles:
        net.run_until_configured(handle)
    gens, sinks = [], []
    for index, handle in enumerate(handles):
        src, dst, _ = scenario.connections[index]
        inject = net.ni(src).injector(
            handle.forward.src_channel, f"c{index}"
        )
        receive = net.ni(dst).receiver(handle.forward.dst_channel)
        gen = make_generator(index, scenario.generators[index], inject)
        sink = make_sink(index, scenario.sinks[index], receive, net.stats)
        net.kernel.add(gen)
        net.kernel.add(sink)
        gens.append(gen)
        sinks.append(sink)
    return net, gens, sinks


def assert_same_registers(kernel_a, kernel_b, cycle_label: str) -> None:
    regs_a = kernel_a.all_registers()
    regs_b = kernel_b.all_registers()
    for reg_a, reg_b in zip(regs_a, regs_b):
        assert reg_a.name == reg_b.name
        assert reg_a.q == reg_b.q, (
            f"{cycle_label}: register {reg_a.name} diverged — "
            f"activity={reg_b.q!r}, compiled={reg_a.q!r}"
        )
    assert len(regs_a) == len(regs_b)


def stats_snapshot(stats):
    connections = {
        label: (s.injected, s.ejected, tuple(s.latencies))
        for label, s in stats.connections.items()
    }
    records = {
        key: (record.injected_at, record.ejected_at)
        for key, record in stats._records.items()
    }
    faults = tuple(event.format() for event in stats.faults)
    return connections, records, faults


def full_snapshot(net, gens, sinks):
    """Everything the compiled engine is obligated to reproduce."""
    return {
        "stats": stats_snapshot(net.stats),
        "received": [list(sink.received) for sink in sinks],
        "findings": [
            list(getattr(sink, "findings", ())) for sink in sinks
        ],
        "last_seq": [
            dict(getattr(sink, "_last_seq", {})) for sink in sinks
        ],
        "gen_words": [gen.words_generated for gen in gens],
        "gen_done": [gen.done for gen in gens],
        "dropped": net.total_dropped_words,
        "links": {
            key: (link.phits_carried, link.words_carried)
            for key, link in net.links.items()
        },
        "routers": {
            name: (router.forwarded_words, router.dropped_words)
            for name, router in net.routers.items()
        },
    }


def run_chunked_differential(scenario: Scenario):
    net_c, gens_c, sinks_c = build_daelite(scenario, COMPILED_MODE)
    net_a, gens_a, sinks_a = build_daelite(scenario, ACTIVITY_MODE)
    assert net_c.kernel.cycle == net_a.kernel.cycle
    for chunk in scenario.chunks:
        net_c.run(chunk)
        net_a.run(chunk)
        assert_same_registers(
            net_c.kernel, net_a.kernel, f"cycle {net_a.kernel.cycle}"
        )
        assert full_snapshot(net_c, gens_c, sinks_c) == full_snapshot(
            net_a, gens_a, sinks_a
        )
    return net_c


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios())
def test_daelite_compiled_kernel_matches_activity(scenario: Scenario):
    params = daelite_parameters(slot_table_size=8)
    try:
        allocate(scenario, params)
    except AllocationError:
        assume(False)
    net_c = run_chunked_differential(scenario)
    # The scenarios must actually exercise the compiled path (replay
    # engagement is workload dependent and asserted deterministically
    # in test_epoch_replay_is_bit_exact).
    assert net_c.kernel.kernel_stats()["compiled_cycles"] > 0


# -- epoch replay, deterministically -------------------------------------------


def steady_scenario() -> Scenario:
    """Unbounded periodic flows: replay is guaranteed to engage."""
    return Scenario(
        width=2,
        height=2,
        connections=(("NI00", "NI11", 2), ("NI10", "NI01", 1)),
        generators=(("cbr", 5, 0, 0, 1), ("burst", 16, 8, 0, 2)),
        sinks=(("checking", 2, 4), ("throttled", 1, 4)),
        chunks=(7, 400, 2600, 1, 2992),
    )


def test_epoch_replay_is_bit_exact():
    """After thousands of arithmetically replayed cycles, registers,
    latency histograms, per-connection counters, and CheckingSink
    sequence state still match stepped execution exactly."""
    scenario = steady_scenario()
    net_c = run_chunked_differential(scenario)
    kernel_stats = net_c.kernel.kernel_stats()
    assert kernel_stats["compiled_cycles"] > 0
    assert kernel_stats["replayed_epochs"] >= 10, (
        f"replay never engaged on the steady workload: {kernel_stats}"
    )
    assert kernel_stats["replayed_cycles"] > 1_000


def test_replay_defers_until_finite_generators_drain():
    """A finite generator caps the replay horizon: replay may only
    cover epochs during which its firing pattern is unchanged, and the
    exhaustion cycle itself must be stepped, not extrapolated."""
    scenario = Scenario(
        width=2,
        height=2,
        connections=(("NI00", "NI11", 2),),
        generators=(("cbr", 5, 0, 12, 1),),
        sinks=(("checking", 2, 4),),
        chunks=(300, 3700),
    )
    net_c = run_chunked_differential(scenario)
    assert net_c.stats.delivered_words("c0") == 12


# -- aelite --------------------------------------------------------------------


def build_aelite(scenario: Scenario, mode: str):
    params = aelite_parameters(slot_table_size=8)
    mesh, allocated = allocate(scenario, params)
    net = AeliteNetwork(mesh, params, kernel_mode=mode)
    handles = [
        net.install_connection(connection) for connection in allocated
    ]
    for index, (src, _, _) in enumerate(scenario.connections):
        handle = handles[index]
        spec = scenario.generators[index]
        connection = handle.forward.src_connection
        count = max(1, spec[3]) * spec[4]

        def inject(cycle, src=src, connection=connection, count=count):
            net.ni(src).submit_words(connection, list(range(count)))

        net.kernel.at(spec[2], inject)
    for index, (_, dst, _) in enumerate(scenario.connections):
        handle = handles[index]
        queue = handle.forward.dst_queue
        period = scenario.sinks[index][2]
        horizon = sum(scenario.chunks)
        for tick in range(0, horizon, period):
            net.kernel.at(
                tick,
                lambda cycle, dst=dst, queue=queue: net.ni(dst).receive(
                    queue
                ),
            )
    return net


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios())
def test_aelite_compiled_mode_matches_activity(scenario: Scenario):
    """aelite has no compiled data-plane model; compiled mode must fall
    back transparently and still be bit-identical to activity."""
    params = aelite_parameters(slot_table_size=8)
    try:
        allocate(scenario, params)
    except AllocationError:
        assume(False)
    net_c = build_aelite(scenario, COMPILED_MODE)
    net_a = build_aelite(scenario, ACTIVITY_MODE)
    for chunk in scenario.chunks:
        net_c.run(chunk)
        net_a.run(chunk)
        assert_same_registers(
            net_c.kernel, net_a.kernel, f"cycle {net_a.kernel.cycle}"
        )
    assert stats_snapshot(net_c.stats) == stats_snapshot(net_a.stats)
    kernel_stats = net_c.kernel.kernel_stats()
    assert kernel_stats["compiled_cycles"] == 0
    assert (
        kernel_stats["compile_fallbacks"].get("unsupported_component", 0)
        > 0
    )
