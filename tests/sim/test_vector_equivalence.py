"""Differential proof that the vector (numpy) kernel is bit-exact.

Mirrors ``test_compiled_equivalence``: every scenario is built on the
activity kernel (the proven reference) and on the vector kernel, and
driven through an identical ``step`` chunk sequence with full-state
comparison at every boundary — registers, per-word lifecycles, latency
histograms, sink streams and checker state, link/router counters.

On top of the compiled-mode obligations, the vector engine adds the
typed downgrade chain vector -> compiled -> activity, which gets its
own differential coverage here: a vector-specific refusal must be
recorded in kernel telemetry and then served bit-exactly by the
compiled interpreter.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.alloc.usecase import UseCase, UseCaseManager
from repro.core import DaeliteNetwork
from repro.errors import AllocationError
from repro.params import aelite_parameters, daelite_parameters
from repro.sim.kernel import (
    ACTIVITY_MODE,
    COMPILED_MODE,
    VECTOR_MODE,
    CompileRefusal,
)
from repro.topology import build_mesh, ni_name
from repro.traffic.generators import CbrGenerator, TraceGenerator
from repro.traffic.sinks import CheckingSink

from .test_compiled_equivalence import (
    Scenario,
    allocate,
    assert_same_registers,
    build_aelite,
    build_daelite,
    full_snapshot,
    scenarios,
    stats_snapshot,
    steady_scenario,
)

pytestmark = pytest.mark.differential


def run_chunked_differential(scenario: Scenario, mode: str = VECTOR_MODE):
    net_v, gens_v, sinks_v = build_daelite(scenario, mode)
    net_a, gens_a, sinks_a = build_daelite(scenario, ACTIVITY_MODE)
    assert net_v.kernel.cycle == net_a.kernel.cycle
    for chunk in scenario.chunks:
        net_v.run(chunk)
        net_a.run(chunk)
        assert_same_registers(
            net_v.kernel, net_a.kernel, f"cycle {net_a.kernel.cycle}"
        )
        assert full_snapshot(net_v, gens_v, sinks_v) == full_snapshot(
            net_a, gens_a, sinks_a
        )
    return net_v


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios())
def test_daelite_vector_kernel_matches_activity(scenario: Scenario):
    params = daelite_parameters(slot_table_size=8)
    try:
        allocate(scenario, params)
    except AllocationError:
        assume(False)
    net_v = run_chunked_differential(scenario)
    assert net_v.kernel.kernel_stats()["compiled_cycles"] > 0


def test_vector_epoch_replay_is_bit_exact():
    """Thousands of bulk-replayed cycles still match stepped execution
    in every observable."""
    net_v = run_chunked_differential(steady_scenario())
    kernel_stats = net_v.kernel.kernel_stats()
    assert kernel_stats["compiled_cycles"] > 0
    assert kernel_stats["replayed_epochs"] >= 10, (
        f"replay never engaged on the steady workload: {kernel_stats}"
    )
    assert kernel_stats["replayed_cycles"] > 1_000


def test_vector_matches_compiled_directly():
    """The two engine-backed modes agree with each other, not just each
    with activity — catches compensating errors."""
    scenario = steady_scenario()
    net_v, gens_v, sinks_v = build_daelite(scenario, VECTOR_MODE)
    net_c, gens_c, sinks_c = build_daelite(scenario, COMPILED_MODE)
    for chunk in scenario.chunks:
        net_v.run(chunk)
        net_c.run(chunk)
        assert_same_registers(
            net_v.kernel, net_c.kernel, f"cycle {net_c.kernel.cycle}"
        )
        assert full_snapshot(net_v, gens_v, sinks_v) == full_snapshot(
            net_c, gens_c, sinks_c
        )
    assert net_v.kernel.kernel_stats()["replayed_epochs"] > 0
    assert net_c.kernel.kernel_stats()["replayed_epochs"] > 0


# -- larger fabrics ------------------------------------------------------------


def crossing_scenario() -> Scenario:
    """Three crossing flows on a 3x3 mesh: unicast paths that share
    routers, periodic enough for replay inside the horizon."""
    return Scenario(
        width=3,
        height=3,
        connections=(
            ("NI00", "NI22", 2),
            ("NI20", "NI02", 1),
            ("NI01", "NI21", 1),
        ),
        generators=(("cbr", 5, 0, 0, 1), ("cbr", 8, 3, 0, 1), ("burst", 16, 10, 0, 2)),
        sinks=(("checking", 2, 4), ("drain", 1, 4), ("throttled", 1, 4)),
        chunks=(7, 400, 2600, 1, 992),
    )


def test_replay_matches_activity_3x3():
    """The multi-flow 3x3 scenario replays and stays bit-identical to
    the activity reference."""
    net = run_chunked_differential(crossing_scenario())
    kernel_stats = net.kernel.kernel_stats()
    assert kernel_stats["compiled_cycles"] > 0
    assert kernel_stats["replayed_epochs"] > 0, (
        f"replay never engaged: {kernel_stats}"
    )


def test_16x16_matches_compiled():
    """A 16x16 fabric (512 elements) delivers the same word stream,
    statistics and landing registers under the vector lowering as under
    the compiled interpreter, through the same replayed epochs."""
    params = daelite_parameters(slot_table_size=16, config_word_bits=11)

    def build(mode):
        mesh = build_mesh(16, 16)
        allocator = SlotAllocator(topology=mesh, params=params)
        connection = allocator.allocate_connection(
            ConnectionRequest(
                "far", "NI00", ni_name(15, 15), forward_slots=2
            )
        )
        net = DaeliteNetwork(mesh, params, kernel_mode=mode)
        handle = net.configure(connection)
        net.run_until_configured(handle)
        gen = CbrGenerator(
            "gen",
            inject=net.ni("NI00").injector(handle.forward.src_channel, "far"),
            period=40,
        )
        sink = CheckingSink(
            "sink",
            receive=net.ni(ni_name(15, 15)).receiver(
                handle.forward.dst_channel
            ),
            words_per_cycle=2,
            stats=net.stats,
        )
        net.kernel.add(gen)
        net.kernel.add(sink)
        net.run(4_000)
        assert sink.clean
        return net

    vector = build(VECTOR_MODE)
    compiled = build(COMPILED_MODE)
    assert vector.kernel.kernel_stats()["replayed_epochs"] > 0
    assert stats_snapshot(vector.stats) == stats_snapshot(compiled.stats)
    assert_same_registers(vector.kernel, compiled.kernel, "cycle 4000")
    assert (
        vector.kernel.kernel_stats()["replayed_epochs"]
        == compiled.kernel.kernel_stats()["replayed_epochs"]
    )
    assert vector.stats.delivered_words("far") > 0


# -- typed downgrade chain -----------------------------------------------------


def test_unencodable_trace_payload_degrades_to_compiled():
    """A trace payload outside the packed int64 encoding range refuses
    the vector lowering but not the compiled interpreter."""
    params = daelite_parameters(slot_table_size=8)
    mesh = build_mesh(2, 2)
    allocator = SlotAllocator(topology=mesh, params=params)
    connection = allocator.allocate_connection(
        ConnectionRequest("big", "NI00", "NI11", forward_slots=2)
    )
    net = DaeliteNetwork(mesh, params, kernel_mode=VECTOR_MODE)
    handle = net.configure(connection)
    net.run_until_configured(handle)
    base = net.kernel.cycle
    gen = TraceGenerator(
        "gen",
        inject=net.ni("NI00").injector(handle.forward.src_channel, "big"),
        trace=[(base + 10, 1), (base + 20, 2**62)],
    )
    sink = CheckingSink(
        "sink",
        receive=net.ni("NI11").receiver(handle.forward.dst_channel),
        words_per_cycle=2,
        stats=net.stats,
    )
    net.kernel.add(gen)
    net.kernel.add(sink)
    net.run(400)
    stats = net.kernel.kernel_stats()
    assert (
        stats["compile_fallbacks"].get(CompileRefusal.UNSUPPORTED_PARAMS, 0)
        > 0
    )
    assert stats["compiled_cycles"] > 0
    assert net.stats.delivered_words("big") == 2


# -- aelite --------------------------------------------------------------------


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios())
def test_aelite_vector_mode_matches_activity(scenario: Scenario):
    """aelite has no compiled data-plane model at all; vector mode must
    fall back transparently and still be bit-identical to activity."""
    params = aelite_parameters(slot_table_size=8)
    try:
        allocate(scenario, params)
    except AllocationError:
        assume(False)
    net_v = build_aelite(scenario, VECTOR_MODE)
    net_a = build_aelite(scenario, ACTIVITY_MODE)
    for chunk in scenario.chunks:
        net_v.run(chunk)
        net_a.run(chunk)
        assert_same_registers(
            net_v.kernel, net_a.kernel, f"cycle {net_a.kernel.cycle}"
        )
    assert stats_snapshot(net_v.stats) == stats_snapshot(net_a.stats)
    kernel_stats = net_v.kernel.kernel_stats()
    assert kernel_stats["compiled_cycles"] == 0
    assert (
        kernel_stats["compile_fallbacks"].get("unsupported_component", 0)
        > 0
    )


# -- use-case switch campaign --------------------------------------------------


def run_switch_campaign(mode: str):
    """Boot use-case -> steady traffic -> switch to run use-case ->
    steady traffic again, with checkpointed snapshots throughout.

    Exercises the piecewise-periodic machinery: the engine defers
    (CONFIG_ACTIVE / DATAPATH_BUSY) across the switch instead of
    abandoning the run, then re-probes and replays in the new regime.
    """
    params = daelite_parameters(slot_table_size=8)
    mesh = build_mesh(2, 2)
    manager = UseCaseManager(topology=mesh, params=params)
    manager.add_usecase(
        UseCase(
            "boot",
            (
                ConnectionRequest(
                    "a", "NI00", "NI11", forward_slots=2, reverse_slots=1
                ),
            ),
        )
    )
    manager.add_usecase(
        UseCase(
            "run",
            (
                ConnectionRequest(
                    "b", "NI10", "NI01", forward_slots=2, reverse_slots=1
                ),
            ),
        )
    )
    net = DaeliteNetwork(mesh, params, kernel_mode=mode)
    checkpoints = []
    gens, sinks = [], []

    handle_a = net.configure(manager.allocation("boot", "a"))
    net.run_until_configured(handle_a)
    gen_a = CbrGenerator(
        "gen_a",
        inject=net.ni("NI00").injector(handle_a.forward.src_channel, "a"),
        period=5,
        total_words=60,
    )
    sink_a = CheckingSink(
        "sink_a",
        receive=net.ni("NI11").receiver(handle_a.forward.dst_channel),
        words_per_cycle=2,
        stats=net.stats,
    )
    net.kernel.add(gen_a)
    net.kernel.add(sink_a)
    gens.append(gen_a)
    sinks.append(sink_a)
    for chunk in (7, 600, 393):
        net.run(chunk)
        checkpoints.append(full_snapshot(net, gens, sinks))
    pre_switch = net.kernel.kernel_stats()

    # The switch: tear down "a", set up "b", stepping while config
    # words are in flight on the tree.
    teardown = net.host.teardown_connection(
        handle_a, manager.allocation("boot", "a")
    )
    net.run(5)
    checkpoints.append(full_snapshot(net, gens, sinks))
    net.run_until_configured(teardown)
    handle_b = net.configure(manager.allocation("run", "b"))
    net.run_until_configured(handle_b)
    # Two forward slots of an 8-slot wheel carry one word per 8 cycles;
    # period 10 keeps the flow below capacity so the post-switch steady
    # state is exactly periodic (an overloaded queue grows every epoch
    # and correctly never replays).
    gen_b = CbrGenerator(
        "gen_b",
        inject=net.ni("NI10").injector(handle_b.forward.src_channel, "b"),
        period=10,
    )
    sink_b = CheckingSink(
        "sink_b",
        receive=net.ni("NI01").receiver(handle_b.forward.dst_channel),
        words_per_cycle=2,
        stats=net.stats,
    )
    net.kernel.add(gen_b)
    net.kernel.add(sink_b)
    gens.append(gen_b)
    sinks.append(sink_b)
    for chunk in (3, 2000, 997):
        net.run(chunk)
        checkpoints.append(full_snapshot(net, gens, sinks))
    assert sink_a.clean and sink_b.clean
    return net, checkpoints, pre_switch


def test_usecase_switch_campaign_is_bit_exact():
    """The vector engine rides through a use-case switch — deferring
    while the tree reconfigures, then replaying the *new* steady state —
    with every checkpoint identical to the activity reference."""
    net_v, chk_v, pre_switch = run_switch_campaign(VECTOR_MODE)
    net_a, chk_a, _ = run_switch_campaign(ACTIVITY_MODE)
    assert len(chk_v) == len(chk_a)
    for index, (snap_v, snap_a) in enumerate(zip(chk_v, chk_a)):
        assert snap_v == snap_a, f"checkpoint {index} diverged"
    stats = net_v.kernel.kernel_stats()
    # The switch produced typed deferrals, not a permanent fallback ...
    assert sum(stats["compile_deferrals"].values()) > 0
    # ... and both engine execution and epoch replay re-engaged in the
    # *new* regime, after the reconfiguration.
    assert stats["compiled_cycles"] > pre_switch["compiled_cycles"]
    assert stats["replayed_epochs"] > pre_switch["replayed_epochs"]
    assert stats["replayed_cycles"] > pre_switch["replayed_cycles"]
    assert net_v.stats.delivered_words("a") == 60
    assert net_v.stats.delivered_words("b") > 0


# -- regime-revisit campaign (piecewise-periodic cache) ------------------------


def run_regime_revisit_campaign(mode: str):
    """One steady CBR flow rides through three config switches that
    alternate the schedule between two images: base (only "a"
    configured) and extended ("a" + an idle "b").  Each switch bumps
    the schedule version and forces a recompile; each *return* to a
    previously seen image re-enters a cached regime, which the
    piecewise-periodic cache must replay at the first boundary instead
    of re-probing two epochs.

    Returns the net, the per-chunk full snapshots, and per-segment
    replay deltas ``(label, replayed_epochs_delta)``.
    """
    params = daelite_parameters(slot_table_size=8)
    mesh = build_mesh(2, 2)
    allocator = SlotAllocator(topology=mesh, params=params)
    conn_a = allocator.allocate_connection(
        ConnectionRequest(
            "a", "NI00", "NI11", forward_slots=2, reverse_slots=1
        )
    )
    conn_b = allocator.allocate_connection(
        ConnectionRequest(
            "b", "NI10", "NI01", forward_slots=2, reverse_slots=1
        )
    )
    net = DaeliteNetwork(mesh, params, kernel_mode=mode)
    handle_a = net.configure(conn_a)
    net.run_until_configured(handle_a)
    gen_a = CbrGenerator(
        "gen_a",
        inject=net.ni("NI00").injector(handle_a.forward.src_channel, "a"),
        period=10,
    )
    sink_a = CheckingSink(
        "sink_a",
        receive=net.ni("NI11").receiver(handle_a.forward.dst_channel),
        words_per_cycle=2,
        stats=net.stats,
    )
    net.kernel.add(gen_a)
    net.kernel.add(sink_a)
    gens, sinks = [gen_a], [sink_a]
    checkpoints = []
    segments = []

    def steady_segment(label):
        start = net.kernel.kernel_stats()["replayed_epochs"]
        for chunk in (5, 700, 595):
            net.run(chunk)
            checkpoints.append(full_snapshot(net, gens, sinks))
        delta = net.kernel.kernel_stats()["replayed_epochs"] - start
        segments.append((label, delta))

    steady_segment("base")
    # Switch 1: extend the schedule with the (idle) connection "b".
    handle_b = net.configure(conn_b)
    net.run_until_configured(handle_b)
    steady_segment("extended")
    # Switch 2: tear "b" down and recycle its channel indices — the
    # service churn discipline.  Recycling is what makes this a true
    # *revisit*: the quiesced channels leave no driver-side residue,
    # so the network returns to the exact base image and state shape.
    teardown = net.host.teardown_connection(handle_b, conn_b)
    net.run_until_configured(teardown)
    net.host.recycle_connection_indices(handle_b, conn_b)
    steady_segment("base-revisit")
    # Switch 3: re-extend — revisiting the extended regime.
    handle_b2 = net.configure(conn_b)
    net.run_until_configured(handle_b2)
    steady_segment("extended-revisit")
    assert sink_a.clean
    return net, checkpoints, segments


def test_regime_revisit_campaign_replays_from_cache():
    """Three use-case switches, two of them revisiting a prior regime:
    the vector engine replays in *every* revisited regime,
    bit-identical to the activity reference, and the revisits are
    served from the regime cache (immediate replay, no two-epoch
    probe) and the lowering cache (no re-lowering)."""
    net_v, chk_v, seg_v = run_regime_revisit_campaign(VECTOR_MODE)
    net_a, chk_a, _ = run_regime_revisit_campaign(ACTIVITY_MODE)
    assert len(chk_v) == len(chk_a)
    for index, (snap_v, snap_a) in enumerate(zip(chk_v, chk_a)):
        assert snap_v == snap_a, f"checkpoint {index} diverged"
    for label, delta in seg_v:
        assert delta > 0, f"segment {label!r} never replayed: {seg_v}"
    stats = net_v.kernel.kernel_stats()
    # Both revisited regimes were served from the cache ...
    assert stats["regime_cache_hits"] >= 2, stats
    # ... which was populated by the first visits ...
    assert stats["regime_cache_stores"] >= 2, stats
    assert stats["regimes_detected"] >= 4, stats
    # ... and re-entering a known schedule image skipped re-lowering.
    assert stats["lowering_cache_hits"] >= 2, stats
    assert net_v.stats.delivered_words("a") > 0


def build_shared_channel_flow(mode: str):
    """Two generators feeding one channel under the same label: the
    per-connection shifts replay depends on are ambiguous."""
    params = daelite_parameters(slot_table_size=8)
    mesh = build_mesh(2, 2)
    allocator = SlotAllocator(topology=mesh, params=params)
    conn = allocator.allocate_connection(
        ConnectionRequest(
            "dup", "NI00", "NI11", forward_slots=2, reverse_slots=1
        )
    )
    net = DaeliteNetwork(mesh, params, kernel_mode=mode)
    handle = net.configure(conn)
    net.run_until_configured(handle)
    gens = [
        CbrGenerator(
            f"gen{i}",
            inject=net.ni("NI00").injector(
                handle.forward.src_channel, "dup"
            ),
            period=period,
        )
        for i, period in enumerate((10, 15))
    ]
    sink = CheckingSink(
        "sink",
        receive=net.ni("NI11").receiver(handle.forward.dst_channel),
        words_per_cycle=2,
        stats=net.stats,
    )
    for gen in gens:
        net.kernel.add(gen)
    net.kernel.add(sink)
    return net, gens, [sink]


@pytest.mark.parametrize("mode", [VECTOR_MODE, COMPILED_MODE])
def test_shared_channel_records_aperiodic_replay_refusal(mode):
    """A genuinely aperiodic-for-replay segment is a *diagnosis*, not a
    fallback: the engine keeps executing its fast path bit-exactly and
    ``kernel_stats()`` records a typed ``aperiodic_segment`` entry in
    ``replay_refusals`` — never in ``compile_fallbacks``."""
    net_f, gens_f, sinks_f = build_shared_channel_flow(mode)
    net_a, gens_a, sinks_a = build_shared_channel_flow(ACTIVITY_MODE)
    for chunk in (5, 700, 595):
        net_f.run(chunk)
        net_a.run(chunk)
        assert full_snapshot(net_f, gens_f, sinks_f) == full_snapshot(
            net_a, gens_a, sinks_a
        )
    stats = net_f.kernel.kernel_stats()
    assert stats["compiled_cycles"] > 0
    assert stats["replayed_epochs"] == 0
    assert stats["replay_refusals"].get(CompileRefusal.APERIODIC, 0) > 0
    assert CompileRefusal.APERIODIC not in stats["compile_fallbacks"]
    assert net_f.stats.delivered_words("dup") > 0
