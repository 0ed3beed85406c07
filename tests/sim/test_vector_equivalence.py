"""Differential proof that the compiled engine (``vector`` mode) is bit-exact.

Every scenario is built twice — once on the naive reference kernel and
once on the vector kernel — and run through an identical sequence of
``step`` chunks by :func:`tests.differential.lockstep`.  At every chunk
boundary the engine materializes its flat state back into the Register
objects, so the whole network image must be bit-identical: registers,
statistics, sinks, generators, channel endpoints, element tables, link
and drop counters.

Epoch replay is covered two ways: the Hypothesis scenarios include
steady periodic traffic long enough for replay to engage on many
examples, and deterministic tests pin workloads where replay *must*
engage — in one regime, across a use-case switch, and on re-entering a
cached regime — and still assert bitwise equality afterwards.

The engine applies the success branch of each per-word model method
inline and calls the method for everything else (DESIGN.md §10.2); one
section drives every such precondition false inside an engine run and
compares what the method then does — the exception, or the fault log and
ledger — with the naive kernel's.  The last section plants engine
mutants, one per inlined site among them, and requires the same
differential assertions to kill each one.
"""

from __future__ import annotations

from collections.abc import Sized
from dataclasses import dataclass, fields, replace
from typing import Tuple

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.aelite import AeliteNetwork
from repro.alloc import ConnectionRequest, MulticastRequest, SlotAllocator
from repro.alloc.usecase import UseCase, UseCaseManager
from repro.core import DaeliteNetwork
from repro.errors import (
    AllocationError,
    FlowControlError,
    StatsIntegrityError,
)
from repro.params import aelite_parameters, daelite_parameters
from repro.sim import compiled
from repro.sim.compiled import CompiledEngine, _Run
from repro.sim.flit import Phit, Word
from repro.sim.kernel import NAIVE_MODE, VECTOR_MODE, CompileRefusal
from repro.sim.replay import EpochReplay
from repro.sim.stats import StatsCollector
from repro.topology import build_mesh, ni_name
from repro.traffic.generators import (
    BurstGenerator,
    CbrGenerator,
    TraceGenerator,
)
from repro.traffic.sinks import CheckingSink, ThrottledSink

from ..differential import (
    allocate,
    assert_same,
    lockstep,
    mutant_survives,
    network_image,
    plant,
)

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
    #: Per connection: (kind, words_per_cycle, period); a "drain" sink
    #: checks without a collector behind it.
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
        return CheckingSink(
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


def run_chunked_differential(scenario: Scenario, tamper=None):
    return lockstep(
        lambda mode: build_daelite(scenario, mode), scenario.chunks, tamper
    )


def configured_net(mode: str, requests, side=2, params=None):
    """A ``side`` x ``side`` mesh with ``requests`` allocated and the
    first one configured; returns ``(net, allocations, first handle)``."""
    params = params or daelite_parameters(slot_table_size=8)
    mesh = build_mesh(side, side)
    allocator = SlotAllocator(topology=mesh, params=params)
    allocated = [allocator.allocate_connection(r) for r in requests]
    net = DaeliteNetwork(mesh, params, kernel_mode=mode)
    handle = net.configure(allocated[0])
    net.run_until_configured(handle)
    return net, allocated, handle


def attach_cbr_flow(
    net,
    handle,
    request,
    period,
    total_words=None,
    label=None,
    sink_stats=True,
    sink_start=0,
):
    """A CBR generator and a CheckingSink on one configured connection
    (words labelled ``request.label`` unless ``label`` says otherwise)."""
    name = request.label
    gen = CbrGenerator(
        f"gen_{name}",
        inject=net.ni(request.src_ni).injector(
            handle.forward.src_channel, name if label is None else label
        ),
        period=period,
        total_words=total_words,
    )
    sink = CheckingSink(
        f"sink_{name}",
        receive=net.ni(request.dst_ni).receiver(handle.forward.dst_channel),
        words_per_cycle=2,
        start_cycle=sink_start,
        stats=net.stats if sink_stats else None,
    )
    net.kernel.add(gen)
    net.kernel.add(sink)
    return gen, sink


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


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios())
def test_daelite_vector_kernel_matches_naive(scenario: Scenario):
    params = daelite_parameters(slot_table_size=8)
    try:
        allocate(scenario, params)
    except AllocationError:
        assume(False)
    net_v = run_chunked_differential(scenario)
    # The scenarios must actually exercise the engine (replay
    # engagement is workload dependent and asserted deterministically
    # in test_vector_epoch_replay_is_bit_exact).
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
    net_v = run_chunked_differential(scenario)
    assert net_v.stats.delivered_words("c0") == 12


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


def test_replay_matches_naive_3x3():
    """The multi-flow 3x3 scenario replays and stays bit-identical to
    the naive reference."""
    net = run_chunked_differential(crossing_scenario())
    kernel_stats = net.kernel.kernel_stats()
    assert kernel_stats["compiled_cycles"] > 0
    assert kernel_stats["replayed_epochs"] > 0, (
        f"replay never engaged: {kernel_stats}"
    )


def test_16x16_matches_naive():
    """A 16x16 fabric (512 elements) delivers the same word stream,
    statistics and landing registers through replayed epochs as the
    naive reference does by stepping."""
    request = ConnectionRequest(
        "far", "NI00", ni_name(15, 15), forward_slots=2
    )

    def build(mode):
        net, _, handle = configured_net(
            mode,
            [request],
            side=16,
            params=daelite_parameters(
                slot_table_size=16, config_word_bits=11
            ),
        )
        gen, sink = attach_cbr_flow(net, handle, request, period=40)
        return net, [gen], [sink]

    net = lockstep(build, (4_000,))
    assert net.kernel.kernel_stats()["replayed_epochs"] > 0
    assert net.stats.delivered_words("far") > 0


#: Two 3-leaf trees and a unicast flow on a 3x3 mesh.
TREES = (
    MulticastRequest("t0", "NI00", ("NI11", "NI22", "NI02"), slots=2),
    MulticastRequest("t1", "NI20", ("NI01", "NI12", "NI21"), slots=1),
)
UNICAST = ConnectionRequest(
    "u", "NI10", "NI22", forward_slots=1, reverse_slots=1
)


def build_trees(mode):
    """:data:`TREES` and :data:`UNICAST`, each fed by a period-8 CBR
    generator, every leaf drained by a checking sink."""
    params = daelite_parameters(slot_table_size=8)
    mesh = build_mesh(3, 3)
    allocator = SlotAllocator(topology=mesh, params=params)
    trees = [allocator.allocate_multicast(request) for request in TREES]
    unicast = allocator.allocate_connection(UNICAST)
    net = DaeliteNetwork(mesh, params, kernel_mode=mode)
    handle = net.configure(unicast)
    net.run_until_configured(handle)
    gen, sink = attach_cbr_flow(net, handle, UNICAST, period=8)
    gens, sinks = [gen], [sink]
    for request, tree in zip(TREES, trees):
        handle = net.configure_multicast(tree)
        net.run_until_configured(handle)
        gens.append(
            CbrGenerator(
                f"gen_{request.label}",
                inject=net.ni(request.src_ni).injector(
                    handle.src_channel, request.label
                ),
                period=8,
            )
        )
        net.kernel.add(gens[-1])
        for leaf in request.dst_nis:
            sinks.append(
                CheckingSink(
                    f"sink_{request.label}_{leaf}",
                    receive=net.ni(leaf).receiver(handle.dst_channels[leaf]),
                    stats=net.stats,
                )
            )
            net.kernel.add(sinks[-1])
    return net, gens, sinks


def test_multicast_trees_replay_by_ledger_deltas(monkeypatch):
    """Replayed epochs of two 3-leaf trees land bit-identically — the
    leaves' latency histograms, cursors and undelivered words included —
    credited from the template epoch's counter deltas, with no
    ``record_ejection`` call inside the replay (only stepped deliveries
    make those)."""
    calls = {"replay": 0, "record_ejection": 0}
    inside = []
    replay = CompiledEngine._replay
    record_ejection = StatsCollector.record_ejection

    def replaying(self, *args):
        calls["replay"] += 1
        inside.append(self)
        try:
            return replay(self, *args)
        finally:
            inside.pop()

    def ejecting(self, *args, **kwargs):
        calls["record_ejection"] += len(inside)
        record_ejection(self, *args, **kwargs)

    monkeypatch.setattr(CompiledEngine, "_replay", replaying)
    monkeypatch.setattr(StatsCollector, "record_ejection", ejecting)
    replayed_before = []

    def note_replayed(index, net):
        if index == 1 and net.kernel.mode == VECTOR_MODE:
            replayed_before.append(net.kernel.kernel_stats()["replayed_cycles"])

    net = lockstep(build_trees, (200, 4_000), note_replayed)
    replayed = net.kernel.kernel_stats()["replayed_cycles"]
    assert (replayed - replayed_before[0]) / 4_000 >= 0.9
    for request in TREES:
        ledger = net.stats.connections[request.label]
        assert ledger.ejected > 2 * ledger.injected
        assert len(ledger.latency_histogram) <= 3
    assert calls["replay"] > 0
    assert calls["record_ejection"] == 0


# -- values beyond 64 bits replay exactly ---------------------------------------


def run_big_value_differential(trace=None, first_sequence=0):
    """One 2x2 flow whose payloads (``trace``) or sequence numbers
    (``first_sequence``) are too large for a 64-bit machine integer."""
    request = ConnectionRequest("big", "NI00", "NI11", forward_slots=2)

    def build(mode):
        net, _, handle = configured_net(mode, [request])
        channel = handle.forward.src_channel
        inject = net.ni("NI00").injector(channel, "big")
        if trace is None:
            net.ni("NI00")._sequence_counters[channel] = first_sequence
            gen = CbrGenerator("gen", inject=inject, period=10)
        else:
            base = net.kernel.cycle
            gen = TraceGenerator(
                "gen",
                inject=inject,
                trace=[(base + at, payload) for at, payload in trace],
            )
        sink = CheckingSink(
            "sink",
            receive=net.ni("NI11").receiver(handle.forward.dst_channel),
            words_per_cycle=2,
        )
        net.kernel.add(gen)
        net.kernel.add(sink)
        return net, [gen], [sink]

    net = lockstep(build, (7, 400, 1593))
    stats = net.kernel.kernel_stats()
    assert stats["compiled_cycles"] > 0
    return net, stats


def test_unencodable_trace_payload_steps_in_engine():
    """A 2**62 trace payload is no reason to leave the engine: it is
    stepped there with Python integers, both words arrive exactly once,
    and the trace-generator deferral keeps every epoch that contains it
    away from replay (the idle epochs after it do replay)."""
    net, stats = run_big_value_differential(trace=[(10, 1), (20, 2**62)])
    assert net.stats.delivered_words("big") == 2
    assert stats["replayed_epochs"] > 0
    assert stats["replay_refusals"] == {}


def test_sequences_at_2_62_replay_bit_exactly():
    """Sequence numbers at 2**62 replay like any others: replay shifts
    them in Python integers, so steady epochs are replayed with no
    ``replay_refusals`` entry and land bit-exactly on the naive run."""
    net, stats = run_big_value_differential(first_sequence=2**62)
    assert stats["replayed_epochs"] > 0
    assert stats["replay_refusals"] == {}
    assert net.stats.delivered_words("big") > 100


# -- sinks count; a trace generator may join late ------------------------------


def late_trace(mode):
    """REQUEST_A configured, a sink that leaves its words queued, and
    50 cycles later a trace generator whose first entry is already
    past.  Returns the cycles (relative to set-up) at which the
    generator fired, the queued payloads, whether it is done, and the
    statistics."""
    net, _, handle = configured_net(mode, [REQUEST_A])
    base = net.kernel.cycle
    sink = CheckingSink(
        "sink",
        receive=net.ni("NI11").receiver(handle.forward.dst_channel),
        start_cycle=base + 10_000,
    )
    net.kernel.add(sink)
    net.run(50)
    gen = TraceGenerator(
        "late",
        inject=net.ni("NI00").injector(handle.forward.src_channel, "late"),
        trace=[(base + 5, 1), (base + 100, 2), (base + 120, 3)],
    )
    net.kernel.add(gen)
    fired = []
    for _ in range(110):
        generated = gen.words_generated
        net.run(1)
        if gen.words_generated > generated:
            fired.append(net.kernel.cycle - 1 - base)
    dest = net.ni("NI11").dest_channel(handle.forward.dst_channel)
    return (
        fired,
        [word.payload for word in dest.queue],
        gen.done,
        network_image(net, [gen], [sink]),
    )


def test_trace_generator_added_after_its_first_entry():
    """The entry before the cycle the generator joins never fires; the
    later ones fire at their cycles, in every mode."""
    naive = late_trace(NAIVE_MODE)
    assert naive[:3] == ([100, 120], [2, 3], True)
    assert late_trace(VECTOR_MODE) == naive


@pytest.mark.parametrize("mode", [NAIVE_MODE, VECTOR_MODE])
def test_sinks_hold_no_per_word_state(mode):
    """A sink's containers do not grow with the words it consumes: after
    four times the run, every one has the length it had, while the word
    count has grown."""
    net, _, sinks = one_flow(mode)
    sink = sinks[0]

    def lengths():
        return {
            name: len(value)
            for name, value in vars(sink).items()
            if isinstance(value, Sized) and not isinstance(value, str)
        }

    net.run(400)
    words, before = sink.words_received, lengths()
    net.run(1200)
    assert sink.words_received > 3 * words > 0
    assert lengths() == before
    assert sink.clean
    if mode == VECTOR_MODE:
        assert net.kernel.kernel_stats()["replayed_epochs"] > 0


def ledger_entries(stats):
    """Entries the ledger retains: histogram keys, undelivered sequence
    numbers, per-flow cursors — and the length of any other container a
    connection's record holds."""
    entries = len(stats._last_ejected)
    for ledger in stats.connections.values():
        for field in fields(ledger):
            value = getattr(ledger, field.name)
            if isinstance(value, Sized) and not isinstance(value, str):
                entries += len(value)
    return entries


@pytest.mark.parametrize("mode", [NAIVE_MODE, VECTOR_MODE])
def test_ledger_holds_no_per_word_state(mode):
    """One flow carrying N and then 10N words leaves the ledger holding
    as many entries either way: counts, not history."""

    def run(words):
        net, _, _ = one_flow(mode, total_words=words)
        net.run(5 * words + 200)
        assert net.stats.delivered_words("a") == words
        return ledger_entries(net.stats)

    assert 0 < run(400) <= run(40)


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
def test_aelite_vector_mode_matches_naive(scenario: Scenario):
    """aelite has no compiled data-plane model; vector mode must fall
    back transparently and still be bit-identical to naive."""
    params = aelite_parameters(slot_table_size=8)
    try:
        allocate(scenario, params)
    except AllocationError:
        assume(False)
    net_v = lockstep(
        lambda mode: (build_aelite(scenario, mode), [], []), scenario.chunks
    )
    kernel_stats = net_v.kernel.kernel_stats()
    assert kernel_stats["compiled_cycles"] == 0
    assert (
        kernel_stats["compile_fallbacks"].get("unsupported_component", 0)
        > 0
    )


# -- use-case switch campaign --------------------------------------------------

REQUEST_A = ConnectionRequest(
    "a", "NI00", "NI11", forward_slots=2, reverse_slots=1
)
REQUEST_B = ConnectionRequest(
    "b", "NI10", "NI01", forward_slots=2, reverse_slots=1
)


def run_switch_campaign(mode: str):
    """Boot use-case -> steady traffic -> switch to run use-case ->
    steady traffic again, with checkpointed snapshots throughout.

    Exercises the piecewise-periodic machinery across a switch that the
    engine cannot ride through blind: "a" is torn down while its
    generator still fires and its sink is attached, so the tear-down
    writes what a live flow reads.  Returns the net, the checkpoints and
    ``kernel_stats()`` before the switch, after the tear-down and after
    the set-up of "b".
    """
    params = daelite_parameters(slot_table_size=8)
    mesh = build_mesh(2, 2)
    manager = UseCaseManager(topology=mesh, params=params)
    manager.add_usecase(UseCase("boot", (REQUEST_A,)))
    manager.add_usecase(UseCase("run", (REQUEST_B,)))
    net = DaeliteNetwork(mesh, params, kernel_mode=mode)
    checkpoints = []

    handle_a = net.configure(manager.allocation("boot", "a"))
    net.run_until_configured(handle_a)
    # 60 words, one per 20 cycles: still flowing at the switch.
    gen_a, sink_a = attach_cbr_flow(
        net, handle_a, REQUEST_A, period=20, total_words=60
    )
    gens, sinks = [gen_a], [sink_a]
    for chunk in (7, 600, 393):
        net.run(chunk)
        checkpoints.append(network_image(net, gens, sinks))
    stats = [net.kernel.kernel_stats()]

    # The switch: tear down "a", set up "b", stepping while config
    # words are in flight.
    teardown = net.host.teardown_connection(
        handle_a, manager.allocation("boot", "a")
    )
    net.run(5)
    checkpoints.append(network_image(net, gens, sinks))
    net.run_until_configured(teardown)
    stats.append(net.kernel.kernel_stats())
    handle_b = net.configure(manager.allocation("run", "b"))
    stats.append(net.kernel.kernel_stats())
    checkpoints.append(network_image(net, gens, sinks))
    # Two forward slots of an 8-slot wheel carry one word per 8 cycles;
    # period 10 keeps the flow below capacity so the post-switch steady
    # state is exactly periodic (an overloaded queue grows every epoch
    # and correctly never replays).
    gen_b, sink_b = attach_cbr_flow(net, handle_b, REQUEST_B, period=10)
    gens.append(gen_b)
    sinks.append(sink_b)
    for chunk in (3, 2000, 997):
        net.run(chunk)
        checkpoints.append(network_image(net, gens, sinks))
    assert sink_a.clean and sink_b.clean
    return net, checkpoints, stats


def test_usecase_switch_campaign_is_bit_exact():
    """The vector engine rides through a use-case switch — the set-up
    of "b" is engine time, the tear-down of a still-flowing "a" is
    caught as visible and recompiled — then replays the *new* steady
    state, with every checkpoint identical to the naive
    reference."""
    net_v, chk_v, (boot, torn, switched) = run_switch_campaign(VECTOR_MODE)
    net_a, chk_a, _ = run_switch_campaign(NAIVE_MODE)
    assert_same(chk_v, chk_a, "checkpoints")
    # The visible path fired: tearing down what "a" reads recompiled.
    assert torn["lowering_cache_misses"] > boot["lowering_cache_misses"]
    # The set-up of "b" read nothing live: the engine ran the wait and
    # kept its lowering.
    assert (
        switched["compiled_cycles"] - torn["compiled_cycles"]
        == switched["cycle"] - torn["cycle"]
        > 0
    )
    assert switched["active_cycles"] == torn["active_cycles"]
    assert (
        switched["lowering_cache_misses"] + switched["lowering_cache_hits"]
        == torn["lowering_cache_misses"] + torn["lowering_cache_hits"]
    )
    assert switched["compile_deferrals"] == torn["compile_deferrals"]
    # ... and epoch replay re-engaged in the *new* regime.
    stats = net_v.kernel.kernel_stats()
    assert stats["compiled_cycles"] > switched["compiled_cycles"]
    assert stats["replayed_epochs"] > switched["replayed_epochs"]
    assert 0 < net_v.stats.delivered_words("a") < 60
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
    net, (_conn_a, conn_b), handle_a = configured_net(
        mode, [REQUEST_A, REQUEST_B]
    )
    gen_a, sink_a = attach_cbr_flow(net, handle_a, REQUEST_A, period=10)
    gens, sinks = [gen_a], [sink_a]
    checkpoints = []
    segments = []

    def steady_segment(label):
        start = net.kernel.kernel_stats()["replayed_epochs"]
        for chunk in (5, 700, 595):
            net.run(chunk)
            checkpoints.append(network_image(net, gens, sinks))
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
    bit-identical to the naive reference, and the revisits are
    served from the engine's template store (immediate replay, no
    two-epoch probe).  The switches configure only the idle "b", so one engine
    rides through all three: nothing is lowered again."""
    net_v, chk_v, seg_v = run_regime_revisit_campaign(VECTOR_MODE)
    net_a, chk_a, _ = run_regime_revisit_campaign(NAIVE_MODE)
    assert_same(chk_v, chk_a, "checkpoints")
    for label, delta in seg_v:
        assert delta > 0, f"segment {label!r} never replayed: {seg_v}"
    stats = net_v.kernel.kernel_stats()
    # Both revisited regimes were served from stored templates ...
    assert stats["regime_cache_hits"] >= 2, stats
    # ... which was populated by the first visits ...
    assert stats["regime_cache_stores"] >= 2, stats
    assert stats["regimes_detected"] >= 4, stats
    # ... and no switch re-lowered, nor left the engine.
    assert stats["lowering_cache_hits"] == 0, stats
    assert stats["active_cycles"] == 0, stats
    assert net_v.stats.delivered_words("a") > 0


def test_shared_channel_records_aperiodic_replay_refusal():
    """Two generators feed one channel under one label, so the
    per-connection shifts replay depends on are ambiguous.  A genuinely
    aperiodic-for-replay segment is a *diagnosis*, not a fallback: the
    engine keeps executing its fast path bit-exactly and
    ``kernel_stats()`` records a typed ``aperiodic_segment`` entry in
    ``replay_refusals`` — never in ``compile_fallbacks``."""
    request = ConnectionRequest(
        "dup", "NI00", "NI11", forward_slots=2, reverse_slots=1
    )

    def build(mode):
        net, _, handle = configured_net(mode, [request])
        gen, sink = attach_cbr_flow(net, handle, request, period=10)
        twin = CbrGenerator("twin", inject=gen.inject, period=15)
        net.kernel.add(twin)
        return net, [gen, twin], [sink]

    net = lockstep(build, (5, 700, 595))
    stats = net.kernel.kernel_stats()
    assert stats["compiled_cycles"] > 0
    assert stats["replayed_epochs"] == 0
    assert stats["replay_refusals"].get(CompileRefusal.APERIODIC, 0) > 0
    assert CompileRefusal.APERIODIC not in stats["compile_fallbacks"]
    assert net.stats.delivered_words("dup") > 0


# -- every slow branch is reached and compared ---------------------------------
#
# One connection on a 2x2 mesh unless a scenario needs more; outside
# state is changed between two chunks, identically in both builds (the
# builds agree on every register and counter there), so that the next
# engine run finds a fast path's precondition false.


def one_flow(mode, period=5, **flow):
    """REQUEST_A configured, with :func:`attach_cbr_flow` on it."""
    net, _, handle = configured_net(mode, [REQUEST_A])
    gen, sink = attach_cbr_flow(net, handle, REQUEST_A, period, **flow)
    return net, [gen], [sink]


def flow_ends(net):
    """``(source NI, source channel index, source channel, destination
    channel)`` of the first generator and the first sink on ``net``."""
    gen = next(
        c for c in net.kernel.components if isinstance(c, CbrGenerator)
    )
    sink = next(
        c for c in net.kernel.components if isinstance(c, CheckingSink)
    )
    ni, channel = gen.inject.ni, gen.inject.channel
    return (
        ni,
        channel,
        ni.source_channel(channel),
        sink.receive.ni.dest_channel(sink.receive.channel),
    )


def replace_word_in_flight(net, make):
    """Swap the word of the first register-resident data phit for
    ``make(word)``: the same register in both builds, and still on the
    compiled schedule."""
    reg = next(
        reg
        for reg in net.kernel.all_registers()
        if isinstance(reg.q, Phit) and reg.q.word is not None
    )
    net.kernel.write_register(
        reg, Phit(word=make(reg.q.word), credit_bits=reg.q.credit_bits)
    )


def before_chunk(when, change):
    """A ``tamper`` applying ``change(net)`` before chunk ``when``."""

    def tamper(index, net):
        if index == when:
            change(net)

    return tamper


def assert_engine_never_stood_down(net):
    """Every cycle since set-up was the engine's: what the run shows is
    the engine's doing, not a naive fallback's."""
    stats = net.kernel.kernel_stats()
    assert stats["compile_fallbacks"] == stats["compile_deferrals"] == {}


def after_a_raise(net, gens=(), sinks=()):
    """The image of a build whose last run raised, less what the source
    side drives — registers, link counts, the element tables' and the
    endpoints' source state: in its failing cycle the naive kernel has
    already let the NIs registered before the failing one inject."""
    image = network_image(net, gens, sinks)
    kept = ("cycle", "ledger", "sinks", "gens", "drops", "config")
    return (
        {key: image[key] for key in kept},
        {name: dests for name, (_, dests, _) in image["endpoints"].items()},
    )


def raises_in_lockstep(build, chunks, tamper, error, match):
    """Both builds agree through ``chunks[:-1]``; the last chunk then
    raises ``error`` in both — same message, same ``kernel.cycle``, same
    ledger and fault log, same sinks, generators and destination queues
    (the arrivals before the failing one are applied, nothing after it
    is; see :func:`after_a_raise`).  The vector build must have raised from inside
    an engine run that left a fast path (``model_calls``)."""
    built = {}

    def keep(mode):
        built[mode] = build(mode)
        return built[mode]

    lockstep(keep, chunks[:-1], tamper)
    outcomes = []
    for mode in (VECTOR_MODE, NAIVE_MODE):
        net, gens, sinks = built[mode]
        tamper(len(chunks) - 1, net)
        engine = net.kernel._engine
        calls = engine.model_calls if mode == VECTOR_MODE else 0
        with pytest.raises(error, match=match) as caught:
            net.run(chunks[-1])
        if mode == VECTOR_MODE:
            assert net.kernel._engine is engine
            assert engine.model_calls > calls > 0
        outcomes.append(
            (type(caught.value), str(caught.value), after_a_raise(net, gens, sinks))
        )
    assert outcomes[0] == outcomes[1]
    assert_engine_never_stood_down(built[VECTOR_MODE][0])
    return {mode: net for mode, (net, _, _) in built.items()}


#: REQUEST_A the other way round: its words arrive at NI00, which steps
#: before NI11, where they enter their first link.
REQUEST_A_BACK = ConnectionRequest(
    "a", "NI11", "NI00", forward_slots=2, reverse_slots=1
)


def one_flow_back(mode):
    """REQUEST_A_BACK configured, with :func:`attach_cbr_flow` on it."""
    net, _, handle = configured_net(mode, [REQUEST_A_BACK])
    gen, sink = attach_cbr_flow(net, handle, REQUEST_A_BACK, 5)
    return net, [gen], [sink]


def repeat_previous(net):
    """Make the first word in flight a repeat of the one before it:
    its delivery is out of order."""
    replace_word_in_flight(
        net,
        lambda word: Word(
            payload=word.payload,
            connection=word.connection,
            sequence=word.sequence - 1,
            injected_at=word.injected_at,
            parity=word.parity,
        ),
    )


def entering_word(net, ni):
    """The word entering ``ni``'s outgoing link in the current cycle."""
    phit = net.ni(ni)._out_reg.q
    assert isinstance(phit, Phit) and phit.word is not None
    return phit.word


class TestEverySlowBranchIsReachedAndCompared:
    def test_credit_counter_overflow(self):
        """``add_credits`` past ``max_credit``: a fabricated credit
        returns to a source whose counter is full."""

        def fabricate(net):
            _, _, source, dest = flow_ends(net)
            source.credit_counter = source.max_credit
            dest.pending_credits += 1

        raises_in_lockstep(
            lambda mode: one_flow(mode, period=7, total_words=6),
            (120, 60),
            before_chunk(1, fabricate),
            FlowControlError,
            "would overflow",
        )

    def test_credits_without_a_paired_source(self):
        def unpair(net):
            ni, channel, _, _ = flow_ends(net)
            for dest in ni.dest_channels.values():
                if dest.paired_source == channel:
                    dest.paired_source = None

        raises_in_lockstep(
            one_flow,
            (203, 60),
            before_chunk(1, unpair),
            FlowControlError,
            "no paired source channel",
        )

    def test_duplicate_injection_into_a_preseeded_column(self):
        """The ledger is pre-seeded with a word three sequence numbers
        ahead of the NI's counter: the next real word is below the
        connection's last injected one, and refused."""

        def preseed(net):
            ni, channel, _, _ = flow_ends(net)
            net.stats.record_injection(
                Word(
                    payload=0,
                    connection="a",
                    sequence=ni._sequence_counters[channel] + 3,
                ),
                0,
            )

        raises_in_lockstep(
            one_flow,
            (203, 60),
            before_chunk(1, preseed),
            StatsIntegrityError,
            "injected twice",
        )

    def test_never_injected_word_in_a_padded_column(self):
        """A fabricated, unstamped word of a connection the ledger knows
        (words 0 and 2 injected, 0 delivered), arriving as the very
        sequence number its destination expects — everything the eject
        fast path tests except the stamp."""

        def fabricate(net):
            for sequence in (0, 2):
                word = Word(payload=0, connection="ghost", sequence=sequence)
                net.stats.record_injection(word, 0)
                if sequence == 0:
                    net.stats.record_ejection(word, 1, "NI11")
            replace_word_in_flight(
                net,
                lambda word: Word(
                    payload=word.payload,
                    connection="ghost",
                    sequence=1,
                    parity=word.parity,
                ),
            )

        raises_in_lockstep(
            one_flow,
            (203, 40),
            before_chunk(1, fabricate),
            StatsIntegrityError,
            "never injected",
        )

    def test_out_of_order_delivery(self):
        raises_in_lockstep(
            one_flow,
            (203, 40),
            before_chunk(1, repeat_previous),
            StatsIntegrityError,
            "out-of-order delivery",
        )

    def test_raise_after_a_folded_link_entry_of_its_cycle(self):
        """The delivery at NI11 raises in the cycle a word of the same
        flow enters NI00's link.  The engine recorded that injection at
        the launch; NI00 steps first, so it stays recorded."""
        nets = raises_in_lockstep(
            one_flow,
            (203, 40),
            before_chunk(1, repeat_previous),
            StatsIntegrityError,
            "out-of-order delivery",
        )
        for net in nets.values():
            assert entering_word(net, "NI00").injected_at == net.kernel.cycle

    def test_raise_before_a_folded_link_entry_of_its_cycle(self):
        """The delivery at NI00 raises in the cycle a word of the same
        flow enters NI11's link.  The engine recorded that injection at
        the launch; NI11 steps after NI00, so it is taken back."""
        nets = raises_in_lockstep(
            one_flow_back,
            (203, 40),
            before_chunk(1, repeat_previous),
            StatsIntegrityError,
            "out-of-order delivery",
        )
        for net in nets.values():
            assert entering_word(net, "NI11").injected_at == -1

    def test_raise_while_a_folded_credit_launch_is_pending(self):
        """The delivery raises while the credits of the words drained
        before it wait for the reverse channel's next credit-collecting
        slot: the engine launched them at the drain, and takes that
        launch back."""
        nets = raises_in_lockstep(
            one_flow,
            (215, 40),
            before_chunk(1, repeat_previous),
            StatsIntegrityError,
            "out-of-order delivery",
        )
        for net in nets.values():
            _, _, _, dest = flow_ends(net)
            assert dest.pending_credits > 0

    def test_exception_counts_only_the_events_applied(self):
        """``events_handled`` after a raise in the middle of a cycle's
        events: the raising arrival, first of its cycle, counts; the
        events behind it, not applied (and counted again by the run that
        applies them), do not."""

        def build():
            net, _, _ = one_flow_back(VECTOR_MODE)
            net.run(203)
            repeat_previous(net)
            return net

        raising = build()
        with pytest.raises(StatsIntegrityError, match="out-of-order"):
            raising.run(40)
        stopped = build()
        stopped.run(raising.kernel.cycle - stopped.kernel.cycle)
        assert (
            raising.kernel._engine.events_handled
            == stopped.kernel._engine.events_handled + 1
        )

    def test_destination_queue_overflow(self):
        """``deliver`` into a full flow-controlled queue: the sink never
        drains and the source is handed credits it does not own."""

        def fabricate(net):
            _, _, source, _ = flow_ends(net)
            source.credit_counter = source.max_credit

        raises_in_lockstep(
            lambda mode: one_flow(mode, period=3, sink_start=10**9),
            (50, 400),
            before_chunk(1, fabricate),
            FlowControlError,
            "overflowed",
        )

    def test_sparse_sequences_pad_the_column(self):
        """A first sequence number above zero and a later jump: the
        ledger counts the injected words only, the collector and the
        sink report the gaps."""

        def build(mode):
            net, gens, sinks = one_flow(mode, period=7)
            ni, channel, _, _ = flow_ends(net)
            ni._sequence_counters[channel] = 7
            return net, gens, sinks

        def jump(net):
            ni, channel, _, _ = flow_ends(net)
            ni._sequence_counters[channel] += 5

        net = lockstep(
            build, (60, 45, 60), before_chunk(1, jump)
        )
        ledger = net.stats.connections["a"]
        assert ledger.last_sequence - 7 + 1 > ledger.injected
        assert net.stats.fault_counts() == {"sequence_gap": 2, "e2e_gap": 2}
        assert_engine_never_stood_down(net)

    def test_earlier_sequence_preceding_the_last_is_refused(self):
        """The ledger already holds word 50 when the flow's word 0 is
        injected: below the connection's last sequence, so refused —
        where the per-word column used to prepend it — in the same
        cycle, with the same message and an unchanged ledger in both
        kernels."""
        outcomes = []
        for mode in (VECTOR_MODE, NAIVE_MODE):
            net, _, _ = one_flow(mode, period=7, total_words=10)
            net.stats.record_injection(
                Word(payload=0, connection="a", sequence=50), 0
            )
            with pytest.raises(
                StatsIntegrityError, match="injected twice"
            ) as caught:
                net.run(60)
            ledger = net.stats.connections["a"]
            assert (ledger.injected, ledger.ejected) == (1, 0)
            assert ledger.last_sequence == 50
            assert net.stats.undelivered() == [("a", 50)]
            outcomes.append((str(caught.value), after_a_raise(net)))
        assert outcomes[0] == outcomes[1]

    def test_parity_drop_then_the_gap_it_leaves(self):
        def corrupt(net):
            replace_word_in_flight(
                net,
                lambda word: Word(
                    payload=word.payload ^ 1,
                    connection=word.connection,
                    sequence=word.sequence,
                    injected_at=word.injected_at,
                    parity=word.parity,
                ),
            )

        net = lockstep(
            one_flow, (203, 40, 300), before_chunk(1, corrupt)
        )
        assert net.stats.fault_counts() == {
            "parity_error": 1,
            "sequence_gap": 1,
            "e2e_gap": 1,
        }
        assert_engine_never_stood_down(net)

    @pytest.mark.parametrize("sink_stats", [True, False])
    def test_sink_findings(self, sink_stats):
        """A word slipped into the destination queue behind the NI's
        back — stale parity wire, a sequence number the sink has seen —
        and the gap the sink then sees at the next real word; with and
        without a collector behind the sink."""

        def slip_in(net):
            _, _, _, dest = flow_ends(net)
            dest.queue.append(
                Word(payload=1, connection="a", sequence=0, parity=0)
            )

        net = lockstep(
            lambda mode: one_flow(mode, sink_stats=sink_stats),
            (203, 60),
            before_chunk(1, slip_in),
        )
        sink = next(
            c for c in net.kernel.components if isinstance(c, CheckingSink)
        )
        assert [finding.split()[1] for finding in sink.findings] == [
            "sink_parity_error:",
            "e2e_out_of_order:",
            "e2e_gap:",
        ]
        assert len(net.stats.faults) == (3 if sink_stats else 0)
        assert_engine_never_stood_down(net)

    def test_unlabelled_words_and_negative_sequences(self):
        """No connection label: the NI's default.  Sequence numbers
        below zero: recorded by the ledger, not checked by the sink."""

        def build(mode):
            net, gens, sinks = one_flow(mode, period=7, label="")
            ni, channel, _, _ = flow_ends(net)
            ni._sequence_counters[channel] = -2
            return net, gens, sinks

        net = lockstep(build, (30, 90))
        ni, channel, _, _ = flow_ends(net)
        ledger = net.stats.connections[f"{ni.name}.ch{channel}"]
        assert ledger.last_sequence > 10 and ledger.ejected > 10
        assert min(ledger.latency_histogram) > 0
        assert net.stats.faults == []
        assert_engine_never_stood_down(net)

    def test_multicast_tree(self):
        """One connection, two destinations: each word is ejected twice
        (only the first delivery takes it out of the undelivered set),
        the channels are not flow controlled, and both leaves' latencies
        land in one histogram."""
        params = daelite_parameters(slot_table_size=8)
        leaves = ("NI11", "NI01")

        def build(mode):
            mesh = build_mesh(2, 2)
            tree = SlotAllocator(
                topology=mesh, params=params
            ).allocate_multicast(
                MulticastRequest("tree", "NI00", leaves, slots=2)
            )
            net = DaeliteNetwork(mesh, params, kernel_mode=mode)
            handle = net.configure_multicast(tree)
            gen = CbrGenerator(
                "gen",
                inject=net.ni("NI00").injector(handle.src_channel, "tree"),
                period=7,
                total_words=30,
            )
            net.kernel.add(gen)
            sinks = []
            for leaf in leaves:
                sinks.append(
                    CheckingSink(
                        f"sink_{leaf}",
                        receive=net.ni(leaf).receiver(
                            handle.dst_channels[leaf]
                        ),
                        stats=net.stats,
                    )
                )
                net.kernel.add(sinks[-1])
            return net, [gen], sinks

        net = lockstep(build, (9, 100, 200))
        ledger = net.stats.connections["tree"]
        assert (ledger.injected, ledger.ejected) == (30, 60)
        assert_engine_never_stood_down(net)

    def test_generator_and_sink_roster(self):
        """A burst generator and a CBR generator whose budgets end
        mid-run, a trace generator, a CBR generator on a channel nobody
        owns (all four fire differently), a two-words-per-drain
        throttled sink, a drain sink and a checking sink."""
        scenario = Scenario(
            width=3,
            height=3,
            connections=(
                ("NI00", "NI22", 2),
                ("NI20", "NI02", 1),
                ("NI01", "NI21", 1),
            ),
            generators=(
                ("burst", 20, 8, 5, 3),
                # Absolute trace cycles: set-up ends at cycle 514.
                ("trace", 10, 530, 6, 1),
                ("cbr", 5, 0, 12, 1),
            ),
            sinks=(("throttled", 2, 4), ("drain", 1, 4), ("checking", 2, 4)),
            chunks=(7, 33, 50, 200),
        )

        def build(mode):
            net, gens, sinks = build_daelite(scenario, mode)
            stray = CbrGenerator(
                "stray",
                inject=net.ni("NI10").injector(6, "stray"),
                period=9,
                total_words=4,
            )
            net.kernel.add(stray)
            return net, gens + [stray], sinks

        net = lockstep(build, scenario.chunks)
        assert [
            net.stats.delivered_words(label) for label in ("c0", "c1", "c2")
        ] == [15, 6, 12]
        assert len(net.ni("NI10").source_channels[6].queue) == 4
        assert_engine_never_stood_down(net)


# -- the differential bites: planted engine mutants ----------------------------


def slow_branch(name: str):
    """A bound test of :class:`TestEverySlowBranchIsReachedAndCompared`."""
    return getattr(TestEverySlowBranchIsReachedAndCompared(), name)


def steal_credits(index, net):
    """Before the long third chunk, cut every flow-controlled source to
    one credit — an external mutation between two runs, made to both
    builds.  The engine's carried-over probe has to notice it."""
    if index == 2:
        for ni in net.nis.values():
            for source in ni.source_channels.values():
                if source.flow_controlled:
                    source.credit_counter = min(source.credit_counter, 1)


def run_burst_at_every_offset():
    """Three-word bursts on REQUEST_A's two slots, with a barrier every
    three cycles at each offset in turn: some barrier falls after the
    launches of two words of a burst in one run and before their link
    entries."""
    return lockstep(
        one_flow_bursts, (40,) + ((3,) * 12 + (1,)) * 3
    )


def one_flow_bursts(mode):
    """REQUEST_A configured, fed three-word bursts every 16 cycles."""
    net, _, handle = configured_net(mode, [REQUEST_A])
    gen = BurstGenerator(
        "burst",
        inject=net.ni("NI00").injector(handle.forward.src_channel, "a"),
        burst_words=3,
        period=16,
    )
    sink = CheckingSink(
        "sink",
        receive=net.ni("NI11").receiver(handle.forward.dst_channel),
        words_per_cycle=2,
        stats=net.stats,
    )
    net.kernel.add(gen)
    net.kernel.add(sink)
    return net, [gen], [sink]


def run_credit_theft_differential():
    return run_chunked_differential(steady_scenario(), steal_credits)


def run_credit_theft_at_a_boundary():
    """The credit theft landing exactly on a period boundary (set-up
    ends at cycle 284, the period is 80): the carried-over probe is
    compared there before any word has felt the theft."""
    scenario = steady_scenario()
    return run_chunked_differential(
        replace(scenario, chunks=(7, 429) + scenario.chunks[2:]),
        steal_credits,
    )


class TestPlantedEngineMutantsAreKilled:
    def test_unmutated_engine_survives_the_credit_theft(self):
        """The one campaign here no test above runs: the throttled
        regime is re-probed and replayed, bit-exactly."""
        net_v = run_credit_theft_differential()
        assert net_v.kernel.kernel_stats()["replayed_epochs"] >= 10

    def test_credit_return_dropped_at_arrive(self, monkeypatch):
        plant(
            monkeypatch,
            "source.credit_counter += credit_bits",
            "pass",
            method="run_to",
        )
        assert not mutant_survives(test_vector_epoch_replay_is_bit_exact)

    # One mutant per fast path (DESIGN.md §10.2), in each handler: the
    # arrivals inline in ``run_to`` (credit return above, overflow test,
    # eject fast path), ``_Run.visit`` (credit taken, credits collected,
    # injection counted and stamped), ``_Run.fold_credits`` (the fold's
    # slot; its config guard in tests/core/test_setup_under_traffic.py),
    # ``_Run.drain`` (last sequence), ``_Run.wake`` (throttled sink),
    # ``_Run.fire`` (sequence counter, burst length); ``_Run.boundary``
    # in tests/sim/test_replay_boundary.py and, with ``_Run.configure``
    # and ``CompiledEngine._enter``, in
    # tests/core/test_setup_under_traffic.py.

    def test_credit_not_decremented_at_launch(self, monkeypatch):
        """Owner visit.  The counter only ever grows, until a returning
        credit overflows it."""
        plant(
            monkeypatch,
            "source.credit_counter -= 1",
            "pass",
            owner=_Run,
            method="visit",
        )
        assert not mutant_survives(test_vector_epoch_replay_is_bit_exact)

    def test_pending_credits_kept_when_collected(self, monkeypatch):
        """Owner visit.  The same credits are returned slot after slot."""
        plant(
            monkeypatch,
            "dest.pending_credits = pending - granted",
            "pass",
            owner=_Run,
            method="visit",
        )
        assert not mutant_survives(test_vector_epoch_replay_is_bit_exact)

    def test_injection_not_counted_at_launch(self, monkeypatch):
        plant(monkeypatch, "ledger.injected += 1", "pass", owner=_Run, method="visit")
        assert not mutant_survives(test_vector_epoch_replay_is_bit_exact)

    def test_injection_not_stamped_at_launch(self, monkeypatch):
        """Launch.  The word arrives unstamped: never injected."""
        plant(
            monkeypatch,
            "stamp_injected(word, entry)",
            "pass",
            owner=_Run,
            method="visit",
        )
        assert not mutant_survives(test_vector_epoch_replay_is_bit_exact)

    def test_injection_stamped_with_the_launch_cycle(self, monkeypatch):
        """Launch.  The injection recorded at the launch is stamped with
        the launch cycle, not the link entry's: every latency comes out
        long."""
        plant(
            monkeypatch,
            "stamp_injected(word, entry)",
            "stamp_injected(word, cycle)",
            owner=_Run,
            method="visit",
        )
        assert not mutant_survives(test_vector_epoch_replay_is_bit_exact)

    def test_rollback_restores_the_last_sequence_of_each_word(
        self, monkeypatch
    ):
        """Barrier.  Two injections of one flow recorded at launch, both
        link entries still ahead: taking them back must restore the
        sequence before the first, not before whichever comes last."""
        plant(
            monkeypatch,
            "if sequence < rolled.get(label, _NEVER):",
            "if True:",
            method="_unload",
        )
        assert not mutant_survives(run_burst_at_every_offset)

    def test_folded_credit_collected_a_slot_late(self, monkeypatch):
        """Sink drain.  A credit drained just before its reverse
        channel's collecting phase is sent from the next one."""
        plant(
            monkeypatch,
            "at = start + owner.first[start % wheel]",
            "at = start + wps + owner.first[(start + wps) % wheel]",
            owner=_Run,
            method="fold_credits",
        )
        assert not mutant_survives(test_replay_matches_naive_3x3)

    def test_overflow_test_off_by_one(self, monkeypatch):
        """Arrival.  The queue takes one word more than it holds."""
        plant(
            monkeypatch,
            "and len(queue) >= dest.capacity",
            "and len(queue) > dest.capacity",
            method="run_to",
        )
        assert not mutant_survives(
            slow_branch("test_destination_queue_overflow")
        )

    def test_eject_fast_path_taken_for_a_never_injected_word(
        self, monkeypatch
    ):
        plant(
            monkeypatch,
            "and (injected := word.injected_at) >= 0",
            "and (injected := word.injected_at) >= -1",
            method="run_to",
        )
        assert not mutant_survives(
            slow_branch("test_never_injected_word_in_a_padded_column")
        )

    def test_last_seq_not_advanced_in_the_sink(self, monkeypatch):
        """Sink visit.  The inline drain counts the word but does not
        advance the connection's last sequence number."""
        plant(
            monkeypatch,
            "sink._last_seq[connection] = sequence",
            "pass",
            owner=_Run,
            method="drain",
        )
        assert not mutant_survives(test_vector_epoch_replay_is_bit_exact)

    def test_replay_credits_a_sink_one_epoch_short(self, monkeypatch):
        """Replay.  Only the sink's word count is wrong: its sequence
        bookkeeping and the ledger are replayed apart from it."""
        plant(
            monkeypatch,
            "len(evs) * epochs",
            "len(evs) * (epochs - 1)",
            owner=EpochReplay,
            method="materialize",
        )
        assert not mutant_survives(test_vector_epoch_replay_is_bit_exact)

    def test_replay_credits_the_histogram_one_epoch_short(
        self, monkeypatch
    ):
        """Replay.  Every latency count lands one epoch's worth low;
        nothing else in the ledger moves."""
        plant(
            monkeypatch,
            "connections[label].latency_histogram[rest[0]] = value",
            "connections[label].latency_histogram[rest[0]] = value - delta",
            owner=StatsCollector,
            method="credit",
        )
        assert not mutant_survives(test_vector_epoch_replay_is_bit_exact)

    def test_replay_leaves_the_undelivered_sets_unshifted(
        self, monkeypatch
    ):
        """Landing.  The words in flight are rewritten, but the ledger
        still lists them under their pre-replay sequence numbers."""
        plant(
            monkeypatch,
            "moved = sequences & ledger.undelivered",
            "moved = set()",
            method="_shift_inflight",
        )
        assert not mutant_survives(test_vector_epoch_replay_is_bit_exact)

    def test_shifted_word_keeps_its_old_injection_stamp(self, monkeypatch):
        """Landing.  A word in flight is moved ``epochs`` periods on but
        keeps the stamp of the word it replaces: its latency comes out
        ``epochs`` periods long."""
        plant(
            monkeypatch,
            "injected_at=injected_at + cycles if injected_at >= 0 else -1",
            "injected_at=injected_at",
            owner=compiled,
            method="_shifted",
        )
        assert not mutant_survives(test_vector_epoch_replay_is_bit_exact)

    def test_throttled_sink_drained_one_period_late(self, monkeypatch):
        """Sink wake-up.  A throttled sink's visit lands a period after
        the first drain cycle its queue allows."""
        plant(
            monkeypatch,
            "start += -start % sink_run[2]",
            "start += -start % sink_run[2] + sink_run[2]",
            owner=_Run,
            method="wake",
        )
        assert not mutant_survives(test_vector_epoch_replay_is_bit_exact)

    def test_sequence_counter_not_advanced_at_a_firing(self, monkeypatch):
        plant(
            monkeypatch,
            "ni._sequence_counters[channel] = sequence",
            "pass",
            owner=_Run,
            method="fire",
        )
        assert not mutant_survives(test_vector_epoch_replay_is_bit_exact)

    def test_burst_generator_fires_one_word_short(self, monkeypatch):
        plant(
            monkeypatch,
            "range(gen.burst_words if burst",
            "range(gen.burst_words - 1 if burst",
            owner=_Run,
            method="fire",
        )
        assert not mutant_survives(test_vector_epoch_replay_is_bit_exact)

    def test_in_flight_words_not_shifted_after_a_landing(self, monkeypatch):
        monkeypatch.setattr(
            CompiledEngine,
            "_shift_inflight",
            lambda self, deltas, epochs: None,
        )
        assert not mutant_survives(test_vector_epoch_replay_is_bit_exact)
        assert not mutant_survives(test_replay_matches_naive_3x3)

    def test_boundary_signature_ignoring_credit_counter(self, monkeypatch):
        """Finding: between two boundaries of one undisturbed run the
        counter is implied by credit conservation (queued, in-flight and
        pending credits are all in the signature), so this mutant
        *survives* every steady scenario above.  It is a template loaded
        at a later boundary — a comparison across an outside mutation —
        that needs the counter.  A theft mid-epoch only delays
        injections by a cycle inside the replayed span, at unchanged
        latencies and landing state, which a ledger of counts cannot
        see; a theft on the boundary itself starves the flows the
        replayed template does not, and kills it."""
        signature = CompiledEngine._signature

        def blind(self, cycle, cur):
            regs, chans, gens, sinks = signature(self, cycle, cur)
            chans = tuple(
                chan[:4] + (0,) + chan[5:] if chan[0] == 0 else chan
                for chan in chans
            )
            return regs, chans, gens, sinks

        assert mutant_survives(run_credit_theft_at_a_boundary)
        monkeypatch.setattr(CompiledEngine, "_signature", blind)
        assert mutant_survives(test_vector_epoch_replay_is_bit_exact)
        assert mutant_survives(run_credit_theft_differential)
        assert not mutant_survives(run_credit_theft_at_a_boundary)

    def test_regime_template_loaded_against_a_stale_anchor(
        self, monkeypatch
    ):
        load = EpochReplay.load

        def stale(self, sig, snap, cycle, anchors):
            behind = {
                conn: (seq - 1, pay) for conn, (seq, pay) in anchors.items()
            }
            return load(self, sig, snap, cycle, behind)

        monkeypatch.setattr(EpochReplay, "load", stale)
        assert not mutant_survives(
            test_regime_revisit_campaign_replays_from_cache
        )

    def test_trajectory_arrival_one_cycle_late(self):
        """The lowering is data the engine trusts: one trajectory whose
        arrival is scheduled a cycle after the op table delivers it."""

        def delay_arrival(index, net):
            if index == 1 and net.kernel.mode == VECTOR_MODE:
                trajectory = net.kernel._engine.trajectories[0]
                trajectory.launch = tuple(
                    (delay + 1, order, leaf)
                    for delay, order, leaf in trajectory.launch
                )

        assert not mutant_survives(
            lambda: run_chunked_differential(
                steady_scenario(), delay_arrival
            )
        )

    def test_slot_owner_not_rearmed_when_credits_arrive(self):
        """A flow-controlled source that ran out of credits sleeps until
        the credit arrival arms it; without that it stays stalled until
        its generator next fires.  The credit theft starves it."""

        def deafen_then_steal(index, net):
            if index == 1 and net.kernel.mode == VECTOR_MODE:
                for trajectory in net.kernel._engine.trajectories:
                    for leaf in trajectory.leaves:
                        leaf.ni_owners = {}
            steal_credits(index, net)

        assert not mutant_survives(
            lambda: run_chunked_differential(
                steady_scenario(), deafen_then_steal
            )
        )

    def test_barrier_skipping_the_in_flight_subtraction(self, monkeypatch):
        """A barrier pays the words launched since the last one as whole
        trajectories; those still in flight take back the links they
        have not crossed.  Without that, link ``words_carried`` drifts
        at every chunk boundary."""
        carry = CompiledEngine._carry

        def pay_only(leaf, start, stop, sign):
            if sign > 0:
                carry(leaf, start, stop, sign)

        monkeypatch.setattr(
            CompiledEngine, "_carry", staticmethod(pay_only)
        )
        assert not mutant_survives(test_vector_epoch_replay_is_bit_exact)
        assert not mutant_survives(test_replay_matches_naive_3x3)

    def test_barrier_not_paying_the_words_it_put_back(self, monkeypatch):
        """A word a barrier put back on its trajectory pays, at the next
        one, the links it crossed in between — all its remaining ones
        if it arrived.  Without that, link ``words_carried`` falls
        behind at every chunk boundary."""
        carry = CompiledEngine._carry

        def take_back_only(leaf, start, stop, sign):
            if sign < 0:
                carry(leaf, start, stop, sign)

        monkeypatch.setattr(
            CompiledEngine, "_carry", staticmethod(take_back_only)
        )
        assert not mutant_survives(test_vector_epoch_replay_is_bit_exact)
        assert not mutant_survives(test_replay_matches_naive_3x3)
