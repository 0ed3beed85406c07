"""The compiled engine refuses / is retired exactly when it must.

Every non-compilable situation has a *typed* refusal reason, queryable
from :meth:`Kernel.kernel_stats`, and always degrades to naive
stepping — never to wrong answers.  These tests pin each refusal kind to
the situation that produces it, and verify the engine re-engages once
the obstruction clears.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.core.config_protocol import (
    FLAG_ENABLED,
    FLAG_FLOW_CONTROLLED,
    ChannelField,
    Direction,
)
from repro.core.online import OnlineConnectionManager
from repro.errors import (
    FlowControlError,
    SimulationError,
    StatsIntegrityError,
)
from repro.faults import FaultInjector, FaultPlan, TransientBitFlip
from repro.params import daelite_parameters
from repro.sim.flit import Phit, Word
from repro.sim.kernel import (
    KERNEL_MODE_ENV,
    NAIVE_MODE,
    VECTOR_MODE,
    Component,
    CompileRefusal,
    Kernel,
    Register,
)
from repro.sim.stats import StatsCollector
from repro.sim.trace import Tracer
from repro.topology import build_mesh
from repro.traffic.generators import CbrGenerator, RandomGenerator
from repro.traffic.sinks import CheckingSink

from ..conftest import other_element_packet
from ..differential import network_image


def connected_compiled_net(topology=None, tracer=None, mode=VECTOR_MODE):
    """A vector-mode 2x2 network with one live, loaded connection."""
    params = daelite_parameters(slot_table_size=8)
    mesh = topology or build_mesh(2, 2)
    allocator = SlotAllocator(topology=mesh, params=params)
    connection = allocator.allocate_connection(
        ConnectionRequest(
            "flow", "NI00", "NI11", forward_slots=2, reverse_slots=1
        )
    )
    net = DaeliteNetwork(
        mesh, params, kernel_mode=mode, tracer=tracer
    )
    handle = net.configure(connection)
    net.run_until_configured(handle)
    gen = CbrGenerator(
        "gen",
        inject=net.ni("NI00").injector(handle.forward.src_channel, "flow"),
        period=5,
    )
    sink = CheckingSink(
        "sink",
        receive=net.ni("NI11").receiver(handle.forward.dst_channel),
        words_per_cycle=2,
        stats=net.stats,
    )
    net.kernel.add(gen)
    net.kernel.add(sink)
    return net, handle, sink


def fallbacks(net):
    return net.kernel.kernel_stats()["compile_fallbacks"]


def test_armed_fault_injector_forces_fallback_and_reengages():
    net, _, sink = connected_compiled_net()
    net.run(200)
    before = net.kernel.kernel_stats()
    assert before["compiled_cycles"] > 0
    assert before["compile_fallbacks"] == {}

    edge = next(
        key
        for key in net.links
        if key[0].startswith("R") and key[1].startswith("R")
    )
    plan = FaultPlan(
        seed=0,
        specs=(
            TransientBitFlip(
                edge=edge, cycle=net.kernel.cycle + 50, bit=3
            ),
        ),
    )
    injector = FaultInjector(net, plan)
    injector.arm()
    net.run(200)
    armed = net.kernel.kernel_stats()
    assert armed["compile_fallbacks"][CompileRefusal.FAULT_HOOKS_ARMED] > 0
    assert armed["last_refusal"] == CompileRefusal.FAULT_HOOKS_ARMED
    assert "fault hook" in armed["last_refusal_detail"]
    # No compiled execution happened while hooks were armed.
    assert armed["compiled_cycles"] == before["compiled_cycles"]

    injector.disarm()
    net.run(200)
    disarmed = net.kernel.kernel_stats()
    assert disarmed["compiled_cycles"] > armed["compiled_cycles"]
    # The flip struck while stepped: end-to-end checks saw it; nothing
    # was lost silently.
    assert net.stats.delivered_words("flow") > 0


def engine_ran(before, after):
    """Every cycle between two ``kernel_stats()`` snapshots was the
    engine's: none fell back to naive stepping."""
    return (
        after["compiled_cycles"] - before["compiled_cycles"]
        == after["cycle"] - before["cycle"]
        > 0
        and after["active_cycles"] == before["active_cycles"]
    )


def test_config_traffic_forces_fallback_then_recompiles():
    """An elided set-up under traffic is engine time: the wait runs on
    the engine, which rides through applies that miss the live flow.
    A packet only the word-level tree can carry — a read-back, whose
    response rides the reverse tree — still refuses it with
    CONFIG_ACTIVE, and once the tree is quiet the engine recompiles
    against the new schedule."""
    net, _, _ = connected_compiled_net(topology=build_mesh(2, 2))
    net.run(200)
    base = net.kernel.kernel_stats()

    manager = OnlineConnectionManager(net)
    allocation = manager.allocator.allocate_connection(
        ConnectionRequest(
            "late", "NI10", "NI01", forward_slots=1, reverse_slots=1
        )
    )
    handle = net.host.setup_connection(allocation)
    net.run(5)
    net.run_until_configured(handle)
    configured = net.kernel.kernel_stats()
    assert engine_ran(base, configured)
    assert configured["compile_fallbacks"] == {}
    assert configured["lowering_cache_misses"] == base["lowering_cache_misses"]

    read = net.host.read_channel_register(
        "NI01", Direction.ARRIVE, handle.forward.dst_channel, ChannelField.FLAGS
    )
    net.run(5)
    stats = net.kernel.kernel_stats()
    assert stats["compile_fallbacks"][CompileRefusal.CONFIG_ACTIVE] > 0
    assert stats["last_refusal"] == CompileRefusal.CONFIG_ACTIVE
    assert stats["active_cycles"] > configured["active_cycles"]

    net.wait_configured([read])
    assert read.responses == [FLAG_ENABLED | FLAG_FLOW_CONTROLLED]
    net.run(200)
    after = net.kernel.kernel_stats()
    # Quiet tree again: the read's apply moved the validity token, so
    # the engine recompiled — against the schedule the set-up it rode
    # through programmed, lowered for the first time.
    assert after["compiled_cycles"] > stats["compiled_cycles"]
    assert after["lowering_cache_misses"] > stats["lowering_cache_misses"]
    net.ni("NI10").submit_words(
        handle.forward.src_channel, [1, 2, 3], "late"
    )
    net.run(100)
    net.ni("NI01").receive(handle.forward.dst_channel)
    assert net.stats.delivered_words("late") == 3


def test_usecase_switch_falls_back_then_recompiles():
    """A use-case switch is engine time: tearing down an idle "a" and
    setting up "b" ride on the engine with the lowering kept; words
    submitted on "b" afterwards make a channel live that the ridden
    applies were never checked against, so the engine recompiles before
    running them.  A hand-built packet (no addressee record) is
    streamed through the word-level tree and refuses the engine."""
    from repro.alloc.usecase import UseCase, UseCaseManager

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
    switch = manager.plan_switch("boot", "run")
    assert switch.torn_down == ("a",) and switch.set_up == ("b",)

    net = DaeliteNetwork(mesh, params, kernel_mode=VECTOR_MODE)
    handle_a = net.configure(manager.allocation("boot", "a"))
    net.run_until_configured(handle_a)
    gen = CbrGenerator(
        "gen",
        inject=net.ni("NI00").injector(handle_a.forward.src_channel, "a"),
        period=5,
        total_words=20,
    )
    sink = CheckingSink(
        "sink",
        receive=net.ni("NI11").receiver(handle_a.forward.dst_channel),
        words_per_cycle=2,
        stats=net.stats,
    )
    net.kernel.add(gen)
    net.kernel.add(sink)
    net.run(400)
    boot_stats = net.kernel.kernel_stats()
    assert boot_stats["compiled_cycles"] > 0
    assert net.stats.delivered_words("a") == 20

    # The switch: "a" has delivered its words, so nothing it tears down
    # is read by anything live.
    allocation_a = manager.allocation("boot", "a")
    teardown = net.host.teardown_connection(handle_a, allocation_a)
    net.run(5)
    net.run_until_configured(teardown)
    handle_b = net.configure(manager.allocation("run", "b"))
    switched = net.kernel.kernel_stats()
    assert engine_ran(boot_stats, switched)
    assert switched["compile_fallbacks"] == {}
    assert (
        switched["lowering_cache_misses"] + switched["lowering_cache_hits"]
        == boot_stats["lowering_cache_misses"]
        + boot_stats["lowering_cache_hits"]
    )

    enable = handle_b.requests[-1].packet
    resent = net.config_module.submit(
        replace(enable, addressees=None), net.kernel.cycle
    )
    net.run(5)
    stepped = net.kernel.kernel_stats()
    assert stepped["config_elision_refusals"] == {"no_addressee_record": 1}
    assert stepped["compile_fallbacks"][CompileRefusal.CONFIG_ACTIVE] > 0
    net.wait_configured([resent])

    net.ni("NI10").submit_words(
        handle_b.forward.src_channel, [7, 8, 9], "b"
    )
    net.run(300)
    net.ni("NI01").receive(handle_b.forward.dst_channel)
    net.run(50)
    after = net.kernel.kernel_stats()
    assert after["compiled_cycles"] > stepped["compiled_cycles"]
    assert (
        after["lowering_cache_misses"] + after["lowering_cache_hits"]
        > stepped["lowering_cache_misses"] + stepped["lowering_cache_hits"]
    )
    assert net.stats.delivered_words("b") == 3
    assert sink.clean


def test_tracer_refusal():
    net, _, _ = connected_compiled_net(tracer=Tracer())
    net.run(50)
    stats = net.kernel.kernel_stats()
    assert stats["compile_fallbacks"][CompileRefusal.TRACER_ACTIVE] > 0
    assert stats["compiled_cycles"] == 0


def test_fallback_steps_naively():
    """A permanent refusal hands the cycles to naive stepping: every
    component is evaluated on every fallback cycle, idle or not."""
    net, _, _ = connected_compiled_net(tracer=Tracer())
    kernel = net.kernel
    refused = fallbacks(net)[CompileRefusal.TRACER_ACTIVE]
    for cycles in (1, 37, 200):
        evaluations, active = kernel.evaluations, kernel.active_cycles
        net.run(cycles)
        assert kernel.evaluations - evaluations == cycles * len(
            kernel.components
        )
        assert kernel.active_cycles - active == cycles
    assert fallbacks(net)[CompileRefusal.TRACER_ACTIVE] == refused + 3
    assert kernel.compiled_cycles == 0


def test_mode_switch_mid_flight_preserves_state():
    """``set_mode`` at any cycle boundary, words in flight: vector →
    naive → vector keeps every register and the ledger equal to a run
    that stayed naive."""
    switched, _, sink = connected_compiled_net()
    reference, _, reference_sink = connected_compiled_net(mode=NAIVE_MODE)
    for mode, cycles in ((VECTOR_MODE, 17), (NAIVE_MODE, 100), (VECTOR_MODE, 300)):
        switched.kernel.set_mode(mode)
        switched.run(cycles)
        reference.run(cycles)
        assert network_image(switched, sinks=[sink]) == network_image(
            reference, sinks=[reference_sink]
        )
    assert switched.kernel.compiled_cycles > 0


@pytest.mark.parametrize(
    "select",
    [
        lambda monkeypatch: Kernel(mode="activity"),
        lambda monkeypatch: Kernel(mode=NAIVE_MODE).set_mode("activity"),
        lambda monkeypatch: (
            monkeypatch.setenv(KERNEL_MODE_ENV, "activity"),
            Kernel(),
        ),
    ],
    ids=["constructor", "set_mode", "environment"],
)
def test_removed_activity_mode_is_a_typed_error(select, monkeypatch):
    with pytest.raises(
        SimulationError, match=r"'activity'.*\('naive', 'vector'\)"
    ):
        select(monkeypatch)


def test_unsupported_component_refusal():
    net, handle, _ = connected_compiled_net()
    net.run(100)
    assert net.kernel.kernel_stats()["compiled_cycles"] > 0
    rng = RandomGenerator(
        "rng",
        inject=net.ni("NI00").injector(handle.forward.src_channel, "flow"),
        rate=0.01,
        seed=7,
        total_words=1,
    )
    net.kernel.add(rng)
    net.run(50)
    stats = net.kernel.kernel_stats()
    assert (
        stats["compile_fallbacks"][CompileRefusal.UNSUPPORTED_COMPONENT]
        > 0
    )
    assert "rng" in stats["last_refusal_detail"]


def test_opaque_inject_callable_refusal():
    """A generator wired with a bare lambda (not an NI-bound injector)
    cannot be mapped onto the flat schedule."""
    net, handle, _ = connected_compiled_net()
    ni = net.ni("NI00")
    channel = handle.forward.src_channel
    gen = CbrGenerator(
        "opaque",
        inject=lambda payload: ni.submit(channel, payload, "flow"),
        period=50,
    )
    net.kernel.add(gen)
    net.run(50)
    stats = net.kernel.kernel_stats()
    assert (
        stats["compile_fallbacks"][CompileRefusal.UNSUPPORTED_COMPONENT]
        > 0
    )


def test_no_provider_refusal():
    class Idle(Component):
        def evaluate(self, cycle):
            pass

    kernel = Kernel(mode=VECTOR_MODE)
    kernel.add(Idle("idle"))
    kernel.step(25)
    stats = kernel.kernel_stats()
    assert kernel.cycle == 25
    assert stats["compile_fallbacks"][CompileRefusal.NO_PROVIDER] > 0
    assert stats["last_refusal"] == CompileRefusal.NO_PROVIDER


# -- the engine's own safety checks --------------------------------------------


def test_off_schedule_phit_defers_as_datapath_busy():
    """A phit parked where the occupancy walk says none can be is
    refused at import (typed, deferrable); naive stepping drains it
    and the engine re-engages."""
    net, _, _ = connected_compiled_net()
    net.run(200)
    engine = net.kernel._engine
    phase = net.kernel.cycle % engine.wheel
    rid = next(
        rid
        for rid, mask in enumerate(engine.occupancy)
        if not (mask >> phase) & 1
        and engine.regs[rid].name.startswith("link")
    )
    net.kernel.write_register(engine.regs[rid], Phit(credit_bits=1))
    before = net.kernel.kernel_stats()["compiled_cycles"]
    net.run(200)
    stats = net.kernel.kernel_stats()
    assert stats["compile_deferrals"][CompileRefusal.DATAPATH_BUSY] > 0
    assert "off the compiled schedule" in stats["last_refusal_detail"]
    assert stats["compiled_cycles"] > before


def test_live_untracked_register_defers_as_config_active():
    """A register outside the lowered data plane holding a value means
    something the engine does not model is in flight."""
    net, _, _ = connected_compiled_net()
    stray = net.kernel.add_register(Register("stray"))
    net.kernel.write_register(stray, 1)
    net.run(200)
    stats = net.kernel.kernel_stats()
    assert stats["compile_deferrals"][CompileRefusal.CONFIG_ACTIVE] > 0
    assert "untracked register 'stray'" in stats["last_refusal_detail"]
    assert stray.q is None
    assert stats["compiled_cycles"] > 0


def test_phit_without_an_op_raises_instead_of_vanishing():
    """A register-resident phit the ``(register, phase) -> (trajectory,
    step)`` index cannot place stops the engine when it resumes — before
    it touched anything — instead of dropping the word silently."""
    net, _, sink = connected_compiled_net()
    net.run(203)
    engine = net.kernel._engine
    assert any(
        isinstance(reg.q, Phit) and reg.q.word is not None
        for reg in net.kernel.all_registers()
    )
    image = network_image(net, sinks=[sink])
    handled = engine.events_handled
    for entries in engine.index:
        entries.clear()
    with pytest.raises(SimulationError, match="lost track of a phit"):
        net.run(200)
    assert network_image(net, sinks=[sink]) == image
    assert engine.events_handled == handled


def test_parity_is_checked_at_arrival_and_taints_the_epoch():
    """A word corrupted in flight is dropped by the engine's ARRIVE
    with a ``parity_error`` fault, exactly as the stepped NI drops it,
    and the epoch it happened in is no replay template
    (``_epoch_delta``): the statistics stay those of the naive
    kernel through the replayed epochs that follow."""

    def corrupted_run(mode):
        net, _, sink = connected_compiled_net(mode=mode)
        net.run(203)
        reg = next(
            reg
            for reg in net.kernel.all_registers()
            if isinstance(reg.q, Phit) and reg.q.word is not None
        )
        word = reg.q.word
        net.kernel.write_register(
            reg,
            Phit(
                word=Word(
                    payload=word.payload ^ 1,
                    connection=word.connection,
                    sequence=word.sequence,
                    parity=word.parity,
                ),
                credit_bits=reg.q.credit_bits,
            ),
        )
        return net, sink

    net, sink = corrupted_run(VECTOR_MODE)
    engine = net.kernel._engine
    clean = engine._snapshot(net.kernel.cycle)
    net.run(40)
    # The drop itself, then the gap it leaves at the collector and at
    # the checking sink when the next word arrives.
    assert net.stats.fault_counts() == {
        "parity_error": 1,
        "sequence_gap": 1,
        "e2e_gap": 1,
    }
    assert net.total_dropped_words == 1 and not sink.clean
    tainted = engine._snapshot(net.kernel.cycle)
    assert engine._epoch_delta(clean, clean) is not None
    assert engine._epoch_delta(clean, tainted) is None

    reference, reference_sink = corrupted_run(NAIVE_MODE)
    reference.run(2_040)
    net.run(2_000)
    stats = net.kernel.kernel_stats()
    assert stats["compile_fallbacks"] == {}
    assert stats["replayed_epochs"] > 0
    assert network_image(net, sinks=[sink]) == network_image(
        reference, sinks=[reference_sink]
    )


def test_words_are_conserved_across_an_exceptional_exit():
    """An exception raised in the middle of a cycle's arrivals and link
    entries leaves each of them either applied and gone from the
    registers or not applied and still in them: retrying the run
    re-raises at the same cycle without delivering any word a second
    time.  Two causes, both raised by a model method the engine calls
    with state untouched: a destination queue overflowing at an arrival
    (fabricated credits), and a ledger column refusing a link entry (a
    pre-seeded duplicate injection)."""
    overflowed = conserved_across("overflow")
    # Another flow's word was delivered in the failing cycle, before
    # the overflow: it must not come back out of the registers.
    assert any(overflowed[label][4] for label in ("b", "c"))
    conserved_across("duplicate")


def conserved_across(cause):
    """Three crossing flows on a 3x3 mesh run into ``cause`` on flow
    "a", three times over; returns the (repeating) per-flow image."""
    params = daelite_parameters(slot_table_size=8)
    mesh = build_mesh(3, 3)
    allocator = SlotAllocator(topology=mesh, params=params)
    flows = [
        ("a", "NI00", "NI22"),
        ("b", "NI20", "NI02"),
        ("c", "NI01", "NI21"),
    ]
    net = DaeliteNetwork(mesh, params, kernel_mode=VECTOR_MODE)
    ends = {}
    for label, src, dst in flows:
        handle = net.configure(
            allocator.allocate_connection(
                ConnectionRequest(
                    label, src, dst, forward_slots=2, reverse_slots=1
                )
            )
        )
        net.run_until_configured(handle)
        source_ni, dest_ni = net.ni(src), net.ni(dst)
        net.kernel.add(
            CbrGenerator(
                f"gen_{label}",
                inject=source_ni.injector(handle.forward.src_channel, label),
                period=3,
            )
        )
        # Overflow: flow "a" is never drained, its queue fills up.
        undrained = cause == "overflow" and label == "a"
        net.kernel.add(
            CheckingSink(
                f"sink_{label}",
                receive=dest_ni.receiver(handle.forward.dst_channel),
                start_cycle=10**9 if undrained else 0,
                stats=net.stats,
            )
        )
        ends[label] = (
            source_ni,
            handle.forward.src_channel,
            dest_ni.dest_channel(handle.forward.dst_channel),
        )
    net.run(50)
    assert net.kernel.kernel_stats()["compiled_cycles"] > 0
    source_ni, channel, _ = ends["a"]
    if cause == "overflow":
        # Fabricated credits: the source overruns its destination.
        source = source_ni.source_channels[channel]
        source.credit_counter = source.max_credit
        error, message = FlowControlError, "overflowed"
    else:
        # The ledger already holds a word "a" is yet to submit.
        net.stats.record_injection(
            Word(
                payload=0,
                connection="a",
                sequence=source_ni._sequence_counters[channel] + 3,
            ),
            0,
        )
        error, message = StatsIntegrityError, "injected twice"

    def in_registers(label):
        return len(
            {
                id(reg.q)
                for reg in net.kernel.all_registers()
                if isinstance(reg.q, Phit)
                and reg.q.word is not None
                and reg.q.word.connection == label
            }
        )

    def image():
        return {
            label: (
                source_ni._sequence_counters[channel],
                net.stats.connections[label].ejected,
                in_registers(label),
                len(source_ni.source_channels[channel].queue),
                tuple(dest.queue),
            )
            for label, (source_ni, channel, dest) in ends.items()
        }

    images = []
    for _attempt in range(3):
        with pytest.raises(error, match=message):
            net.run(400)
        images.append((net.kernel.cycle, image()))
    for label, (submitted, delivered, flying, queued, _) in images[0][
        1
    ].items():
        assert submitted == delivered + flying + queued, label
    assert images[1] == images[0] and images[2] == images[0]
    return images[0][1]


# -- every refusal the engine's entry checks, armed one at a time ---------------


class IdleLookalike:
    """A register value the stepped elements read as an idle phit but
    that is not a :class:`Phit`: the next clock edge overwrites it."""

    word = None
    credit_bits = None
    is_idle = True


def off_schedule_link(net):
    """A link register no trajectory occupies in the current phase."""
    engine = net.kernel._engine
    phase = net.kernel.cycle % engine.wheel
    return next(
        reg
        for reg, mask in zip(engine.regs, engine.occupancy)
        if not (mask >> phase) & 1 and reg.name.startswith("link")
    )


def arm_tracer(element):
    def arm(net):
        target = element(net)
        target.tracer = Tracer()
        return lambda: setattr(target, "tracer", net.tracer)

    return arm


def arm_decoder(element):
    def arm(net):
        decoder = element(net).config.decoder
        for word in other_element_packet(net):
            decoder.feed(word)
        return None  # the next stepped cycle's gap ends the packet

    return arm


def arm_foreign_stats(net):
    ni = net.ni("NI11")
    ni.stats = StatsCollector()
    return lambda: setattr(ni, "stats", net.stats)


def arm_link_hook(net):
    link = net.link("R00", "R10")
    link.fault_hook = lambda hooked, phit: phit
    return lambda: setattr(link, "fault_hook", None)


def arm_non_phit(net):
    net.kernel.write_register(off_schedule_link(net), IdleLookalike())


def arm_off_schedule(net):
    net.kernel.write_register(off_schedule_link(net), Phit(credit_bits=1))


def arm_untracked(net):
    net.kernel.write_register(net.kernel.add_register(Register("stray")), 1)


def arm_config_link(net):
    """A response word written through the kernel's door into the
    tree's root response link between two runs of the same engine (no
    register added, so the engine is not retired, and no cycle stepped,
    so its entry reads only what the door noted); with no request
    active the module drops it on the next stepped cycle."""
    net.kernel.write_register(
        net.config_links["rsp.NI00->module"].register, 1
    )


#: (arm, refusal kind, its detail): ``arm(net)`` returns what clears the
#: condition, or ``None`` when naive stepping clears it by itself.
ENTRY_REFUSALS = {
    "router_tracer": (
        arm_tracer(lambda net: net.router("R01")),
        CompileRefusal.TRACER_ACTIVE,
        "tracer attached to router 'R01'",
    ),
    "ni_tracer": (
        arm_tracer(lambda net: net.ni("NI10")),
        CompileRefusal.TRACER_ACTIVE,
        "tracer attached to NI 'NI10'",
    ),
    "router_decoder": (
        arm_decoder(lambda net: net.router("R10")),
        CompileRefusal.CONFIG_ACTIVE,
        "config decoder of 'R10' has pending work",
    ),
    "ni_decoder": (
        arm_decoder(lambda net: net.ni("NI01")),
        CompileRefusal.CONFIG_ACTIVE,
        "config decoder of 'NI01' has pending work",
    ),
    "foreign_stats": (
        arm_foreign_stats,
        CompileRefusal.UNSUPPORTED_COMPONENT,
        "NI 'NI11' reports to a foreign collector",
    ),
    "data_link_hook": (
        arm_link_hook,
        CompileRefusal.FAULT_HOOKS_ARMED,
        "fault hook armed on data link 'R00->R10'",
    ),
    "non_phit_register": (
        arm_non_phit,
        CompileRefusal.DATAPATH_BUSY,
        "holds a non-phit value",
    ),
    "off_schedule_phit": (
        arm_off_schedule,
        CompileRefusal.DATAPATH_BUSY,
        "is off the compiled schedule",
    ),
    "untracked_register": (
        arm_untracked,
        CompileRefusal.CONFIG_ACTIVE,
        "untracked register 'stray' is not idle",
    ),
    "config_link_register": (
        arm_config_link,
        CompileRefusal.CONFIG_ACTIVE,
        "untracked register 'cfglink.rsp.NI00->module' is not idle",
    ),
}


@pytest.mark.parametrize("condition", sorted(ENTRY_REFUSALS))
def test_entry_refuses_each_condition_and_reengages(condition):
    """Each condition the engine's per-run entry checks is armed alone
    on a configured mesh the engine is running: the refusal has its
    kind and its detail, no engine cycle runs beside it, and the engine
    re-engages once the condition clears (by itself, in the stepped
    cycles a deferral takes, or by undoing it)."""
    arm, kind, detail = ENTRY_REFUSALS[condition]
    net, _, _ = connected_compiled_net()
    net.run(200)
    engaged = net.kernel.kernel_stats()
    assert engaged["compile_fallbacks"] == {}
    clear = arm(net)
    net.run(1)
    refused = net.kernel.kernel_stats()
    assert (refused["last_refusal"], refused["compile_fallbacks"]) == (
        kind,
        {kind: 1},
    )
    assert detail in refused["last_refusal_detail"]
    assert refused["compiled_cycles"] == engaged["compiled_cycles"]
    if clear is not None:
        clear()
    net.run(200)
    cleared = net.kernel.kernel_stats()
    assert cleared["compiled_cycles"] > refused["compiled_cycles"]
    assert cleared["compile_fallbacks"] == {kind: 1}


def test_door_write_of_an_idle_value_is_not_refused():
    """The false case of the door: values equal to a register's idle
    one — the very idle object into a tree link, an equal but distinct
    idle phit into a data link — written between two runs of one
    engine refuse nothing, and the engine runs on."""
    net, _, _ = connected_compiled_net()
    net.run(200)
    engine = net.kernel._engine
    engaged = net.kernel.kernel_stats()
    tree = net.config_links["rsp.NI00->module"].register
    net.kernel.write_register(tree, tree.idle)
    link = off_schedule_link(net)
    assert Phit() == link.idle and Phit() is not link.idle
    net.kernel.write_register(link, Phit())
    net.run(200)
    after = net.kernel.kernel_stats()
    assert net.kernel._engine is engine
    assert after["compile_fallbacks"] == {}
    assert after["compile_deferrals"] == engaged["compile_deferrals"]
    assert after["compiled_cycles"] == engaged["compiled_cycles"] + 200
