"""Differential proof of addressed-only config delivery.

In the ``vector`` kernel mode the configuration module hands a
response-free packet straight to the elements it addresses instead of
streaming it through the whole broadcast tree.  The contract: the *config-plane observables* — the ``(cycle, element,
action)`` stream at ``_apply``, element state after every packet, every
request's timeline, set-up times, word delivery cycles at the sinks and
``kernel.cycle`` — equal those of the stepped tree.  (Registers of the
config links are *not* part of it: the elided words never ride them.
``tests/sim`` holds ``vector`` register-exact to ``naive`` wherever the
tree is stepped.)

Every scenario here runs on ``naive`` (word-level tree) and on
``vector``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.alloc import ConnectionRequest, MulticastRequest, SlotAllocator
from repro.core import (
    ChannelField,
    ConfigPacket,
    DaeliteNetwork,
    Direction,
    Opcode,
    PathHop,
    SlotMask,
    build_bus_config_packet,
    build_path_packet,
)
from repro.core.config_network import (
    REFUSED_EXPECTS_RESPONSE,
    REFUSED_FAULT_HOOKS_ARMED,
    REFUSED_NO_ADDRESSEE_RECORD,
    REFUSED_TRACER_ACTIVE,
    REFUSED_UNKNOWN_ADDRESSEE,
    ConfigModule,
)
from repro.core.config_port import ConfigPort
from repro.core.config_protocol import DISCONNECT_PORT_WORD
from repro.errors import (
    AllocationError,
    FaultInjectionError,
    SimulationError,
)
from repro.faults import FaultInjector
from repro.faults.spec import ConfigWordDrop, FaultPlan, TransientBitFlip
from repro.params import daelite_parameters
from repro.sim.kernel import NAIVE_MODE, VECTOR_MODE
from repro.sim.trace import Tracer
from repro.topology import build_mesh, ni_name
from repro.traffic.generators import CbrGenerator
from repro.traffic.sinks import CheckingSink

pytestmark = pytest.mark.differential

#: The kernel modes that elide the tree (one today; the parametrized
#: tests keep their ``[vector]`` ids).
ENGINE_MODES = (VECTOR_MODE,)


# -- observation ---------------------------------------------------------------


def element_state(net):
    """Everything a configuration packet can change, per element."""
    table = net.params.slot_table_size
    routers = {
        name: tuple(
            tuple(
                router.slot_table.entry(output, slot)
                for slot in range(table)
            )
            for output in range(router.ports)
        )
        for name, router in net.routers.items()
    }
    nis = {
        name: (
            tuple(ni.injection_table.channel(s) for s in range(table)),
            tuple(ni.arrival_table.channel(s) for s in range(table)),
            {
                index: (
                    source.credit_counter,
                    source.flags,
                    source.paired_arrival,
                )
                for index, source in ni.source_channels.items()
            },
            {
                index: (dest.pending_credits, dest.flags, dest.paired_source)
                for index, dest in ni.dest_channels.items()
            },
            tuple(ni.bus_config_words),
            ni.config_applied,
        )
        for name, ni in net.nis.items()
    }
    return routers, nis


class Probe:
    """Taps ``_apply`` on every element and ``_finish`` on the module."""

    def __init__(self, net):
        self.net = net
        self.applies = []
        self.after_packet = []
        for element in (*net.routers.values(), *net.nis.values()):
            self._tap_apply(element)
        finish = net.config_module._finish

        def tapped_finish(cycle):
            finish(cycle)
            self.after_packet.append((cycle, element_state(net)))

        net.config_module._finish = tapped_finish

    def _tap_apply(self, element):
        apply = element._apply

        def tapped_apply(action):
            self.applies.append(
                (self.net.kernel.cycle, element.name, repr(action))
            )
            apply(action)

        element._apply = tapped_apply

    def observables(self, handles, sinks=()):
        net = self.net
        return {
            "applies": self.applies,
            "after_packet": self.after_packet,
            "setup_cycles": [handle.setup_cycles for handle in handles],
            "timeline": [
                (r.submitted_at, r.started_at, r.finished_at, r.responses)
                for r in net.config_module.completed
            ],
            "deliveries": (
                net.stats.counters(),
                net.stats.undelivered(),
                net.stats.fault_log(),
            ),
            "sinks": [
                (sink.words_received, dict(sink._last_seq), sink.findings)
                for sink in sinks
            ],
            "dropped": net.total_dropped_words,
            "cycle": net.kernel.cycle,
            "final": element_state(net),
        }


def observe(mode, width, height, drive, params=None, host_ni=None):
    """Build a network on ``mode``, drive it, return (observables, net).

    ``drive(net)`` returns ``(handles, sinks)``.
    """
    params = params or daelite_parameters(slot_table_size=8)
    net = DaeliteNetwork(
        build_mesh(width, height), params, host_ni=host_ni, kernel_mode=mode
    )
    probe = Probe(net)
    handles, sinks = drive(net)
    return probe.observables(handles, sinks), net


def assert_agree(reference, candidate, mode):
    for key in reference:
        assert candidate[key] == reference[key], (
            f"{mode}: {key} diverged from the stepped tree"
        )


def assert_engine_modes_match_naive(
    width, height, drive, params=None, host_ni=None
):
    reference, net_a = observe(
        NAIVE_MODE, width, height, drive, params, host_ni
    )
    stats_a = net_a.kernel.kernel_stats()
    packets = len(net_a.config_module.completed)
    assert packets > 0
    assert stats_a["config_packets_stepped"] == packets
    assert stats_a["config_packets_elided"] == 0
    assert stats_a["config_elision_refusals"] == {}
    nets = {NAIVE_MODE: net_a}
    for mode in ENGINE_MODES:
        candidate, net = observe(mode, width, height, drive, params, host_ni)
        assert_agree(reference, candidate, mode)
        nets[mode] = net
    return nets


def assert_all_elided(net, except_kinds=()):
    """Every packet skipped the tree, save the named refusal kinds."""
    stats = net.kernel.kernel_stats()
    packets = len(net.config_module.completed)
    refusals = stats["config_elision_refusals"]
    assert stats["config_packets_elided"] + stats[
        "config_packets_stepped"
    ] == packets
    assert stats["config_packets_stepped"] == sum(refusals.values())
    assert set(refusals) == set(except_kinds)
    assert stats["config_packets_elided"] > 0


# -- seeded scenarios ----------------------------------------------------------


def allocator_for(net):
    return SlotAllocator(topology=net.topology, params=net.params)


def connection(allocator, label, src, dst, forward_slots=1):
    return allocator.allocate_connection(
        ConnectionRequest(
            label, src, dst, forward_slots=forward_slots, reverse_slots=1
        )
    )


def drive_unicast(net):
    conn = connection(allocator_for(net), "u", "NI00", "NI22", 2)
    handle = net.configure(conn)
    net.ni("NI00").submit_words(
        handle.forward.src_channel, list(range(20)), connection="u"
    )
    net.run(400)
    return [handle], []


def drive_multicast(net):
    tree = allocator_for(net).allocate_multicast(
        MulticastRequest("mc", "NI00", ("NI20", "NI02", "NI22"), slots=1)
    )
    handle = net.configure_multicast(tree)
    net.ni("NI00").submit_words(
        handle.src_channel, list(range(12)), connection="mc"
    )
    net.run(300)
    for dst in tree.dst_nis:
        net.ni(dst).receive(handle.dst_channels[dst])
    return [handle], []


def drive_partial_paths(net):
    """Table III quantities: bare path packets, queued back to back."""
    allocator = allocator_for(net)
    only = net.host.setup_path_only(
        connection(allocator, "q", "NI21", "NI00").forward
    )
    both = net.host.setup_paths(connection(allocator, "p", "NI10", "NI02"))
    net.run_until_configured(only)
    net.run_until_configured(both)
    return [only, both], []


def drive_teardown(net):
    conn = connection(allocator_for(net), "t", "NI01", "NI20")
    handle = net.configure(conn)
    net.run(37)
    teardown = net.teardown(handle, conn)
    return [handle, teardown], []


def drive_bus_config(net):
    request = net.host.configure_bus("NI21", [1, 2, 3, 100, 127])
    net.kernel.run_until(lambda: request.done, max_cycles=10_000)
    assert net.ni("NI21").bus_config_words == [1, 2, 3, 100, 127]
    return [request], []


def drive_channel_recycling(net):
    allocator = allocator_for(net)
    first = connection(allocator, "a", "NI00", "NI11")
    handle = net.configure(first)
    net.ni("NI00").submit_words(
        handle.forward.src_channel, [7, 8, 9], connection="a"
    )
    net.run(200)
    net.ni("NI11").receive(handle.forward.dst_channel)
    teardown = net.teardown(handle, first)
    net.host.recycle_connection_indices(handle, first)
    allocator.release_connection(first)
    second = connection(allocator, "b", "NI00", "NI11", 2)
    again = net.configure(second)
    assert again.forward.src_channel == handle.forward.src_channel
    net.ni("NI00").submit_words(
        again.forward.src_channel, [1, 2, 3, 4], connection="b"
    )
    net.run(200)
    return [handle, teardown, again], []


def drive_usecase_switch_under_traffic(net):
    """A persistent CBR flow keeps streaming while use case A is torn
    down and use case B set up around it."""
    allocator = allocator_for(net)
    persistent = connection(allocator, "p", "NI00", "NI22", 2)
    case_a = connection(allocator, "a", "NI20", "NI02")
    handle_p = net.configure(persistent)
    handle_a = net.configure(case_a)
    gen = CbrGenerator(
        "gen_p",
        inject=net.ni("NI00").injector(handle_p.forward.src_channel, "p"),
        period=8,
    )
    sink = CheckingSink(
        "sink_p",
        receive=net.ni("NI22").receiver(handle_p.forward.dst_channel),
        words_per_cycle=2,
        stats=net.stats,
    )
    net.kernel.add(gen)
    net.kernel.add(sink)
    net.run(900)
    teardown_a = net.host.teardown_connection(handle_a, case_a)
    net.run(5)  # config in flight under live traffic
    net.run_until_configured(teardown_a)
    allocator.release_connection(case_a)
    case_b = connection(allocator, "b", "NI02", "NI21", 2)
    handle_b = net.configure(case_b)
    net.run(1500)
    assert sink.clean
    assert gen.words_generated > 250
    return [handle_p, handle_a, teardown_a, handle_b], [sink]


@pytest.mark.parametrize(
    "drive",
    [
        drive_unicast,
        drive_multicast,
        drive_partial_paths,
        drive_teardown,
        drive_bus_config,
        drive_channel_recycling,
        drive_usecase_switch_under_traffic,
    ],
)
def test_scenario_matches_the_stepped_tree(drive):
    nets = assert_engine_modes_match_naive(3, 3, drive, host_ni="NI11")
    for mode in ENGINE_MODES:
        assert_all_elided(nets[mode])


def test_channel_config_packets_are_delivered_to_one_ni():
    """A connection's four CHANNEL_CONFIG packets each wake exactly the
    NI they address; the work is proportional to addressees."""
    _, stepped = observe(NAIVE_MODE, 3, 3, drive_unicast)
    _, net = observe(VECTOR_MODE, 3, 3, drive_unicast)
    opcodes = [r.packet.opcode for r in net.config_module.completed]
    assert opcodes.count(Opcode.CHANNEL_CONFIG) == 4
    assert opcodes.count(Opcode.PATH_SETUP) == 2
    assert net.kernel.evaluations * 4 < stepped.kernel.evaluations


def test_zero_cooldown_and_wide_words_on_a_deep_tree():
    """Corner host, 4x4, no cool-down: the deepest element decodes in
    the very cycle the module finishes the request."""
    params = daelite_parameters(
        slot_table_size=16, cooldown_cycles=0, config_word_bits=9
    )

    def drive(net):
        conn = connection(allocator_for(net), "far", "NI33", "NI03", 3)
        handle = net.configure(conn)
        teardown = net.teardown(handle, conn)
        return [handle, teardown], []

    nets = assert_engine_modes_match_naive(
        4, 4, drive, params=params, host_ni="NI00"
    )
    for mode in ENGINE_MODES:
        assert_all_elided(nets[mode])


# -- Hypothesis: random op sequences -------------------------------------------


@st.composite
def op_scripts(draw):
    width, height = draw(
        st.sampled_from([(2, 2), (3, 2), (3, 3), (4, 3), (4, 4)])
    )
    nis = [ni_name(x, y) for x in range(width) for y in range(height)]
    pairs = st.lists(
        st.sampled_from(nis), min_size=2, max_size=2, unique=True
    )
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("connect"), pairs, st.integers(1, 2)),
                st.tuples(st.just("path"), pairs, st.just(1)),
                st.tuples(
                    st.just("multicast"),
                    st.lists(
                        st.sampled_from(nis),
                        min_size=3,
                        max_size=4,
                        unique=True,
                    ),
                    st.just(1),
                ),
                st.tuples(
                    st.just("bus"),
                    st.sampled_from(nis),
                    st.integers(1, 5),
                ),
                st.tuples(
                    st.just("teardown"), st.integers(0, 3), st.booleans()
                ),
                st.tuples(st.just("run"), st.integers(1, 90), st.just(0)),
            ),
            min_size=2,
            max_size=7,
        )
    )
    return {
        "dims": (width, height),
        "host": draw(st.sampled_from(nis)),
        "cooldown": draw(st.sampled_from([0, 4])),
        "word_bits": draw(st.sampled_from([7, 9])),
        "table": draw(st.sampled_from([8, 16])),
        "ops": ops,
    }


def drive_script(script):
    def drive(net):
        allocator = allocator_for(net)
        handles, live = [], []
        for index, (kind, arg, extra) in enumerate(script["ops"]):
            try:
                if kind == "connect":
                    conn = connection(
                        allocator, f"c{index}", arg[0], arg[1], extra
                    )
                    handle = net.host.setup_connection(conn)
                    live.append((handle, conn))
                    net.ni(arg[0]).submit_words(
                        handle.forward.src_channel,
                        list(range(6)),
                        connection=f"c{index}",
                    )
                elif kind == "path":
                    conn = connection(
                        allocator, f"p{index}", arg[0], arg[1]
                    )
                    handle = net.host.setup_path_only(conn.forward)
                elif kind == "multicast":
                    tree = allocator.allocate_multicast(
                        MulticastRequest(
                            f"m{index}", arg[0], tuple(arg[1:]), slots=1
                        )
                    )
                    handle = net.host.setup_multicast(tree)
                elif kind == "bus":
                    handle = net.host.configure_bus(
                        arg, list(range(1, extra + 1))
                    )
                elif kind == "teardown":
                    if arg >= len(live):
                        continue
                    old, conn = live.pop(arg)
                    net.run_until_configured(old)
                    handle = net.host.teardown_connection(old, conn)
                    if extra:
                        net.run_until_configured(handle)
                        net.host.recycle_connection_indices(old, conn)
                        allocator.release_connection(conn)
                else:
                    net.run(arg)
                    continue
            except AllocationError:
                continue
            handles.append(handle)
        net.kernel.run_until(
            lambda: all(handle.done for handle in handles),
            max_cycles=100_000,
        )
        net.run(150)
        return handles, []

    return drive


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script=op_scripts())
def test_random_op_sequences_match_the_stepped_tree(script):
    params = daelite_parameters(
        slot_table_size=script["table"],
        cooldown_cycles=script["cooldown"],
        config_word_bits=script["word_bits"],
    )
    width, height = script["dims"]
    drive = drive_script(script)
    reference, net_a = observe(
        NAIVE_MODE, width, height, drive, params, script["host"]
    )
    assume(net_a.config_module.completed)
    for mode in ENGINE_MODES:
        candidate, net = observe(
            mode, width, height, drive, params, script["host"]
        )
        assert_agree(reference, candidate, mode)
        assert_all_elided(net)


# -- the engine-mode contract, stated against naive ------------------------------


class TestConfigBurstMidIdleEngineModes:
    """A config burst fired into a long idle period.  Vector mode
    promises less than register lockstep and says so: not the
    config-link registers, but every apply cycle, the element state and
    ``setup_cycles`` of the naive kernel."""

    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_burst_fired_into_idle_period_applies_on_naive_cycles(
        self, mode
    ):
        handles = {}

        def drive_for(tag):
            def drive(net):
                conn = connection(allocator_for(net), "late", "NI01", "NI10")

                def setup(cycle):
                    handles[tag] = net.host.setup_connection(conn)

                net.kernel.at(1200, setup)
                net.run(1600)
                return [handles[tag]], []

            return drive

        naive, _ = observe(NAIVE_MODE, 2, 2, drive_for("naive"))
        engine, net = observe(mode, 2, 2, drive_for(mode))
        assert handles["naive"].done and handles[mode].done
        assert naive["applies"] and naive["applies"][0][0] > 1200
        assert engine["applies"] == naive["applies"]
        assert engine["setup_cycles"] == naive["setup_cycles"]
        assert engine["timeline"] == naive["timeline"]
        assert engine["final"] == naive["final"]
        # The tree's words never moved: the engine delivered the six
        # packets, and only the callback's cycle was stepped.
        assert net.kernel.kernel_stats()["config_packets_elided"] == 6
        assert net.kernel.evaluations < 40
        assert root_words(net) == 0


# -- typed refusals: the word-level tree still runs ----------------------------


def engine_net(mode, tracer=None):
    """A 2x2 network in ``mode``, for tests whose subject is one
    refusal kind or the deposit itself."""
    net = DaeliteNetwork(
        build_mesh(2, 2),
        daelite_parameters(slot_table_size=8),
        tracer=tracer,
        kernel_mode=mode,
    )
    return net


def root_words(net):
    root = net.config_tree.root
    return net.config_links[f"cfg.module->{root}"].words_carried


def fault_log(net):
    return [event.format() for event in net.stats.faults]


def drive_under_leaf_drop(fault_cycle):
    """Set up NI00 -> NI11 with a :class:`ConfigWordDrop` armed on the
    deepest leaf link for ``fault_cycle``.  The six packets' flight
    windows tile cycles 0..141; the third (NI11's CHANNEL_CONFIG,
    started at 54) has its words on that link at cycles 62..68."""

    def drive(net):
        injector = FaultInjector(
            net,
            FaultPlan(
                seed=0,
                specs=(ConfigWordDrop("cfg.R11->NI11", fault_cycle),),
            ),
        )
        injector.arm()
        handle = net.configure(
            connection(allocator_for(net), "f", "NI00", "NI11")
        )
        injector.disarm()
        return [handle], []

    return drive


def stepped_and_counted(net, kind, packets):
    stats = net.kernel.kernel_stats()
    assert stats["config_elision_refusals"].get(kind) == packets
    assert stats["config_packets_stepped"] >= packets
    assert root_words(net) > 0


class TestRefusals:
    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_enabled_tracer(self, mode):
        net = engine_net(mode, tracer=Tracer())
        net.configure(connection(allocator_for(net), "t", "NI00", "NI11"))
        stepped_and_counted(net, REFUSED_TRACER_ACTIVE, 6)

    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_fault_hook_on_a_config_link(self, mode):
        """A drop planned on a *leaf* link inside the third packet's
        flight window: that packet rides the tree and the fault lands
        exactly as on ``naive``; the other five are elided."""
        naive, net_n = observe(NAIVE_MODE, 2, 2, drive_under_leaf_drop(64))
        engine, net = observe(mode, 2, 2, drive_under_leaf_drop(64))
        assert [e.kind for e in net_n.stats.faults] == [
            "config_drop",
            "protocol_error",
            "protocol_error",
        ]
        assert fault_log(net) == fault_log(net_n)
        assert_agree(naive, engine, mode)
        stepped_and_counted(net, REFUSED_FAULT_HOOKS_ARMED, 1)
        stats = net.kernel.kernel_stats()
        assert stats["config_packets_stepped"] == 1
        assert stats["config_packets_elided"] == 5
        # Disarmed, nothing refuses.
        net.configure(connection(allocator_for(net), "g", "NI01", "NI10"))
        assert net.kernel.kernel_stats()["config_packets_elided"] == 11

    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_fault_hook_planned_outside_every_flight_window(self, mode):
        """The same hook, armed over the whole set-up, planned for a
        cycle no packet is in flight at: it can touch nothing, so
        nothing steps."""
        naive, net_n = observe(
            NAIVE_MODE, 2, 2, drive_under_leaf_drop(90_000)
        )
        engine, net = observe(mode, 2, 2, drive_under_leaf_drop(90_000))
        assert fault_log(net) == fault_log(net_n) == []
        assert_agree(naive, engine, mode)
        stats = net.kernel.kernel_stats()
        assert stats["config_elision_refusals"] == {}
        assert stats["config_packets_elided"] == 6
        assert root_words(net) == 0

    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_hand_installed_hook_declares_nothing(self, mode):
        """A bare callable says nothing about when it acts: every packet
        steps the tree while it is installed."""
        net = engine_net(mode)
        net.config_links["cfg.R11->NI11"].fault_hook = (
            lambda link, word: word
        )
        net.configure(connection(allocator_for(net), "f", "NI00", "NI11"))
        stepped_and_counted(net, REFUSED_FAULT_HOOKS_ARMED, 6)
        assert net.kernel.kernel_stats()["config_packets_elided"] == 0

    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_packet_expecting_response_words(self, mode):
        net = engine_net(mode)
        handle = net.configure(
            connection(allocator_for(net), "r", "NI00", "NI11")
        )
        words_before = root_words(net)
        read = net.host.read_channel_register(
            "NI00",
            Direction.INJECT,
            handle.forward.src_channel,
            ChannelField.FLAGS,
        )
        net.kernel.run_until(lambda: read.done, max_cycles=10_000)
        assert read.responses == [0b11]
        assert root_words(net) == words_before + len(read.packet)
        stats = net.kernel.kernel_stats()
        assert stats["config_elision_refusals"] == {
            REFUSED_EXPECTS_RESPONSE: 1
        }
        assert stats["config_packets_elided"] == 6

    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_hand_built_packet_without_addressee_record(self, mode):
        net = engine_net(mode)
        built = build_bus_config_packet(
            net.topology.element("NI10").element_id, [5, 6]
        )
        by_hand = ConfigPacket(Opcode.BUS_CONFIG, built.words)
        assert by_hand.addressees is None
        request = net.config_module.submit(by_hand, cycle=0)
        net.kernel.run_until(lambda: request.done, max_cycles=10_000)
        assert net.ni("NI10").bus_config_words == [5, 6]
        stepped_and_counted(net, REFUSED_NO_ADDRESSEE_RECORD, 1)

    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_addressee_this_network_does_not_have(self, mode):
        def drive(net):
            request = net.config_module.submit(
                build_bus_config_packet(63, [1]), cycle=0
            )
            net.kernel.run_until(lambda: request.done, max_cycles=10_000)
            return [request], []

        reference, _ = observe(NAIVE_MODE, 2, 2, drive)
        assert reference["applies"] == []
        candidate, net = observe(mode, 2, 2, drive)
        assert_agree(reference, candidate, mode)
        stepped_and_counted(net, REFUSED_UNKNOWN_ADDRESSEE, 1)


# -- no lost, late or doubled configuration ------------------------------------


def ports_of(net):
    return [
        element.config for element in (*net.routers.values(), *net.nis.values())
    ]


class TestDepositSafety:
    def test_reset_clears_deposits_in_flight(self):
        net = engine_net(VECTOR_MODE)
        net.host.setup_connection(
            connection(allocator_for(net), "x", "NI00", "NI11")
        )
        net.run(3)
        assert net.config_module.elision_in_flight
        assert any(port.deposit_pending for port in ports_of(net))
        net.kernel.reset()
        assert not any(port.deposit_pending for port in ports_of(net))

    def test_late_deposit_raises(self):
        net = engine_net(VECTOR_MODE)
        net.host.setup_connection(
            connection(allocator_for(net), "x", "NI00", "NI11")
        )
        net.run(3)
        port = next(p for p in ports_of(net) if p.deposit_pending)
        words, _, position = port._deposit
        port._deposit = (words, 2, position)  # a stamp already in the past
        with pytest.raises(SimulationError, match="due at cycle 2"):
            net.run(50)

    def test_deposit_due_while_the_tree_feeds_the_decoder_raises(self):
        net = engine_net(VECTOR_MODE)
        port = net.ni("NI00").config  # the root: words arrive at once
        by_hand = ConfigPacket(Opcode.BUS_CONFIG, (5, 63, 1, 2, 3, 4))
        net.config_module.submit(by_hand, cycle=0)
        port.deposit((int(Opcode.BUS_CONFIG), 0, 1), due=3)
        with pytest.raises(SimulationError, match="mid-packet"):
            net.run(10)

    def test_second_deposit_collides(self):
        net = engine_net(VECTOR_MODE)
        port = net.ni("NI00").config
        port.deposit((5, 0, 1), due=50)
        with pytest.raises(SimulationError, match="collides"):
            port.deposit((5, 0, 2), due=60)

    def test_module_refuses_to_finish_over_an_undecoded_deposit(
        self, monkeypatch
    ):
        """An element that never wakes for its deposit is a lost
        configuration: the module's finish check catches it."""
        monkeypatch.setattr(
            ConfigPort,
            "next_evaluation",
            lambda self, cycle: cycle if self.pending else None,
        )
        net = engine_net(VECTOR_MODE)
        with pytest.raises(SimulationError, match="never decoded"):
            net.configure(connection(allocator_for(net), "x", "NI00", "NI11"))

    def test_arming_config_faults_mid_flight_is_a_typed_error(self):
        net = engine_net(VECTOR_MODE)
        handle = net.host.setup_connection(
            connection(allocator_for(net), "x", "NI00", "NI11")
        )
        net.run(3)
        # Cycle 206 is inside the flight window of the *second* set-up's
        # third packet (142 + 54 .. 142 + 74).
        cfg_plan = FaultPlan(
            seed=0, specs=(ConfigWordDrop("cfg.R11->NI11", 206),)
        )
        with pytest.raises(FaultInjectionError, match="in flight"):
            FaultInjector(net, cfg_plan).arm()
        assert all(
            link.fault_hook is None for link in net.config_links.values()
        )
        # A plan that touches no config link cannot diverge: allowed.
        data_plan = FaultPlan(
            seed=0, specs=(TransientBitFlip(("NI00", "R00"), 90_000, 0),)
        )
        injector = FaultInjector(net, data_plan)
        injector.arm()
        net.run_until_configured(handle)
        injector.disarm()
        # Between packets the config plan arms, and the one packet it
        # can touch steps the tree again: the fault lands.
        injector = FaultInjector(net, cfg_plan)
        injector.arm()
        net.configure(connection(allocator_for(net), "y", "NI01", "NI10"))
        injector.disarm()
        assert net.kernel.kernel_stats()["config_elision_refusals"] == {
            REFUSED_FAULT_HOOKS_ARMED: 1
        }
        assert [(e.cycle, e.kind) for e in net.stats.faults][0] == (
            206,
            "config_drop",
        )

    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_decoder_errors_take_the_monitor_path(self, mode):
        """The elided words run through the element's real decoder: a
        packet the addressed router rejects (a disconnect word in a
        set-up) reaches the fault monitor with the cycle the offending
        word would have arrived, and the decoder resynchronizes —
        the fault log equals the stepped tree's."""

        def drive(net):
            # Arming any plan installs the monitors on every port.
            injector = FaultInjector(
                net,
                FaultPlan(
                    seed=0,
                    specs=(TransientBitFlip(("NI00", "R00"), 90_000, 0),),
                ),
            )
            injector.arm()
            router = net.topology.element("R11").element_id
            bad = build_path_packet(
                SlotMask.of(8, {1, 5}),
                [PathHop(router, DISCONNECT_PORT_WORD)],
            )
            request = net.config_module.submit(bad, cycle=0)
            net.kernel.run_until(lambda: request.done, max_cycles=10_000)
            assert not net.router("R11").config.decoder.busy
            handle = net.configure(
                connection(allocator_for(net), "ok", "NI00", "NI11")
            )
            injector.disarm()
            return [request, handle], []

        reference, net_a = observe(NAIVE_MODE, 2, 2, drive)
        candidate, net = observe(mode, 2, 2, drive)
        assert_agree(reference, candidate, mode)
        assert len(fault_log(net_a)) == 1
        assert "ProtocolError" in fault_log(net_a)[0]
        assert fault_log(net) == fault_log(net_a)
        assert net.kernel.kernel_stats()["config_packets_elided"] == 7


# -- the differential bites: planted engine mutants ----------------------------


def mutant_survives(drive, width=3, height=3):
    """Whether the vector mode still agrees with the stepped tree."""
    reference, _ = observe(
        NAIVE_MODE, width, height, drive, host_ni="NI11"
    )
    try:
        candidate, _ = observe(
            VECTOR_MODE, width, height, drive, host_ni="NI11"
        )
    except SimulationError:
        return False
    return all(candidate[key] == reference[key] for key in reference)


class TestPlantedMutantsAreKilled:
    def test_unmutated_engine_survives(self):
        assert mutant_survives(drive_unicast)
        assert mutant_survives(drive_multicast)

    def test_due_cycle_off_by_one(self, monkeypatch):
        due = ConfigModule._due_cycle
        monkeypatch.setattr(
            ConfigModule,
            "_due_cycle",
            lambda self, started_at, length, depth: due(
                self, started_at, length, depth
            )
            + 1,
        )
        assert not mutant_survives(drive_unicast)
        assert not mutant_survives(drive_multicast)

    def test_last_addressed_element_dropped(self, monkeypatch):
        deposit_packet = ConfigModule._deposit_packet

        def drop_last(self, request, cycle):
            packet = request.packet
            deposit_packet(
                self,
                replace(
                    request,
                    packet=replace(
                        packet, addressees=packet.addressees[:-1]
                    ),
                ),
                cycle,
            )

        monkeypatch.setattr(ConfigModule, "_deposit_packet", drop_last)
        assert not mutant_survives(drive_unicast)
        assert not mutant_survives(drive_multicast)

    def test_deposit_for_depth_d_uses_d_minus_one(self, monkeypatch):
        due = ConfigModule._due_cycle
        monkeypatch.setattr(
            ConfigModule,
            "_due_cycle",
            lambda self, started_at, length, depth: due(
                self, started_at, length, max(0, depth - 1)
            ),
        )
        assert not mutant_survives(drive_unicast)
        assert not mutant_survives(drive_multicast)
