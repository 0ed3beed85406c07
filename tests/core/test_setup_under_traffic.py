"""Set-up waits under live traffic: the engine against the naive kernel.

In ``vector`` mode a set-up wait is engine time (DESIGN.md §14.6): the
engine decodes and applies the elided packets' deposits and takes the
configuration module's turns itself, rides through every apply that
misses what its live flows read, and stops at the end of the cycle of
an apply that does not.  Every scenario here is built twice — on the
vector and on the naive kernel — driven through the same operations
of an :class:`~repro.core.online.OnlineConnectionManager` beside
persistent flows, and compared in full at every wait boundary and after
chunked runs: the network image of :mod:`tests.differential`, set-up,
tear-down and repair cycles, and any exception.

The named cases drive each visibility rule of
:meth:`~repro.sim.compiled.CompiledEngine._visible` true (the engine must
stop and recompile) and false (it must ride through), and the reuse rule
of an engine that rode through applies.  ``earliest_finish`` is held to
the measured finish, in both modes.  Planted mutants of the rules
must each be killed.
"""

from __future__ import annotations

import inspect
from math import lcm
from typing import Any, Callable, List, Tuple

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.alloc import ConnectionRequest, MulticastRequest, SlotAllocator
from repro.alloc.spec import AllocatedMulticast
from repro.core import DaeliteNetwork, OnlineConnectionManager
from repro.core.online import OpenConnection
from repro.core.config_network import ConfigModule
from repro.core.config_port import ConfigPort
from repro.core.config_protocol import (
    ChannelField,
    Direction,
    PathHop,
    build_channel_config_packet,
    build_channel_read_packet,
    build_path_packet,
    ni_channel_word,
    router_port_word,
)
from repro.core.multicast import channel_path_packet, multicast_path_packets
from repro.core.slot_table import SlotMask
from repro.errors import AllocationError, ReproError
from repro.faults import FaultInjector, FaultPlan, TransientBitFlip
from repro.params import daelite_parameters
from repro.sim import compiled
from repro.sim.compiled import CompiledEngine
from repro.sim.kernel import NAIVE_MODE, VECTOR_MODE
from repro.sim.replay import EpochReplay
from repro.topology import build_mesh, ni_name
from repro.traffic.generators import BurstGenerator, CbrGenerator
from repro.traffic.sinks import CheckingSink

from ..differential import lockstep, mutant_survives, network_image, plant

pytestmark = pytest.mark.differential


# -- the bench: one network, its manager, its persistent flows -----------------


class Bench:
    """A mesh on one kernel mode, an on-line manager, checked flows."""

    def __init__(
        self, mode: str, side=(3, 3), slots=8, host_ni=None, **overrides
    ):
        params = daelite_parameters(slot_table_size=slots, **overrides)
        self.net = DaeliteNetwork(
            build_mesh(*side), params, host_ni=host_ni, kernel_mode=mode
        )
        self.kernel = self.net.kernel
        self.manager = OnlineConnectionManager(self.net, max_op_cycles=20_000)
        self.gens: List[Any] = []
        self.sinks: List[Any] = []
        self.checkpoints: List[Any] = []

    def flow(self, request, kind="cbr", period=5, burst=2, total=None):
        """Open ``request`` and run a generator and a checking sink on
        its forward channel; returns the handle."""
        handle = self.manager.open_connection(request).handle
        inject = self.net.ni(request.src_ni).injector(
            handle.forward.src_channel, request.label
        )
        if kind == "cbr":
            gen: Any = CbrGenerator(
                f"gen.{request.label}",
                inject=inject,
                period=period,
                total_words=total,
            )
        else:
            gen = BurstGenerator(
                f"gen.{request.label}",
                inject=inject,
                burst_words=burst,
                period=period,
                total_bursts=total,
            )
        sink = CheckingSink(
            f"sink.{request.label}",
            receive=self.net.ni(request.dst_ni).receiver(
                handle.forward.dst_channel
            ),
            words_per_cycle=2,
            stats=self.net.stats,
        )
        self.kernel.add(gen)
        self.kernel.add(sink)
        self.gens.append(gen)
        self.sinks.append(sink)
        return handle

    def source(self, label: str):
        """``(NI, source channel index)`` of an open connection."""
        record = self.manager.connections[label]
        return (
            self.net.ni(record.request.src_ni),
            record.handle.forward.src_channel,
        )

    def check(self, note: str = "") -> None:
        """Checkpoint everything the two kernels must agree on."""
        self.checkpoints.append(
            (
                note,
                network_image(self.net, self.gens, self.sinks),
                list(self.manager.setup_history),
                list(self.manager.teardown_history),
                list(self.manager.recovery_history),
            )
        )

    def __iter__(self):
        """A bench unpacks as a lockstep build: its network, generators,
        sinks and checkpoints."""
        return iter((self.net, self.gens, self.sinks, self.checkpoints))

    def open_queued(self, requests) -> None:
        """Open several connections with their set-ups queued on the
        config module before one wait, so the tree holds more than one
        set-up while the flows run.  All-or-nothing, like a sequence of
        opens that is unwound on the first error."""
        manager = self.manager
        for request in requests:
            if request.label in manager.connections:
                raise AllocationError(
                    f"connection {request.label!r} already open"
                )
        staged = []
        opened_at = self.kernel.cycle
        try:
            for request in requests:
                staged.append(
                    (request, manager.allocator.allocate_connection(request))
                )
            handles = [
                self.net.host.setup_connection(allocation)
                for _, allocation in staged
            ]
            self.net.wait_configured(
                [queued for handle in handles for queued in handle.requests],
                manager.max_op_cycles,
            )
        except ReproError:
            for _, allocation in staged:
                manager.allocator.release_connection(allocation)
            raise
        for (request, allocation), handle in zip(staged, handles):
            manager.connections[request.label] = OpenConnection(
                request, allocation, handle, opened_at, handle.setup_cycles
            )
            manager.setup_history.append(handle.setup_cycles)

    def attempt(self, note: str, operation: Callable, *args: Any) -> None:
        """Run ``operation(*args)``; checkpoint its outcome, exception
        included."""
        try:
            operation(*args)
            outcome: Any = None
        except ReproError as error:
            outcome = (type(error).__name__, str(error))
        self.check(f"{note}: {outcome}")


def stats(bench) -> dict:
    """``kernel_stats()`` of a bench or a network."""
    return bench.kernel.kernel_stats()


def lowerings(snapshot: dict) -> int:
    """Engines compiled so far (a lowering is a cache hit or a miss)."""
    return (
        snapshot["lowering_cache_hits"] + snapshot["lowering_cache_misses"]
    )


def rode(before: dict, after: dict) -> bool:
    """Between two snapshots the engine ran every cycle and lowered
    nothing again: it rode through whatever config events there were."""
    return (
        after["compiled_cycles"] - before["compiled_cycles"]
        == after["cycle"] - before["cycle"]
        > 0
        and after["active_cycles"] == before["active_cycles"]
        and lowerings(after) == lowerings(before)
    )


def stopped(before: dict, after: dict) -> bool:
    """Between two snapshots an apply changed what the engine runs: it
    stopped and a fresh engine was compiled."""
    return lowerings(after) > lowerings(before)


# -- randomized campaigns --------------------------------------------------------


SIDES = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]


@st.composite
def campaigns(draw):
    side = draw(st.sampled_from(SIDES))
    nis = [ni_name(x, y) for x in range(side[0]) for y in range(side[1])]
    pairs = st.tuples(st.sampled_from(nis), st.sampled_from(nis)).filter(
        lambda pair: pair[0] != pair[1]
    )
    flows = [
        (
            draw(pairs),
            draw(st.sampled_from(["cbr", "burst"])),
            draw(st.sampled_from([3, 5, 8, 10, 16])),
        )
        for _ in range(draw(st.integers(1, 2)))
    ]
    pool = [draw(pairs) for _ in range(3)]
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("open"), st.integers(0, 2)),
                st.tuples(st.just("close"), st.integers(0, 2)),
                st.tuples(st.just("repair"), st.integers(0, 4)),
                st.tuples(st.just("batch"), st.integers(0, 2)),
                st.tuples(st.just("send"), st.integers(0, 2)),
                st.tuples(st.just("run"), st.integers(1, 400)),
            ),
            min_size=3,
            max_size=8,
        )
    )
    return side, flows, pool, ops


def drive_campaign(campaign):
    _side, flows, pool, ops = campaign

    def drive(bench: Bench) -> None:
        for index, ((src, dst), kind, period) in enumerate(flows):
            bench.flow(
                ConnectionRequest(f"f{index}", src, dst, forward_slots=1),
                kind=kind,
                period=period,
            )
        bench.net.run(150)
        bench.check("flows")
        requests = [
            ConnectionRequest(f"u{index}", src, dst, forward_slots=1)
            for index, (src, dst) in enumerate(pool)
        ]
        manager = bench.manager
        for op, arg in ops:
            if op == "open":
                bench.attempt(op, manager.open_connection, requests[arg])
            elif op == "close":
                bench.attempt(
                    op, manager.close_connection, requests[arg].label
                )
            elif op == "repair":
                labels = [f"f{i}" for i in range(len(flows))] + [
                    r.label for r in requests
                ]
                bench.attempt(
                    op, manager.repair_connection, labels[arg % len(labels)]
                )
            elif op == "batch":
                bench.attempt(
                    op,
                    bench.open_queued,
                    [r for r in requests if r.label != f"u{arg}"],
                )
            elif op == "send":
                label = requests[arg].label
                if label in manager.connections:
                    ni, channel = bench.source(label)
                    ni.submit_words(channel, [arg, arg + 1], label)
                bench.check(op)
            else:
                bench.net.run(arg)
                bench.check(op)

    return drive


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(campaign=campaigns())
def test_manager_campaign_under_traffic_matches_naive(campaign):
    side, flows, _pool, _ops = campaign
    params = daelite_parameters(slot_table_size=8)
    allocator = SlotAllocator(topology=build_mesh(*side), params=params)
    try:
        for index, ((src, dst), _kind, _period) in enumerate(flows):
            allocator.allocate_connection(
                ConnectionRequest(f"f{index}", src, dst, forward_slots=1)
            )
    except AllocationError:
        assume(False)
    vector = lockstep(
        lambda mode: Bench(mode, side=side), [drive_campaign(campaign)]
    )
    assert stats(vector)["compiled_cycles"] > 0


# -- named cases -----------------------------------------------------------------

FLOW = ConnectionRequest("flow", "NI00", "NI22", forward_slots=2)
IDLE = ConnectionRequest("idle", "NI20", "NI02", forward_slots=1)
OTHER = ConnectionRequest("other", "NI01", "NI21", forward_slots=1)


def with_flow(bench: Bench, period: int = 5, **flow) -> Any:
    handle = bench.flow(FLOW, period=period, **flow)
    bench.net.run(200)
    bench.check("flow running")
    return handle


class TestRidingThrough:
    """Visibility rules driven false: the engine keeps its lowering."""

    def test_use_case_switch_beside_a_flow(self):
        """Open, repair and close of a connection that carries nothing,
        two set-ups queued before one wait, and a bus write: router
        entries, NI tables and channel registers no live flow reads."""
        marks = {}

        def drive(bench):
            with_flow(bench)
            marks[bench.kernel.mode] = [stats(bench)]
            manager = bench.manager
            bench.attempt("open", manager.open_connection, IDLE)
            bench.attempt("repair", manager.repair_connection, "idle")
            bench.attempt("close", manager.close_connection, "idle")
            bench.attempt("batch", bench.open_queued, [IDLE, OTHER])
            bench.attempt(
                "bus",
                lambda: bench.net.wait_configured(
                    [bench.net.host.configure_bus("NI12", [1, 2, 3])]
                ),
            )
            marks[bench.kernel.mode].append(stats(bench))
            bench.net.run(300)
            bench.check("after")

        lockstep(Bench, [drive])
        before, after = marks[VECTOR_MODE]
        assert rode(before, after)
        assert after["compile_deferrals"] == {}

    def test_wait_returns_one_cycle_after_the_finish(self):
        """The closed-form wait lands where polling ``done`` would."""

        def drive(bench):
            with_flow(bench)
            handle = bench.net.host.setup_connection(
                bench.manager.allocator.allocate_connection(IDLE)
            )
            bench.net.run_until_configured(handle)
            assert bench.kernel.cycle == handle.finished_at + 1
            bench.check("configured")

        lockstep(Bench, [drive])


class TestStoppingAtAVisibleApply:
    """Visibility rules driven true: the engine ends the cycle, and the
    kernel recompiles."""

    def assert_stops(
        self, act: Callable[[Bench], Any], resumes=True, **flow
    ) -> None:
        """``act`` beside the flow stops the engine; it ``resumes`` on
        the new schedule unless that schedule drops the flow's words
        (which only the stepped kernels run)."""
        marks = {}

        def drive(bench):
            with_flow(bench, **flow)
            marks[bench.kernel.mode] = [stats(bench)]
            bench.attempt("act", act, bench)
            marks[bench.kernel.mode].append(stats(bench))
            bench.net.run(300)
            bench.check("after")

        vector = lockstep(Bench, [drive])
        before, after = marks[VECTOR_MODE]
        assert stopped(before, after)
        resumed = stats(vector)["compiled_cycles"] > after["compiled_cycles"]
        assert resumed == resumes

    def test_teardown_of_a_connection_that_is_still_live(self):
        """A source's FLAGS and the path cells its words ride."""
        self.assert_stops(lambda bench: bench.manager.close_connection("flow"))

    def test_repair_of_a_live_connection(self):
        """Router output cells, NI injection and arrival cells and the
        channel registers of a live flow, rewritten to equal values."""
        self.assert_stops(lambda bench: bench.manager.repair_connection("flow"))

    def single_hop(self, bench, position, payload, teardown=True):
        """A path packet addressed to the one element at ``position`` of
        the flow's forward path, for that element's own slots."""
        forward = bench.manager.connections["flow"].allocation.forward
        net = bench.net
        packet = build_path_packet(
            arrival_mask=SlotMask.of(
                forward.slot_table_size, forward.table_slots(position)
            ),
            hops=[
                PathHop(
                    element_id=net.topology.element(
                        forward.path[position]
                    ).element_id,
                    payload=payload(forward),
                )
            ],
            teardown=teardown,
            word_bits=net.params.config_word_bits,
        )
        request = net.config_module.submit(packet, bench.kernel.cycle)
        net.wait_configured([request])

    def test_a_router_entry_the_flow_leaves_through_cleared(self):
        """One router's output entries for the flow's slots, and nothing
        else: the words are dropped there from the apply on."""

        def act(bench):
            topology = bench.net.topology

            def ports(forward):
                router = topology.element(forward.path[1])
                return router_port_word(
                    router.port_to(forward.path[0]),
                    router.port_to(forward.path[2]),
                )

            self.single_hop(bench, 1, ports)

        self.assert_stops(act, resumes=False)

    def test_the_flow_arrival_slots_cleared(self):
        """The destination NI's arrival slots alone: from the apply on
        the flow's words arrive in unmapped slots."""

        def act(bench):
            record = bench.manager.connections["flow"]
            channel = record.handle.forward
            self.single_hop(
                bench,
                len(record.allocation.forward.path) - 1,
                lambda forward: ni_channel_word(
                    Direction.ARRIVE, channel.dst_channel
                ),
            )

        self.assert_stops(act, resumes=False)

    def test_credits_written_into_the_flow_destination(self):
        """A CREDIT write into the flow's destination: its reverse
        channel, idle between the sink's rare drains, now has credits
        to return."""

        def act(bench):
            handle = bench.manager.connections["flow"].handle
            packet = build_channel_config_packet(
                element_id=bench.net.topology.element("NI22").element_id,
                direction=Direction.ARRIVE,
                channel=handle.forward.dst_channel,
                fields=[(ChannelField.CREDIT, 2)],
                word_bits=bench.net.params.config_word_bits,
            )
            request = bench.net.config_module.submit(
                packet, bench.kernel.cycle
            )
            bench.net.wait_configured([request])

        self.assert_stops(act, period=47)

    def test_repairs_of_a_saturating_flow_across_a_wheel(self):
        """Repairs submitted one cycle apart across a whole wheel beside
        a flow that sends in every slot it owns: some rewrite the
        source's credit counter in a cycle it sends in, where the NI
        sends first and applies after."""
        wheel = 16  # 8 slots of 2 words

        def after(offset):
            def act(bench):
                bench.net.run(offset)
                bench.manager.repair_connection("flow")

            return act

        for offset in range(wheel):
            self.assert_stops(after(offset), period=1)

    def test_a_live_channel_granted_more_injection_slots(self):
        """A path packet that grants the flowing source channel free
        injection slots toward another NI: it writes no cell the flow
        reads, but the channel now also sends in those slots."""

        def act(bench):
            ni, channel = bench.source("flow")
            spare = bench.manager.allocator.allocate_connection(
                ConnectionRequest("spare", ni.name, "NI02", forward_slots=1)
            )
            packet = channel_path_packet(
                bench.net.topology,
                spare.forward,
                src_channel=channel,
                dst_channel=bench.net.host.allocate_channel_index("NI02"),
                word_bits=bench.net.params.config_word_bits,
            )
            request = bench.net.config_module.submit(
                packet, bench.kernel.cycle
            )
            bench.net.wait_configured([request])

        self.assert_stops(act)

    def test_a_credit_write_leaving_pending_credits_on_an_idle_destination(
        self,
    ):
        """A CREDIT write into the destination of a connection that
        carries nothing: its reverse source now has credits to return."""

        def act(bench):
            record = bench.manager.open_connection(IDLE)
            packet = build_channel_config_packet(
                element_id=bench.net.topology.element("NI02").element_id,
                direction=Direction.ARRIVE,
                channel=record.handle.forward.dst_channel,
                fields=[(ChannelField.CREDIT, 3)],
                word_bits=bench.net.params.config_word_bits,
            )
            request = bench.net.config_module.submit(
                packet, bench.kernel.cycle
            )
            bench.net.wait_configured([request])

        self.assert_stops(act)

    def test_a_source_paired_with_a_live_destination(self):
        """A PAIRED write that makes an idle source return the credits
        of the flow's destination."""

        def act(bench):
            record = bench.manager.open_connection(
                ConnectionRequest("back", "NI22", "NI10", forward_slots=1)
            )
            flow = bench.manager.connections["flow"].handle
            packet = build_channel_config_packet(
                element_id=bench.net.topology.element("NI22").element_id,
                direction=Direction.INJECT,
                channel=record.handle.forward.src_channel,
                fields=[(ChannelField.PAIRED, flow.forward.dst_channel)],
                word_bits=bench.net.params.config_word_bits,
            )
            request = bench.net.config_module.submit(
                packet, bench.kernel.cycle
            )
            bench.net.wait_configured([request])

        self.assert_stops(act)

    def test_a_branch_grafted_onto_a_live_multicast_trunk(self):
        """The partial path packet of a second leaf: at the fork router
        it adds an output fed from the input the live trunk arrives on
        — an output cell nobody reads, an input cell the flow does."""
        def drive(bench):
            net = bench.net
            tree = SlotAllocator(
                topology=net.topology, params=net.params
            ).allocate_multicast(
                MulticastRequest("tree", "NI00", ("NI22", "NI20"), slots=1)
            )
            trunk = AllocatedMulticast("tree", tree.paths[:1])
            handle = net.configure_multicast(trunk)
            gen = CbrGenerator(
                "gen.tree",
                inject=net.ni("NI00").injector(handle.src_channel, "tree"),
                period=9,
            )
            bench.kernel.add(gen)
            bench.gens.append(gen)
            net.run(200)
            bench.check("trunk running")
            before = stats(bench)
            grafted = tree.paths[1].dst_ni
            leaves = dict(handle.dst_channels)
            leaves[grafted] = net.host.allocate_channel_index(grafted)
            branch = multicast_path_packets(
                net.topology,
                tree,
                src_channel=handle.src_channel,
                dst_channels=leaves,
                word_bits=net.params.config_word_bits,
            )[1]
            request = net.config_module.submit(branch, bench.kernel.cycle)
            bench.attempt("graft", net.wait_configured, [request])
            if bench.kernel.mode == VECTOR_MODE:
                assert stopped(before, stats(bench))
            net.run(300)
            bench.check("both leaves")
            ni = net.ni(grafted)
            # No sink drains the grafted leaf: what it received waits.
            assert ni.dest_channels[leaves[grafted]].queue

        lockstep(Bench, [drive])


def test_a_read_applied_without_a_response_budget():
    """A read-back submitted as if it expected no response is elided,
    and its apply queues a response word no other apply does: the
    engine stops and the stepped kernel carries the word up the tree at
    the cycles the stepped tree would — into the bus write queued right
    behind it, which expects none."""

    def drive(bench):
        with_flow(bench)
        net = bench.net
        handle = bench.manager.connections["flow"].handle
        stray = net.config_module.submit(
            build_channel_read_packet(
                element_id=net.topology.element("NI22").element_id,
                direction=Direction.ARRIVE,
                channel=handle.forward.dst_channel,
                field_id=ChannelField.FLAGS,
                word_bits=net.params.config_word_bits,
            ),
            bench.kernel.cycle,
            expected_responses=0,
        )
        bus = net.host.configure_bus("NI12", [1])
        bench.attempt("reads", net.wait_configured, [stray, bus])
        assert "unexpected response word" in bench.checkpoints[-1][0]

    vector = lockstep(Bench, [drive])
    assert stats(vector)["config_packets_elided"] > 0


class TestReuseAfterRidingThrough:
    """An engine that rode through applies is exact only for what was
    live at them."""

    def test_host_submit_into_a_channel_configured_in_engine(self):
        marks = {}

        def drive(bench):
            with_flow(bench)
            record = bench.manager.open_connection(IDLE)
            bench.check("idle configured")
            marks[bench.kernel.mode] = [stats(bench)]
            bench.net.ni("NI20").submit_words(
                record.handle.forward.src_channel, [5, 6, 7], "idle"
            )
            bench.net.run(200)
            bench.check("sent")
            marks[bench.kernel.mode].append(stats(bench))
            bench.net.ni("NI02").receive(record.handle.forward.dst_channel)
            bench.net.run(100)
            bench.check("drained")
            assert bench.net.stats.delivered_words("idle") == 3

        lockstep(Bench, [drive])
        before, after = marks[VECTOR_MODE]
        assert stopped(before, after)
        assert after["active_cycles"] == before["active_cycles"]

    def test_the_same_live_flows_keep_the_engine(self):
        """Runs between switches, the flows unchanged: one engine."""
        marks = {}

        def drive(bench):
            with_flow(bench)
            marks[bench.kernel.mode] = [stats(bench)]
            for _lap in range(3):
                bench.manager.open_connection(IDLE)
                bench.net.run(150)
                bench.manager.close_connection("idle")
                bench.net.run(150)
                bench.check("lap")
            marks[bench.kernel.mode].append(stats(bench))

        lockstep(Bench, [drive])
        before, after = marks[VECTOR_MODE]
        assert rode(before, after)


class TestBarriers:
    def test_a_kernel_at_callback_inside_a_wait(self):
        """The callback's cycle is stepped; the wait runs on around it."""
        seen = {}

        def drive(bench):
            with_flow(bench)
            handle = bench.net.host.setup_connection(
                bench.manager.allocator.allocate_connection(IDLE)
            )
            at = bench.kernel.cycle + 40

            def poke(cycle):
                seen.setdefault(bench.kernel.mode, []).append(cycle)
                ni, channel = bench.source("flow")
                ni.submit_words(channel, [99], "flow")

            bench.kernel.at(at, poke)
            bench.net.run_until_configured(handle)
            bench.check("configured")
            bench.net.run(200)
            bench.check("after")

        vector = lockstep(Bench, [drive])
        assert seen[VECTOR_MODE] == seen[NAIVE_MODE]
        assert stats(vector)["active_cycles"] > 0

    def test_a_packet_only_the_tree_can_carry_is_stepped(self):
        """A read-back in the queue behind a set-up, one long run: the
        set-up is engine time, the read's activation is a barrier and
        the read is stepped on the word-level tree."""

        def drive(bench):
            with_flow(bench)
            net = bench.net
            handle = net.host.setup_connection(
                bench.manager.allocator.allocate_connection(IDLE)
            )
            read = net.host.read_channel_register(
                "NI22",
                Direction.ARRIVE,
                bench.manager.connections["flow"].handle.forward.dst_channel,
                ChannelField.FLAGS,
            )
            net.run(800)
            assert handle.done and read.responses
            bench.check("after")

        vector = lockstep(Bench, [drive])
        kernel = stats(vector)
        assert kernel["config_elision_refusals"] == {"expects_response": 1}
        assert kernel["compile_fallbacks"]["config_active"] > 0

    def test_a_fault_wave_mid_campaign(self):
        """Armed fault hooks refuse the engine; disarmed, it returns."""

        def drive(bench):
            with_flow(bench)
            net = bench.net
            edge = next(
                key
                for key in net.links
                if key[0].startswith("R") and key[1].startswith("R")
            )
            injector = FaultInjector(
                net,
                FaultPlan(
                    seed=0,
                    specs=(
                        TransientBitFlip(
                            edge=edge, cycle=net.kernel.cycle + 30, bit=2
                        ),
                    ),
                ),
            )
            injector.arm()
            bench.attempt("open armed", bench.manager.open_connection, IDLE)
            net.run(100)
            injector.disarm()
            bench.attempt(
                "open disarmed", bench.manager.open_connection, OTHER
            )
            net.run(200)
            bench.check("after")

        vector = lockstep(Bench, [drive])
        kernel = stats(vector)
        assert kernel["compile_fallbacks"]["fault_hooks_armed"] > 0

    def test_max_cycles_expiry(self):
        """A wait that cannot finish in its budget raises the polling
        wait's exception with the polling wait's clock."""

        def drive(bench):
            with_flow(bench)
            bench.manager.max_op_cycles = 37
            bench.attempt("open", bench.manager.open_connection, IDLE)
            bench.net.run(300)
            bench.check("after")
            assert "within 37 cycles" in bench.checkpoints[1][0]

        lockstep(Bench, [drive])


# -- the closed-form wait ----------------------------------------------------------

ALL_MODES = (NAIVE_MODE, VECTOR_MODE)


def queue_response_free(bench: Bench) -> List[Any]:
    """Two set-ups and a bus write, queued together beside the flow."""
    net, allocator = bench.net, bench.manager.allocator
    first = net.host.setup_connection(allocator.allocate_connection(IDLE))
    second = net.host.setup_connection(allocator.allocate_connection(OTHER))
    return (
        first.requests
        + second.requests
        + [net.host.configure_bus("NI12", [3, 1])]
    )


class TestEarliestFinish:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_exact_for_response_free_requests(self, mode):
        """At submission and mid-flight — an elided packet's cool-down,
        a stepped one's words still queued — the bound of every
        response-free request is its measured finish."""
        bench = Bench(mode)
        with_flow(bench)
        net, module = bench.net, bench.net.config_module
        requests = queue_response_free(bench)
        at_submission = [module.earliest_finish([r]) for r in requests]
        whole = module.earliest_finish(requests)
        net.run(23)
        mid_flight = [module.earliest_finish([r]) for r in requests]
        net.wait_configured(requests)
        finished = [request.finished_at for request in requests]
        assert at_submission == mid_flight == finished
        assert whole == max(finished) == net.kernel.cycle - 1

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_a_lower_bound_for_reads_and_retries(self, mode):
        """A read waits on its response; one whose responses are lost
        is re-sent, then abandoned.  Neither finishes before its bound,
        nor does what is queued behind them."""
        bench = Bench(mode)
        with_flow(bench)
        net, module = bench.net, bench.net.config_module
        flow = bench.manager.connections["flow"].handle
        read = net.host.read_channel_register(
            "NI22", Direction.ARRIVE, flow.forward.dst_channel,
            ChannelField.FLAGS,
        )
        behind = queue_response_free(bench)
        bounds = [module.earliest_finish([r]) for r in [read] + behind]
        net.wait_configured([read] + behind)
        assert read.responses and not read.failed
        for bound, request in zip(bounds, [read] + behind):
            assert bound <= request.finished_at

        root = net.config_tree.root
        net.config_links[f"rsp.{root}->module"].fault_hook = (
            lambda link, word: None
        )
        lost = net.host.read_channel_register(
            "NI22", Direction.ARRIVE, flow.forward.dst_channel,
            ChannelField.FLAGS, timeout_cycles=30, max_retries=1,
        )
        bound = module.earliest_finish([lost])
        net.wait_configured([lost])
        assert lost.failed and lost.attempts == 2
        assert bound < lost.finished_at

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_reproduces_table3_at_submission(self, mode):
        """The golden Table III set-up (request and response paths on a
        2x2 mesh) is known the cycle its packets are submitted."""
        topology = build_mesh(2, 2)
        params = daelite_parameters(slot_table_size=16)
        connection = SlotAllocator(
            topology=topology, params=params
        ).allocate_connection(
            ConnectionRequest("c", "NI00", "NI11", forward_slots=2)
        )
        net = DaeliteNetwork(topology, params, host_ni="NI00", kernel_mode=mode)
        handle = net.host.setup_paths(connection)
        bound = net.config_module.earliest_finish(handle.requests)
        assert bound - handle.submitted_at == 55
        assert net.run_until_configured(handle) == 55


# -- epoch replay around config events ---------------------------------------------


#: The replay period of a flow fed every ten cycles on the 8-slot bench,
#: ``lcm(wheel, 10)``.
FLOW_PERIOD = lcm(8 * daelite_parameters().words_per_slot, 10)


def run_probe_across_a_config_event(monkeypatch):
    """A steady flow with no template yet — every run before crosses at
    most one boundary — and one run holding a one-packet rewrite of an
    idle channel, submitted where the packet's deposit comes just before
    a boundary ``B`` and, after a cool-down of two periods, the turn
    retiring it between ``B + P`` and ``B + 2P``: ``B`` is the first
    probe of the regime, and the boundary after it holds a config event
    in its epoch.  Returns the vector bench, the cycles of every config
    event, and every replay template's epoch and replayed span."""
    period = FLOW_PERIOD
    config_cycles: List[int] = []
    spans: List[Tuple[int, int]] = []
    original_decode = ConfigPort._decode_deposit
    original_turn = ConfigModule.evaluate
    original_store = EpochReplay.store
    original_replay = CompiledEngine._replay

    def decode(self, cycle, word):
        config_cycles.append(cycle)
        return original_decode(self, cycle, word)

    def turn(self, cycle):
        if self._active is not None or self._pending:
            config_cycles.append(cycle)
        return original_turn(self, cycle)

    def store(self, sig, delta, events, cycle, anchors):
        spans.append((cycle - self.period, cycle))
        return original_store(self, sig, delta, events, cycle, anchors)

    def replay(self, epochs, delta, after, events, cycle):
        original_replay(self, epochs, delta, after, events, cycle)
        spans.append((cycle, cycle + epochs * self.period))

    monkeypatch.setattr(ConfigPort, "_decode_deposit", decode)
    monkeypatch.setattr(ConfigModule, "evaluate", turn)
    monkeypatch.setattr(EpochReplay, "store", store)
    monkeypatch.setattr(CompiledEngine, "_replay", replay)

    def drive(bench):
        net = bench.net
        module = net.config_module
        idle = bench.manager.open_connection(IDLE).handle
        bench.flow(FLOW, period=10)
        for _ in range(12):
            net.run(period // 2)
        bench.check("flow steady, no template")
        channel = idle.forward.src_channel
        flags = net.ni("NI20").source_channels[channel].flags
        element = net.topology.element("NI20").element_id
        rewrite = build_channel_config_packet(
            element_id=element,
            direction=Direction.INJECT,
            channel=channel,
            fields=[(ChannelField.FLAGS, flags)],
            word_bits=net.params.config_word_bits,
        )
        words = len(rewrite.words)
        depth = module.ports[element].depth

        def aligned(start):
            deposit = module._due_cycle(start, words, depth)
            first = (deposit // period + 1) * period
            return first + period <= module._flight_end(start, words) < (
                first + 2 * period
            )

        now = net.kernel.cycle
        start = next(c for c in range(now, now + period) if aligned(c))
        net.run(start - now)
        module.submit(rewrite, start)
        net.run(6 * period)
        bench.check("after")

    bench = lockstep(
        lambda mode: Bench(mode, cooldown_cycles=2 * period), [drive]
    )
    return bench, config_cycles, spans


def test_no_replay_or_template_spans_a_config_event(monkeypatch):
    bench, config_cycles, spans = run_probe_across_a_config_event(monkeypatch)
    assert stats(bench)["replayed_epochs"] > 0
    assert stats(bench)["regime_cache_stores"] == 1
    assert config_cycles
    for start, end in spans:
        assert not any(start <= c < end for c in config_cycles), (
            start,
            end,
            config_cycles,
        )


# -- the rules bite: planted mutants -------------------------------------------------


def owner_visits_after_applies() -> Tuple[str, str]:
    """``run_to``'s owner-visit block and its config block, swapped: the
    deposits of a cycle applied before its slot owners are visited."""
    source = inspect.getsource(compiled)
    start = source.index("                bucket = owner_ring[at]\n")
    middle = source.index("                if cycle == cfg_next:\n")
    end = source.index("                if cycle == gen_due:\n")
    assert start < middle < end
    return (
        source[start:end],
        source[middle:end] + source[start:middle],
    )


class TestPlantedMutantsAreKilled:
    def test_footprint_without_the_input_port_cell(self, monkeypatch):
        readers = CompiledEngine._cell_readers

        def outputs_only(self):
            return {
                cell: plans
                for cell, plans in readers(self).items()
                if not (len(cell) == 4 and cell[3] == 0)
            }

        monkeypatch.setattr(CompiledEngine, "_cell_readers", outputs_only)
        assert not mutant_survives(
            TestStoppingAtAVisibleApply()
            .test_a_branch_grafted_onto_a_live_multicast_trunk
        )

    def test_live_set_not_checked_on_reuse(self, monkeypatch):
        plant(
            monkeypatch,
            "refusal is not None or not live_src <= self._valid_for",
            "refusal is not None",
        )
        assert not mutant_survives(
            TestReuseAfterRidingThrough()
            .test_host_submit_into_a_channel_configured_in_engine
        )

    def test_deposits_applied_before_the_owner_visits(self, monkeypatch):
        plant(monkeypatch, *owner_visits_after_applies())
        assert not mutant_survives(
            TestStoppingAtAVisibleApply()
            .test_repairs_of_a_saturating_flow_across_a_wheel
        )

    def test_earliest_finish_one_cycle_late(self, monkeypatch):
        bound = ConfigModule.earliest_finish
        monkeypatch.setattr(
            ConfigModule,
            "earliest_finish",
            lambda self, requests: bound(self, requests) + 1,
        )
        assert not mutant_survives(
            lambda: TestEarliestFinish().test_exact_for_response_free_requests(
                VECTOR_MODE
            )
        )
        assert not mutant_survives(
            TestRidingThrough().test_wait_returns_one_cycle_after_the_finish
        )

    def test_probe_not_reset_at_a_config_event(self, monkeypatch):
        """A boundary with a config event in its epoch is no probe: kept
        as one, the boundary after the event compares with the one
        before it."""
        plant(
            monkeypatch,
            "is no probe.\n                        prev_sig = None\n",
            "is no probe.\n                        pass\n",
        )
        assert not mutant_survives(
            lambda: test_no_replay_or_template_spans_a_config_event(
                monkeypatch
            )
        )
