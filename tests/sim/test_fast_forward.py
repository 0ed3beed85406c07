"""Quiescence fast-forward never skips a cycle that would do work.

The activity kernel may jump the clock only over stretches in which no
register would be driven and no component would change state.  These
tests pin that down directly: a naive-mode sibling network runs in
lockstep, and every cycle after which the naive build holds *any*
non-idle register output (i.e. something was driven in the previous
cycle) must have been executed — not fast-forwarded — by the activity
build.  Registers are compared after every edge as well, so a wrongly
skipped latch cannot hide.

Covered workloads: a fully idle network, a single periodic connection
(traffic separated by quiescent gaps), a configuration-tree burst
fired into the middle of a long idle period, and a network with idle
sinks attached.  The last two classes pin the executors' own work:
a bound on how often the activity scheduler asks ``next_evaluation``,
and how many events the compiled engine handles per delivered word —
the same on a 2-router and on a 23-router path.
"""

from __future__ import annotations

import pytest

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork, OnlineConnectionManager
from repro.core.config_network import ConfigModule
from repro.core.config_port import ConfigPort
from repro.core.config_protocol import ConfigDecoder
from repro.errors import SimulationError
from repro.params import daelite_parameters
from repro.sim.kernel import ACTIVITY_MODE, NAIVE_MODE, VECTOR_MODE, Kernel
from repro.topology import build_mesh, ni_name
from repro.traffic import (
    CbrGenerator,
    CheckingSink,
    ThrottledSink,
    random_traffic_pattern,
)


def build_pair(configure=True):
    """Identical 2x2 daelite networks on the two kernels."""
    params = daelite_parameters(slot_table_size=8)
    mesh = build_mesh(2, 2)
    allocator = SlotAllocator(topology=mesh, params=params)
    connection = allocator.allocate_connection(
        ConnectionRequest(
            "c", "NI00", "NI11", forward_slots=2, reverse_slots=1
        )
    )
    nets = []
    for mode in (ACTIVITY_MODE, NAIVE_MODE):
        net = DaeliteNetwork(mesh, params, kernel_mode=mode)
        if configure:
            net.configure(connection)
        nets.append(net)
    activity, naive = nets
    assert activity.kernel.cycle == naive.kernel.cycle
    return activity, naive, connection


def lockstep_checking_no_skipped_work(activity, naive, cycles):
    """Step both builds one cycle at a time.  Whenever the naive build
    shows that the cycle drove any register, the activity build must
    have executed (not skipped) that cycle; all registers must agree."""
    naive_regs = naive.kernel.all_registers()
    activity_regs = activity.kernel.all_registers()
    executed_when_needed = 0
    for _ in range(cycles):
        before = activity.kernel.active_cycles
        activity.run(1)
        naive.run(1)
        executed = activity.kernel.active_cycles > before
        cycle = naive.kernel.cycle
        driven_last_cycle = any(
            reg.q != reg.idle for reg in naive_regs
        )
        if driven_last_cycle:
            assert executed, (
                f"cycle {cycle - 1} drove at least one register but the "
                f"activity kernel fast-forwarded over it"
            )
            executed_when_needed += 1
        for reg_a, reg_n in zip(activity_regs, naive_regs):
            assert reg_a.q == reg_n.q, (
                f"cycle {cycle}: {reg_a.name} diverged"
            )
    return executed_when_needed


class TestIdleNetwork:
    def test_idle_network_is_entirely_fast_forwarded(self):
        activity, naive, _ = build_pair(configure=False)
        start = activity.kernel.cycle
        activity.run(5000)
        naive.run(5000)
        assert activity.kernel.cycle == naive.kernel.cycle == start + 5000
        # Nothing is configured and nothing submitted: every cycle is
        # quiescent and skippable.
        assert activity.kernel.fast_forwarded_cycles == 5000
        assert activity.kernel.active_cycles == 0
        for reg_a, reg_n in zip(
            activity.kernel.all_registers(), naive.kernel.all_registers()
        ):
            assert reg_a.q == reg_a.idle
            assert reg_a.q == reg_n.q

    def test_idle_run_until_still_times_out(self):
        activity, _, _ = build_pair(configure=False)
        with pytest.raises(SimulationError, match="not reached"):
            activity.kernel.run_until(lambda: False, max_cycles=123)
        # The timeout consumed exactly the budget, fast-forwarded.
        assert activity.kernel.cycle == 123


class TestPeriodicConnection:
    def test_sparse_periodic_traffic_skips_only_dead_cycles(self):
        activity, naive, _ = build_pair()
        base = activity.kernel.cycle
        # One small burst every 60 cycles, drained 20 cycles later:
        # leaves long genuinely-idle gaps between activity islands.
        for net in (activity, naive):
            for start in range(0, 600, 60):

                def inject(cycle, net=net):
                    net.ni("NI00").submit_words(0, [cycle & 0xFFFF])

                def drain(cycle, net=net):
                    net.ni("NI11").receive(0)

                net.kernel.at(base + start, inject)
                net.kernel.at(base + start + 20, drain)
        needed = lockstep_checking_no_skipped_work(activity, naive, 650)
        assert needed > 0  # the workload did drive registers
        assert activity.kernel.fast_forwarded_cycles > 0  # and gaps exist
        assert {
            label: stats.latency_histogram
            for label, stats in activity.stats.connections.items()
        } == {
            label: stats.latency_histogram
            for label, stats in naive.stats.connections.items()
        }

    def test_fast_forward_is_cheaper_than_stepping(self):
        activity, naive, _ = build_pair()
        evals_before = activity.kernel.evaluations
        activity.run(2000)
        naive.run(2000)
        # No traffic queued: the activity build skips essentially all of
        # it while the naive build pays full price every cycle.
        assert activity.kernel.evaluations - evals_before == 0
        assert activity.kernel.fast_forwarded_cycles >= 2000


class TestConfigBurstMidIdle:
    def test_config_tree_burst_fired_into_idle_period(self):
        """A set-up packet scheduled mid-idle must wake the whole config
        tree at exactly the right cycle in both modes."""
        params = daelite_parameters(slot_table_size=8)
        mesh = build_mesh(2, 2)
        allocator = SlotAllocator(topology=mesh, params=params)
        connection = allocator.allocate_connection(
            ConnectionRequest(
                "late", "NI01", "NI10", forward_slots=1, reverse_slots=1
            )
        )
        nets = {}
        handles = {}
        for mode in (ACTIVITY_MODE, NAIVE_MODE):
            net = DaeliteNetwork(mesh, params, kernel_mode=mode)

            def setup(cycle, net=net, mode=mode):
                handles[mode] = net.host.setup_connection(connection)

            net.kernel.at(1200, setup)
            nets[mode] = net
        needed = lockstep_checking_no_skipped_work(
            nets[ACTIVITY_MODE], nets[NAIVE_MODE], 1600
        )
        assert needed > 0
        # The 1200 leading idle cycles were all skippable.
        assert nets[ACTIVITY_MODE].kernel.fast_forwarded_cycles >= 1200
        assert handles[ACTIVITY_MODE].done and handles[NAIVE_MODE].done
        assert (
            handles[ACTIVITY_MODE].setup_cycles
            == handles[NAIVE_MODE].setup_cycles
        )


class TestKernelPrimitives:
    def test_callback_wakes_a_quiescent_kernel(self):
        kernel = Kernel(mode=ACTIVITY_MODE)
        seen = []
        kernel.at(400, seen.append)
        kernel.step(1000)
        assert seen == [400]
        assert kernel.cycle == 1000
        assert kernel.fast_forwarded_cycles == 999

    def test_mode_switch_mid_flight_preserves_state(self):
        activity, naive, _ = build_pair()
        activity.ni("NI00").submit_words(0, list(range(5)))
        naive.ni("NI00").submit_words(0, list(range(5)))
        activity.run(17)
        naive.run(17)
        activity.kernel.set_mode(NAIVE_MODE)
        activity.run(100)
        naive.run(100)
        for reg_a, reg_n in zip(
            activity.kernel.all_registers(), naive.kernel.all_registers()
        ):
            assert reg_a.q == reg_n.q
        activity.kernel.set_mode(ACTIVITY_MODE)
        activity.run(100)
        naive.run(100)
        for reg_a, reg_n in zip(
            activity.kernel.all_registers(), naive.kernel.all_registers()
        ):
            assert reg_a.q == reg_n.q


class TestIdleSinks:
    def test_network_with_idle_sinks_fast_forwards(self):
        """A sink on an NI channel sleeps while its queue is empty, so
        attaching sinks no longer pins the kernel to every cycle."""
        activity, naive, connection = build_pair()
        for net in (activity, naive):
            receiver = net.ni("NI11").receiver(0)
            net.kernel.add_all(
                [
                    CheckingSink("drain", receiver),
                    ThrottledSink("throttled", receiver, period=7),
                    CheckingSink("checking", receiver, stats=net.stats),
                ]
            )
        before = activity.kernel.kernel_stats()
        activity.run(3000)
        naive.run(3000)
        after = activity.kernel.kernel_stats()
        assert after["evaluations"] == before["evaluations"]
        assert after["active_cycles"] == before["active_cycles"]
        assert (
            after["fast_forwarded_cycles"]
            - before["fast_forwarded_cycles"]
            == 3000
        )
        # ... and a word arriving after the quiet stretch still finds
        # them: the NI wakes its sinks on delivery.
        for net in (activity, naive):
            net.ni("NI00").submit_words(0, [11, 22, 33])
        lockstep_checking_no_skipped_work(activity, naive, 200)
        drained = [
            [
                (sink.words_received, sink._last_seq, sink.findings)
                for sink in net.kernel.components[-3:]
            ]
            for net in (activity, naive)
        ]
        assert drained[0] == drained[1]
        assert sum(words for words, _, _ in drained[0]) == 3

    def test_sink_behind_a_bare_callable_stays_on_every_cycle(self):
        """The kernel cannot see into an arbitrary ``receive``."""
        activity, _, _ = build_pair()
        ni = activity.ni("NI11")
        activity.kernel.add(
            CheckingSink("opaque", lambda n: ni.receive(0, n))
        )
        before = activity.kernel.evaluations
        activity.run(500)
        assert activity.kernel.evaluations - before == 500


class TestSchedulerWork:
    def test_polls_are_bounded_by_turns_and_jumps(self):
        """8x8 mesh, eight flows running, four connections opened and
        closed under that load.  The activity kernel asks each
        component at most once per executed cycle (at its turn) and
        once per fast-forward decision — never more, however much work
        crosses between components."""
        params = daelite_parameters(
            slot_table_size=16, config_word_bits=9
        )
        mesh = build_mesh(8, 8)
        net = DaeliteNetwork(mesh, params, kernel_mode=ACTIVITY_MODE)
        kernel = net.kernel
        decisions = [0]
        decide = kernel._next_active_cycle

        def counted():
            decisions[0] += 1
            return decide()

        kernel._next_active_cycle = counted
        manager = OnlineConnectionManager(net)
        nis = [element.name for element in mesh.nis if element.name != "NI00"]
        requests = random_traffic_pattern(
            nis, 12, seed=7, slots_min=1, slots_max=2
        )
        for request in requests[:8]:
            handle = manager.open_connection(request).handle
            kernel.add(
                CbrGenerator(
                    f"gen.{request.label}",
                    net.ni(request.src_ni).injector(
                        handle.forward.src_channel, request.label
                    ),
                    period=16,
                )
            )
            kernel.add(
                CheckingSink(
                    f"sink.{request.label}",
                    net.ni(request.dst_ni).receiver(
                        handle.forward.dst_channel
                    ),
                    stats=net.stats,
                )
            )
        net.run(500)
        for request in requests[8:]:
            manager.open_connection(request)
            net.run(200)
            manager.close_connection(request.label)
        stats = kernel.kernel_stats()
        delivered = sum(
            flow.ejected for flow in net.stats.connections.values()
        )
        assert delivered > 500  # the load was real
        assert stats["fast_forwarded_cycles"] > 0
        assert 0 < stats["schedule_polls"] <= len(kernel.components) * (
            stats["active_cycles"] + decisions[0]
        )


class TestEngineWork:
    #: Per delivered word: the generator firing, the source's slot, the
    #: link entry, the arrival, the sink's drain, the destination's slot
    #: returning the credit, and that credit's arrival.
    EVENTS_PER_WORD = 7
    WORDS = 40
    #: Model methods the engine reaches per connection plus destination,
    #: whatever the word count: ``StatsCollector._inject`` for the first
    #: word of a connection's ledger column, and for the first delivery
    #: of a stream ``StatsCollector._eject`` at its destination and
    #: ``CheckingSink.consume`` at its sink.  Every other word takes the
    #: inline fast paths.
    MODEL_CALLS_PER_ENDPOINT = 2
    #: ``run_one_flow``: one connection, one destination.
    BOUND = MODEL_CALLS_PER_ENDPOINT * (1 + 1)

    def run_one_flow(self, width, height, words=WORDS):
        """One flow-controlled CBR flow corner to corner, stepped by the
        engine until every word is delivered and every credit is home;
        returns ``(net, engine, words delivered)``."""
        params = daelite_parameters(
            slot_table_size=16, config_word_bits=10
        )
        mesh = build_mesh(width, height)
        src, dst = "NI00", ni_name(width - 1, height - 1)
        connection = SlotAllocator(
            topology=mesh, params=params
        ).allocate_connection(
            ConnectionRequest(
                "c", src, dst, forward_slots=1, reverse_slots=1
            )
        )
        net = DaeliteNetwork(mesh, params, kernel_mode=VECTOR_MODE)
        net.kernel.strict_registers = False  # the subject is the engine
        handle = net.configure(connection)
        net.run_until_configured(handle)
        # The prime period keeps lcm(wheel, period) past the replay
        # probe budget: every word is stepped, none replayed.
        period = 2053
        net.kernel.add(
            CbrGenerator(
                "gen",
                net.ni(src).injector(handle.forward.src_channel, "c"),
                period=period,
                total_words=words,
                start_cycle=net.kernel.cycle + 10,
            )
        )
        net.kernel.add(
            CheckingSink(
                "sink",
                net.ni(dst).receiver(handle.forward.dst_channel),
                stats=net.stats,
            )
        )
        net.run(words * period + 500)
        stats = net.kernel.kernel_stats()
        assert stats["compile_fallbacks"] == {}
        assert stats["replayed_epochs"] == 0
        assert stats["compiled_cycles"] >= words * period
        return net, net.kernel._engine, net.stats.delivered_words("c")

    def test_events_per_word_do_not_depend_on_path_length(self):
        """The engine touches a word at injection and at arrival, not
        once per hop: a 2-router path and a 23-router path cost the
        same number of events per delivered word."""
        _, near, near_words = self.run_one_flow(2, 1)
        _, far, far_words = self.run_one_flow(12, 12)
        assert near_words == far_words == self.WORDS
        assert len(far.trajectories[0].leaves[0].path) > 20 + len(
            near.trajectories[0].leaves[0].path
        )
        assert (
            near.events_handled
            == far.events_handled
            == self.EVENTS_PER_WORD * self.WORDS
        )
        assert 0 < near.model_calls == far.model_calls <= self.BOUND

    def test_model_calls_do_not_depend_on_word_count(self):
        """The cost model as an inequality: per word the engine calls no
        model method at all — what it calls is bounded by the
        connections and destinations, for 40 words and for 120."""
        _, short, short_words = self.run_one_flow(2, 1)
        _, longer, longer_words = self.run_one_flow(2, 1, 3 * self.WORDS)
        assert (short_words, longer_words) == (self.WORDS, 3 * self.WORDS)
        assert longer.events_handled == self.EVENTS_PER_WORD * longer_words
        assert 0 < short.model_calls == longer.model_calls <= self.BOUND

    def test_idle_configured_fabric_handles_no_events(self):
        net, engine, _ = self.run_one_flow(12, 12)
        before = engine.events_handled
        compiled = net.kernel.compiled_cycles
        net.run(10_000)
        assert net.kernel._engine is engine
        assert net.kernel.compiled_cycles == compiled + 10_000
        assert engine.events_handled == before

    def test_setup_waits_are_engine_time(self, monkeypatch):
        """An 8x8 mesh with 16 live CBR flows switches use cases — 4
        closes and 4 opens through ``OnlineConnectionManager`` — in
        vector mode.  The set-up waits are engine time: no cycle falls
        back to the activity kernel, no component is evaluated, no
        deferral is stepped and nothing is lowered again (the switch
        writes no cell a live flow reads), and the engine's own config
        work is one event per deposit decoded plus one per module turn.
        Each deposit decodes its own part of the packet: the word-level
        decoder is never fed."""
        counted = {"deposits": 0, "turns": 0, "feeds": 0}
        for owner, method, key in (
            (ConfigPort, "_decode_deposit", "deposits"),
            (ConfigModule, "evaluate", "turns"),
            (ConfigDecoder, "feed", "feeds"),
        ):
            original = getattr(owner, method)

            def counting(self, *args, _original=original, _key=key):
                counted[_key] += 1
                return _original(self, *args)

            monkeypatch.setattr(owner, method, counting)
        params = daelite_parameters(slot_table_size=16, config_word_bits=9)
        mesh = build_mesh(8, 8)
        net = DaeliteNetwork(mesh, params, kernel_mode=VECTOR_MODE)
        net.kernel.strict_registers = False  # the subject is the engine
        manager = OnlineConnectionManager(net)
        nis = [element.name for element in mesh.nis if element.name != "NI00"]
        requests = random_traffic_pattern(
            nis, 24, seed=2026, slots_min=1, slots_max=2
        )
        live, use_a, use_b = requests[:16], requests[16:20], requests[20:]
        for request in live + use_a:
            handle = manager.open_connection(request).handle
            if request in live:
                net.kernel.add(
                    CbrGenerator(
                        f"gen.{request.label}",
                        net.ni(request.src_ni).injector(
                            handle.forward.src_channel, request.label
                        ),
                        period=64,
                    )
                )
                net.kernel.add(
                    CheckingSink(
                        f"sink.{request.label}",
                        net.ni(request.dst_ni).receiver(
                            handle.forward.dst_channel
                        ),
                        words_per_cycle=2,
                        stats=net.stats,
                    )
                )
        net.run(1000)
        engine = net.kernel._engine
        before = net.kernel.kernel_stats()
        config_events = engine.config_events
        counted.update(deposits=0, turns=0, feeds=0)
        for request in use_a:
            manager.close_connection(request.label)
        for request in use_b:
            manager.open_connection(request)
        after = net.kernel.kernel_stats()
        assert net.kernel._engine is engine
        for key in (
            "active_cycles",
            "evaluations",
            "lowering_cache_misses",
            "lowering_cache_hits",
        ):
            assert after[key] == before[key], key
        assert after["compile_deferrals"] == before["compile_deferrals"] == {}
        assert after["compile_fallbacks"] == {}
        assert (
            after["compiled_cycles"] - before["compiled_cycles"]
            == after["cycle"] - before["cycle"]
        )
        assert counted["deposits"] > 0 and counted["turns"] > 0
        assert counted["feeds"] == 0
        assert (
            engine.config_events - config_events
            == counted["deposits"] + counted["turns"]
        )
        assert all(
            net.stats.connections[request.label].ejected > 0
            for request in live
        )
