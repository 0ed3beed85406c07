"""The compiled engine's own work, counted.

How many events the engine handles per delivered word — the same on a
2-router and on a 23-router path — how many model methods it calls
whatever the word count, that an idle configured fabric costs it no
events, and that a use-case switch beside live traffic is engine time.
"""

from __future__ import annotations

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork, OnlineConnectionManager
from repro.core.config_network import ConfigModule
from repro.core.config_port import ConfigPort
from repro.core.config_protocol import ConfigDecoder
from repro.params import daelite_parameters
from repro.sim.kernel import VECTOR_MODE
from repro.topology import build_mesh, ni_name
from repro.traffic import CbrGenerator, CheckingSink, random_traffic_pattern


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
        back to naive stepping, no component is evaluated, no
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
