"""The compiled engine's own work, counted.

How many events the engine handles per delivered word — the same on a
2-router and on a 23-router path, and fewer still on the benchmark's
12x12 fabric — which events come back when a fold's precondition is
false, how many model methods it calls whatever the word count, that an
idle configured fabric costs it no events, and that a use-case switch
beside live traffic is engine time.  And how many ops its proof
artifact holds on that fabric: each phase-independent op once.  And
what setting that fabric up, proving it and running it once cost in
schedule images, lowerings and engines built: the prover builds none,
and neither does a set-up wait with no traffic, which reads no register.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.alloc import ConnectionRequest, MulticastRequest, SlotAllocator
from repro.core import DaeliteNetwork, OnlineConnectionManager
from repro.core import network as network_module
from repro.core.config_network import ConfigModule
from repro.core.config_port import ConfigPort
from repro.core.config_protocol import ConfigDecoder
from repro.errors import SimulationError
from repro.params import daelite_parameters
from repro.sim import compiled, lowering
from repro.sim.compiled import lower_network
from repro.sim.kernel import VECTOR_MODE, CompileRefusal, Kernel
from repro.sim.lowering import (
    OP_NAMES,
    LoweredArtifacts,
    LoweredOp,
    _render_trajectory,
)
from repro.staticcheck import prove_network
from repro.topology import ConfigTree, build_mesh, ni_name
from repro.traffic import CbrGenerator, CheckingSink, random_traffic_pattern

from ..conftest import other_element_packet
from ..differential import plant


def benchmark_fabric(periods=(61, 67, 71, 73, 79)):
    """The benchmark's fabric shape, built through the library: a 12x12
    mesh, 48 flow-controlled connections and 4 three-leaf multicast
    trees, each stream fed by a CBR generator at one of ``periods``
    (by default the coprime 61/67/71/73/79, which never repeat) and
    drained by a sink per destination.
    Returns the network and its streams, ``(label, source NI, source
    channel, [(destination NI, channel), ...])``."""
    mesh = build_mesh(12, 12)
    params = daelite_parameters(slot_table_size=32, config_word_bits=10)
    nis = [element.name for element in mesh.nis if element.name != "NI00"]
    allocator = SlotAllocator(topology=mesh, params=params)
    connections = [
        allocator.allocate_connection(request)
        for request in random_traffic_pattern(
            nis, 48, seed=2026, slots_min=1, slots_max=2
        )
    ]
    rng = random.Random(2026)
    trees = []
    for index in range(4):
        src, *leaves = rng.sample(nis, 4)
        trees.append(
            allocator.allocate_multicast(
                MulticastRequest(f"tree{index}", src, tuple(leaves), slots=2)
            )
        )
    net = DaeliteNetwork(
        mesh, params, host_ni="NI00", kernel_mode=VECTOR_MODE
    )
    streams = []
    for connection in connections:
        handle = net.configure(connection)
        forward = connection.forward
        streams.append(
            (
                connection.label,
                forward.src_ni,
                handle.forward.src_channel,
                [(forward.dst_ni, handle.forward.dst_channel)],
            )
        )
    for tree in trees:
        handle = net.configure_multicast(tree)
        streams.append(
            (
                tree.label,
                tree.src_ni,
                handle.src_channel,
                [(leaf, handle.dst_channels[leaf]) for leaf in tree.dst_nis],
            )
        )
    for index, (label, src, channel, leaves) in enumerate(streams):
        net.kernel.add(
            CbrGenerator(
                f"gen.{label}",
                net.ni(src).injector(channel, label),
                period=periods[index % len(periods)],
            )
        )
        for dst, dst_channel in leaves:
            net.kernel.add(
                CheckingSink(
                    f"sink.{label}.{dst}",
                    net.ni(dst).receiver(dst_channel),
                    words_per_cycle=2,
                    stats=net.stats,
                )
            )
    return net, streams


class TestEngineWork:
    #: Per delivered word: the generator firing, the source's slot (the
    #: word's link entry is recorded at its launch), the arrival, the
    #: sink's drain (the credit-only visit of the idle reverse channel
    #: is folded into it), and that credit's arrival.
    EVENTS_PER_WORD = 5
    #: Per connection: the link entry of its first word, which opens
    #: the connection's ledger column.
    EVENTS_PER_CONNECTION = 1
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

    def run_one_flow(self, width, height, words=WORDS, backlog=0):
        """One flow-controlled CBR flow corner to corner, stepped by the
        engine until every word is delivered and every credit is home;
        returns ``(net, engine, words delivered)``.  ``backlog`` words
        queued on the reverse channel outlast its credits, so its source
        always has a word queued when the sink drains."""
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
        handle = net.configure(connection)
        net.run_until_configured(handle)
        for payload in range(backlog):
            net.ni(dst).submit(handle.reverse.src_channel, payload, "back")
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
            == self.EVENTS_PER_WORD * self.WORDS + self.EVENTS_PER_CONNECTION
        )
        assert 0 < near.model_calls == far.model_calls <= self.BOUND

    def test_model_calls_do_not_depend_on_word_count(self):
        """The cost model as an inequality: per word the engine calls no
        model method at all — what it calls is bounded by the
        connections and destinations, for 40 words and for 120."""
        _, short, short_words = self.run_one_flow(2, 1)
        _, longer, longer_words = self.run_one_flow(2, 1, 3 * self.WORDS)
        assert (short_words, longer_words) == (self.WORDS, 3 * self.WORDS)
        assert (
            longer.events_handled
            == self.EVENTS_PER_WORD * longer_words + self.EVENTS_PER_CONNECTION
        )
        assert 0 < short.model_calls == longer.model_calls <= self.BOUND

    def test_first_word_keeps_its_link_entry_event(self):
        """The entry fold's precondition driven false: a connection's
        first word has no ledger column to record into at its launch,
        so its link entry is an event (and ``record_injection`` opens
        the column); the words after it have none."""
        _, one, one_word = self.run_one_flow(2, 1, 1)
        _, two, two_words = self.run_one_flow(2, 1, 2)
        assert (one_word, two_words) == (1, 2)
        assert one.events_handled == self.EVENTS_PER_WORD + 1
        assert two.events_handled - one.events_handled == self.EVENTS_PER_WORD

    def test_queued_reverse_words_keep_the_credit_visit(self):
        """The credit fold's precondition driven false: the reverse
        channel's source always has a word queued, so each drain arms
        its slot owner, which visits to return the credit — one event
        more per word than the folded launch."""
        backlog = 3 * self.WORDS
        _, short, short_words = self.run_one_flow(2, 1, backlog=backlog)
        _, longer, longer_words = self.run_one_flow(
            2, 1, 2 * self.WORDS, backlog=backlog
        )
        assert (short_words, longer_words) == (self.WORDS, 2 * self.WORDS)
        assert longer.events_handled - short.events_handled == (
            self.EVENTS_PER_WORD + 1
        ) * self.WORDS

    #: ``events_handled / words delivered`` on the benchmark's fabric
    #: (6.18 before the link entry and the credit-only slot visit were
    #: folded into the launches that fix them).
    FABRIC_EVENTS_PER_WORD = 4.6

    def test_benchmark_fabric_events_and_model_calls(self):
        """The benchmark's fabric shape (:func:`benchmark_fabric`) fed at
        the coprime periods 61/67/71/73/79, so every cycle is stepped.
        A multicast word is one firing, slot and launch for three
        deliveries; a unicast word pays for its credit's arrival.  Model
        calls stay within two per connection plus destination."""
        net, streams = benchmark_fabric()
        net.run(1000)
        engine = net.kernel._engine

        def delivered():
            return sum(
                ledger.ejected for ledger in net.stats.connections.values()
            )

        events, words = engine.events_handled, delivered()
        net.run(4000)
        assert net.kernel._engine is engine
        stats = net.kernel.kernel_stats()
        assert stats["compile_fallbacks"] == {}
        assert stats["replayed_epochs"] == 0
        words = delivered() - words
        assert words > 3000
        assert (
            engine.events_handled - events
            <= self.FABRIC_EVENTS_PER_WORD * words
        )
        destinations = sum(len(leaves) for *_, leaves in streams)
        assert engine.model_calls <= 2 * (len(streams) + destinations)

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


class TestRunBoundaryWork:
    """What an engine run's entry costs on the benchmark fabric with its
    flows, as counts: the registers it reads and the owners it builds.
    A run that follows the same engine's exit reads only the registers
    the kernel's door (``Kernel.write_register``) noted since; a cycle
    the stepped kernels ran in between makes it read every one; an
    owner is built only for an NI whose channel endpoints changed."""

    @pytest.fixture
    def net(self):
        net, _ = benchmark_fabric()
        net.run(200)
        return net

    @staticmethod
    def entry_work(monkeypatch, net, between=None):
        """``(registers read, owners built)`` by the ``net.run(1)`` that
        follows ``between(net)``; the engine is the one already
        running."""
        engine = net.kernel._engine
        counts = Counter()

        def read(register):
            counts["reads"] += 1
            return register.q

        class Owner(compiled._Owner):
            __slots__ = ()

            def __init__(self, *args):
                counts["owners"] += 1
                super().__init__(*args)

        monkeypatch.setattr(compiled, "_Q", read)
        monkeypatch.setattr(compiled, "_Owner", Owner)
        if between is not None:
            between(net)
        counts.clear()
        net.run(1)
        assert net.kernel._engine is engine
        return counts["reads"], counts["owners"]

    @staticmethod
    def write_a_phit_back(net):
        """The door, writing a register that holds a phit its own value."""
        engine = net.kernel._engine
        rid = next(iter(engine._cur))
        net.kernel.write_register(engine.regs[rid], engine.regs[rid].q)

    @staticmethod
    def step_a_packet_span(net):
        """Cycles the stepped kernel runs while the engine stays cached:
        a packet for an element the network does not have rides the
        word-level tree, and exactly its span — its activation to its
        request's finish — is stepped.  It applies nothing, so the
        schedule token stays."""
        stepped = net.kernel.active_cycles
        request = net.config_module.submit(
            other_element_packet(net), net.kernel.cycle
        )
        net.wait_configured([request])
        span = request.finished_at - request.started_at + 1
        assert net.kernel.active_cycles == stepped + span > stepped + 1

    def test_second_run_reads_nothing_and_builds_no_owner(
        self, net, monkeypatch
    ):
        assert self.entry_work(monkeypatch, net) == (0, 0)

    def test_one_door_write_is_one_read(self, net, monkeypatch):
        assert self.entry_work(monkeypatch, net, self.write_a_phit_back) == (
            1,
            0,
        )

    def test_a_stepped_cycle_reads_every_register(self, net, monkeypatch):
        engine = net.kernel._engine
        every = len(engine.regs) + len(engine.other_regs)
        assert every > 2000
        assert self.entry_work(monkeypatch, net, self.step_a_packet_span) == (
            every,
            0,
        )

    def test_a_channel_change_rebuilds_its_nis_owners_only(
        self, net, monkeypatch
    ):
        engine = net.kernel._engine
        plan = engine.owner_plans[0]
        ni = plan.ni
        spare = max(ni.source_channels) + 1
        owned = sum(
            1
            for other in engine.owner_plans
            if other.ni is ni and other.channel in ni.source_channels
        )
        assert owned >= 1
        assert self.entry_work(
            monkeypatch, net, lambda net: ni.source_channel(spare)
        ) == (0, owned)

    def test_forgetful_door_is_killed(self, net, monkeypatch):
        """A door that writes without noting: the entry misses the
        write (and would run past whatever it put in the register)."""
        plant(
            monkeypatch,
            "        self.written[register] = None\n",
            "",
            owner=Kernel,
            method="write_register",
        )
        reads, _ = self.entry_work(monkeypatch, net, self.write_a_phit_back)
        assert reads == 0

    def test_entry_ignoring_stepped_cycles_is_killed(self, net, monkeypatch):
        """An entry that trusts its own exit however many cycles the
        stepped kernel ran since reads only what the door noted —
        nothing — and resumes from the phits of its exit, which the
        packet's span has moved off their trajectories' phase."""
        plant(
            monkeypatch,
            "self._exited_at == kernel.active_cycles",
            "self._exited_at >= 0",
            method="_import_registers",
        )
        with pytest.raises(SimulationError, match="lost track of a phit"):
            self.entry_work(monkeypatch, net, self.step_a_packet_span)


class TestTrafficFreeWaitWork:
    """What a set-up wait with no traffic costs, as counts: once the
    data plane has been found empty, each further wait builds no
    engine, takes no schedule image, lowers nothing and reads no
    register — the emptiness test reads what changed since it last
    held (the door's writes, the NIs a word was submitted to), and the
    config plane runs alone."""

    WAITS = 8

    def count(self, monkeypatch, mutant=None):
        """Counts over ``WAITS`` set-ups after a first one; ``mutant``
        is ``(original, mutant)`` planted in ``data_plane_empty``."""
        params = daelite_parameters(slot_table_size=16, config_word_bits=9)
        mesh = build_mesh(6, 6)
        net = DaeliteNetwork(mesh, params, kernel_mode=VECTOR_MODE)
        allocator = SlotAllocator(topology=mesh, params=params)
        nis = [element.name for element in mesh.nis if element.name != "NI00"]
        first, *rest = [
            allocator.allocate_connection(request)
            for request in random_traffic_pattern(
                nis, self.WAITS + 1, seed=2026, slots_min=1, slots_max=2
            )
        ]
        net.configure(first)
        counts = Counter()

        def read(register):
            counts["reads"] += 1
            return register.q

        def count(owner, name, key):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        monkeypatch.setattr(compiled, "_Q", read)
        count(compiled, "_schedule_image", "images")
        count(compiled, "_lower_schedule", "lowerings")
        count(compiled.CompiledEngine, "__init__", "engines")
        if mutant is not None:
            plant(
                monkeypatch,
                *mutant,
                owner=compiled.NetworkProvider,
                method="data_plane_empty",
            )
        before = net.kernel.kernel_stats()
        for connection in rest:
            net.configure(connection)
        after = net.kernel.kernel_stats()
        cycles = after["cycle"] - before["cycle"]
        assert cycles > 0
        assert (
            after["config_plane_cycles"] - before["config_plane_cycles"]
            == cycles
        )
        return dict(counts)

    def test_waits_build_lower_and_read_nothing(self, monkeypatch):
        assert self.count(monkeypatch) == {}

    def test_a_test_reading_every_register_each_wait_is_killed(
        self, monkeypatch
    ):
        mutant = ("if empty_at == now:", "if False:")
        assert self.count(monkeypatch, mutant)["reads"] > 0


class TestReplayBoundaryWork:
    """What a replay boundary costs on the benchmark fabric run at one
    generator period (the ``fabric_replay`` workload's shape), as
    counts over slices that each cross one boundary and replay from
    it: the mesh-wide snapshots taken and the times the schedule image
    is hashed.  A boundary snapshots the mesh once, to load the
    engine's template for its signature, and never takes the schedule
    image: templates are the engine's own, keyed by signature alone."""

    SLICES = 8
    SLICE = 100_000

    @staticmethod
    def boundary_work(monkeypatch):
        """``(counts, kernel stats before, kernel stats after)`` over
        :attr:`SLICES` slices of the replaying fabric, once its engine
        stored its template; counts are of ``_signature`` calls (the
        boundaries probed), ``_snapshot`` calls and schedule-image
        hashes."""
        counts = Counter()

        class Image(tuple):
            def __hash__(self):
                counts["image hashes"] += 1
                return super().__hash__()

        image = compiled._schedule_image
        monkeypatch.setattr(
            compiled, "_schedule_image", lambda network: Image(image(network))
        )
        for name, key in (("_signature", "boundaries"), ("_snapshot", "snapshots")):
            original = getattr(compiled.CompiledEngine, name)

            def counted(*args, _original=original, _key=key):
                counts[_key] += 1
                return _original(*args)

            monkeypatch.setattr(compiled.CompiledEngine, name, counted)
        net, _ = benchmark_fabric(periods=(64,))
        net.run(4096)
        before = net.kernel.kernel_stats()
        assert before["regime_cache_stores"] == 1
        counts.clear()
        for _ in range(TestReplayBoundaryWork.SLICES):
            net.run(TestReplayBoundaryWork.SLICE)
        return counts, before, net.kernel.kernel_stats()

    def test_one_snapshot_per_boundary_and_no_image_hash(self, monkeypatch):
        counts, before, after = self.boundary_work(monkeypatch)
        replayed = after["replayed_cycles"] - before["replayed_cycles"]
        assert replayed >= self.SLICES * (self.SLICE - 2 * 64)
        assert after["replay_refusals"] == {}
        assert counts["boundaries"] == self.SLICES
        assert counts["snapshots"] <= counts["boundaries"]
        assert counts["image hashes"] == 0


def per_entry_rendering(lowered, wheel):
    """The lowering in the stable form with one :class:`LoweredOp`
    built for each ``(phase, register)`` entry, the form that rendered
    every static op once per wheel phase: the oracle the shared
    rendering must equal."""
    regs = lowered.regs

    def render(rid, op):
        kind = OP_NAMES[op[0]]
        if kind == "arrive":
            return LoweredOp(kind, rid, (), f"{op[1].name}.ch{op[2]}")
        if kind == "forward":
            return LoweredOp(kind, rid, tuple(op[1]), op[2].name)
        if kind == "move":
            return LoweredOp(kind, rid, (op[1],), regs[op[1]].name)
        return LoweredOp(kind, rid, (op[1],), op[2].name)

    phases = []
    for own in lowered.phase_ops:
        assert not own.keys() & lowered.static_ops.keys()
        table = {**lowered.static_ops, **own}
        phases.append(
            tuple(render(rid, table[rid]) for rid in sorted(table))
        )
    assert len(phases) == wheel
    return LoweredArtifacts(
        wheel=wheel,
        register_names=tuple(reg.name for reg in regs),
        phase_ops=tuple(phases),
        seeds=tuple(trajectory.seed for trajectory in lowered.trajectories),
        occupancy=tuple(lowered.occupancy),
        trajectories=tuple(
            _render_trajectory(trajectory)
            for trajectory in lowered.trajectories
        ),
    )


class TestProverWork:
    """What the benchmark's fabric costs to prove, as counts: the op
    table's phase-independent ops are rendered once, not once per wheel
    phase."""

    WHEEL = 64
    #: Op entries over the wheel's phases: 889 static ops (NI stage
    #: moves, NI output injects, crossbar sends) in every phase, and
    #: 2 728 forwards and arrivals, each in its own phase.
    ENTRIES = 64 * 889 + 2728
    DISTINCT = 889 + 2728

    @pytest.fixture(scope="class")
    def engine(self):
        net, _ = benchmark_fabric()
        assert prove_network(net) == []
        return lower_network(net)

    def test_static_ops_are_rendered_once(self, engine):
        artifacts = engine.lowered_artifacts()
        entries = [op for ops in artifacts.phase_ops for op in ops]
        assert (len(artifacts.phase_ops), len(entries)) == (
            self.WHEEL,
            self.ENTRIES,
        )
        assert len({id(op) for op in entries}) <= self.DISTINCT
        assert artifacts == per_entry_rendering(
            engine._lowered, engine.wheel
        )

    def test_forward_shared_by_site_is_killed(self, engine, monkeypatch):
        """A render that shares a router's forward op across phases by
        the router (its site) rather than by the register it consumes
        differs from the oracle; an unmutated plant renders equal."""
        expected = repr(per_entry_rendering(engine._lowered, engine.wheel))
        original = (
            "    for own in lowered.phase_ops:\n"
            "        ops = dict(static)\n"
            "        for rid, op in own.items():\n"
            "            ops[rid] = _render_op(rid, op, regs)\n"
        )
        mutant = (
            "    by_site: dict = {}\n"
            "    for own in lowered.phase_ops:\n"
            "        ops = dict(static)\n"
            "        for rid, op in own.items():\n"
            "            ops[rid] = _render_op(rid, op, regs)\n"
            "            if op[0] == _OP_FORWARD:\n"
            "                ops[rid] = by_site.setdefault(\n"
            "                    op[2].name, ops[rid]\n"
            "                )\n"
        )
        for fragment, same in ((original, True), (mutant, False)):
            plant(
                monkeypatch,
                original,
                fragment,
                owner=lowering,
                method="render_artifacts",
            )
            rendered = lowering.render_artifacts(
                engine._lowered, engine.wheel
            )
            assert (repr(rendered) == expected) is same


class DepthReads(dict):
    """A config tree's depth map that counts whole-tree scans."""

    def __init__(self, depth, counts):
        super().__init__(depth)
        self.counts = counts

    def values(self):
        self.counts["depth scans"] += 1
        return super().values()


def count_setup_work(monkeypatch):
    """``benchmark_fabric()``, ``prove_network`` on it and its first
    engine run, with per stage how often the schedule image was taken,
    a schedule lowered, a :class:`CompiledEngine` built and the config
    tree's depths scanned (stages doing none of one leave it out)."""
    counts = Counter()

    def count(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(compiled, "_schedule_image", "images")
    count(compiled, "_lower_schedule", "lowerings")
    count(compiled.CompiledEngine, "__init__", "engines")
    build_tree = network_module.build_config_tree

    def counted_tree(topology, host):
        tree = build_tree(topology, host)
        tree.depth = DepthReads(tree.depth, counts)
        return tree

    monkeypatch.setattr(network_module, "build_config_tree", counted_tree)
    stages = {}
    net, _ = benchmark_fabric()
    stages["setup"] = dict(counts)
    counts.clear()
    assert prove_network(net) == []
    stages["prove"] = dict(counts)
    counts.clear()
    net.run(1)
    stages["first run"] = dict(counts)
    return stages


class TestSetupWork:
    """What setting the benchmark's fabric up costs, as counts.  The
    set-up waits have no traffic beside them, so they run the config
    plane alone: no schedule image, lowering or engine; the prover
    lowers the programmed schedule once and builds no engine; the first
    run after the traffic is attached finds that lowering in the cache.
    No stage scans the config tree's depths: its height is taken once,
    when the tree is built."""

    EXPECTED = {
        "setup": {},
        "prove": {"images": 1, "lowerings": 1},
        "first run": {"images": 1, "engines": 1},
    }

    @pytest.fixture(scope="class")
    def stages(self):
        with pytest.MonkeyPatch.context() as monkeypatch:
            return count_setup_work(monkeypatch)

    def test_set_up_prove_and_first_run(self, stages):
        assert stages == self.EXPECTED

    def test_per_read_tree_height_is_killed(self, monkeypatch):
        """A tree height recomputed on every read scans the depths on
        every packet's flight window."""
        monkeypatch.setattr(
            ConfigTree,
            "max_depth",
            property(
                lambda tree: max(tree.depth.values()),
                lambda tree, value: None,
            ),
        )
        stages = count_setup_work(monkeypatch)
        assert stages["setup"]["depth scans"] > 0
        assert stages != self.EXPECTED

    def test_engine_building_prover_is_killed(self, monkeypatch):
        """A prover that builds an engine to render the lowering."""
        lower = compiled.lower_network

        def building(network):
            outcome = lower(network)
            if not isinstance(outcome, CompileRefusal):
                compiled.CompiledEngine(
                    outcome, network.changes.writes
                )
            return outcome

        monkeypatch.setattr(compiled, "lower_network", building)
        stages = count_setup_work(monkeypatch)
        assert stages["prove"]["engines"] == 1
        assert stages != self.EXPECTED
