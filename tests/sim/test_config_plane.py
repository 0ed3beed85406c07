"""A wait with no data plane runs the config plane alone, against naive.

In ``vector`` mode, while a network has no generator that is not done,
no phit in a register and no word or credit in any channel, the kernel
advances it by the config plane's own schedule (``ConfigEvents``) up to
the barriers an engine run would have — ``kernel.at`` callbacks, the
activation of a packet the word-level tree must carry, the finish of a
request with an ``on_complete`` hook — and builds no engine.  Every
scenario here is built on both kernels and compared in full through
:func:`tests.differential.lockstep`: plain set-up and tear-down waits,
a one-shard broker through a fault wave, and a network that gains a
generator, a submitted word or a register write between two waits and
inside one, where the config plane must hand over at that cycle.
Planted mutants of the ordering, the barriers and the emptiness test
must each be killed.
"""

from __future__ import annotations

import inspect
from typing import List, Tuple

import pytest

from repro.alloc import ConnectionRequest
from repro.core import DaeliteNetwork, OnlineConnectionManager
from repro.core.config_network import ConfigEvents, ConfigModule
from repro.params import daelite_parameters
from repro.service import (
    AvailabilityHarness,
    ChurnEngine,
    ConnectionBroker,
    ServiceConfig,
)
from repro.sim import compiled
from repro.sim.flit import Phit, Word
from repro.sim.kernel import VECTOR_MODE, Kernel
from repro.topology import build_mesh
from repro.traffic.generators import CbrGenerator
from repro.traffic.sinks import CheckingSink

from ..conftest import corrupted_span
from ..differential import lockstep, mutant_survives, plant

pytestmark = pytest.mark.differential

REQUESTS = [
    ConnectionRequest("a", "NI00", "NI22", forward_slots=1, reverse_slots=1),
    ConnectionRequest("b", "NI20", "NI02", forward_slots=2, reverse_slots=1),
    ConnectionRequest("c", "NI10", "NI12", forward_slots=1, reverse_slots=1),
]
#: Cycles into the second wait at which a ``kernel.at`` callback makes
#: something appear.
INSIDE = 5


class Bench:
    """A 3x3 mesh with an on-line manager and no traffic.  It unpacks as
    a lockstep build: network, generators, sinks and ``record``, what
    the drives note (compared between the builds)."""

    def __init__(self, mode, cooldown=4):
        params = daelite_parameters(
            slot_table_size=8, cooldown_cycles=cooldown
        )
        self.net = DaeliteNetwork(build_mesh(3, 3), params, kernel_mode=mode)
        self.manager = OnlineConnectionManager(self.net, max_op_cycles=20_000)
        self.gens: List[object] = []
        self.sinks: List[object] = []
        self.record: List[object] = []

    def __iter__(self):
        return iter((self.net, self.gens, self.sinks, self.record))


def spans(monkeypatch) -> List[Tuple[int, int]]:
    """Every ``[start, end)`` the config plane ran alone, from now on."""
    ran: List[Tuple[int, int]] = []
    run = compiled.NetworkProvider.run_config_plane

    def recorded(self, end):
        start = self.network.kernel.cycle
        try:
            run(self, end)
        finally:
            ran.append((start, self.network.kernel.cycle))

    monkeypatch.setattr(compiled.NetworkProvider, "run_config_plane", recorded)
    return ran


def waits(bench):
    """Set-ups and a tear-down, each one wait, and an idle stretch."""
    for request in REQUESTS:
        bench.manager.open_connection(request)
        bench.record.append(bench.net.kernel.cycle)
    bench.manager.close_connection("b")
    bench.record.append(bench.net.kernel.cycle)
    bench.net.run(500)


def test_waits_with_no_traffic_run_the_config_plane_alone():
    net = lockstep(Bench, [waits])
    stats = net.kernel.kernel_stats()
    assert net.kernel._engine is None
    assert stats["config_plane_cycles"] == stats["compiled_cycles"]
    assert stats["compiled_cycles"] == stats["cycle"] > 500
    assert stats["active_cycles"] == stats["evaluations"] == 0
    assert stats["lowering_cache_misses"] == stats["lowering_cache_hits"] == 0
    assert stats["config_packets_elided"] > 0


class Wave:
    """One seeded fault wave on a one-shard 2x2 fleet: a config-word
    corruption inside a set-up packet's flight window (one packet on
    the word-level tree) and two slot-table upsets (``kernel.at``
    callbacks).  It unpacks as a lockstep build whose ``record`` holds
    the churn digest after each drive."""

    def __init__(self, mode):
        broker = ConnectionBroker.mesh_fleet(
            config=ServiceConfig(shards=1), seed=2, kernel_mode=mode
        )
        self.net = broker.shards[0].network
        self.churn = ChurnEngine(broker, seed=2, tenants=6, max_live=5)
        self.harness = AvailabilityHarness(
            broker,
            self.churn,
            seed=2,
            fault_every_ops=60,
            fault_horizon=800,
            table_upsets=2,
            config_corrupts=1,
        )
        self.record: List[object] = []

    def __iter__(self):
        return iter((self.net, [], [], self.record))


def campaign(ops):
    def drive(wave):
        wave.harness.run_campaign(ops)
        wave.record.append(wave.churn.digest())

    return drive


def run_wave():
    return lockstep(Wave, [campaign(ops) for ops in (30, 70, 90, 120)])


def test_a_fault_wave_on_a_traffic_free_shard():
    net = run_wave()
    stats = net.kernel.kernel_stats()
    kinds = [event.kind for event in net.stats.faults]
    assert kinds.count("table_upset") == 2
    assert kinds.count("config_corrupt") == 1
    assert stats["config_packets_stepped"] == 1
    assert stats["compile_fallbacks"] == {}
    assert stats["active_cycles"] == corrupted_span(net)
    assert stats["lowering_cache_misses"] == stats["lowering_cache_hits"] == 0
    assert stats["config_plane_cycles"] > stats["cycle"] // 2


# -- something appears: the config plane hands over at that cycle ---------------


def appear(what, bench, cycle):
    """Make ``what`` appear on connection ``a`` at ``cycle``."""
    net = bench.net
    handle = bench.manager.connections["a"].handle
    source = net.ni("NI00")
    if what == "generator":
        gen = CbrGenerator(
            "gen",
            source.injector(handle.forward.src_channel, "a"),
            period=5,
            total_words=6,
            start_cycle=cycle + 3,
        )
        sink = CheckingSink(
            "sink",
            net.ni("NI22").receiver(handle.forward.dst_channel),
            stats=net.stats,
        )
        net.kernel.add(gen)
        net.kernel.add(sink)
        bench.gens.append(gen)
        bench.sinks.append(sink)
    elif what == "submit":
        source.submit_words(handle.forward.src_channel, [1, 2, 3], "a")
    else:
        stray = Word(payload=5, connection="stray", sequence=0, parity=0)
        net.kernel.write_register(source._stage_reg, Phit(word=stray))


def appearing(what, when, ran, seen):
    """Open ``a``; then open ``b`` with ``what`` appearing just before
    that wait (``between``) or ``INSIDE`` cycles into it (``inside``),
    and run on.  The vector build notes in ``seen`` the cycle it
    appeared at and where the config plane ran alone in the wait."""

    def first(bench):
        bench.manager.open_connection(REQUESTS[0])

    def second(bench):
        kernel = bench.net.kernel
        at = kernel.cycle + (INSIDE if when == "inside" else 0)
        if when == "inside":
            kernel.at(at, lambda cycle: appear(what, bench, cycle))
        else:
            appear(what, bench, at)
        ran.clear()
        bench.manager.open_connection(REQUESTS[1])
        bench.record.append(kernel.cycle)
        if kernel.mode == VECTOR_MODE:
            seen.update(at=at, spans=list(ran))

    return [first, second, 200]


@pytest.mark.parametrize("when", ["between", "inside"])
@pytest.mark.parametrize("what", ["generator", "submit", "register"])
def test_what_appears_hands_over_at_its_cycle(monkeypatch, what, when):
    ran = spans(monkeypatch)
    seen = {}
    lockstep(Bench, appearing(what, when, ran, seen))
    at = seen["at"]
    # No stretch of the config plane alone covers the cycle the
    # appearance is there in: an engine (or, for a callback, the
    # stepped kernel) runs it.
    assert not any(start <= at < end for start, end in seen["spans"])
    if when == "inside":
        # Up to the callback, the wait was the config plane's alone.
        assert any(end == at for _start, end in seen["spans"])


# -- the rules bite: planted mutants ------------------------------------------------


def module_turn_before_deposits() -> Tuple[str, str]:
    """``ConfigEvents.run``'s deposit block and its module-turn block,
    swapped."""
    source = inspect.getsource(ConfigEvents.run)
    start = source.index("        ports = due.pop(cycle, None)\n")
    middle = source.index("        turn = self._turn\n")
    end = source.index("        self.next = ")
    return (
        source[start:end],
        source[middle:end] + source[start:middle],
    )


class TestPlantedMutantsAreKilled:
    def test_a_deposit_applied_one_cycle_late(self, monkeypatch):
        plant(
            monkeypatch,
            "self._due.setdefault(due, [])",
            "self._due.setdefault(due + 1, [])",
            owner=ConfigEvents,
            method="_expect",
        )
        assert not mutant_survives(lambda: lockstep(Bench, [waits]))

    def test_a_skipped_barrier_callback(self, monkeypatch):
        plant(
            monkeypatch,
            "self._next_callback_cycle(),",
            "None,",
            owner=Kernel,
            method="_barrier",
        )
        assert not mutant_survives(run_wave)
        assert not mutant_survives(
            lambda: test_what_appears_hands_over_at_its_cycle(
                monkeypatch, "submit", "inside"
            )
        )

    def test_a_barrier_blind_to_the_packet_on_the_tree(self, monkeypatch):
        """``next_stepped_cycle`` without its ``on_tree`` clause: inside
        the packet's span the kernel probes the engine, which refuses
        (``config_active``), and falls back for the rest of the call —
        the count gate sees the fallback and the cycles past the span."""
        plant(
            monkeypatch,
            "        if self.on_tree:\n            return cycle\n",
            "",
            owner=ConfigModule,
            method="next_stepped_cycle",
        )
        assert not mutant_survives(test_a_fault_wave_on_a_traffic_free_shard)

    def test_an_emptiness_test_blind_to_a_queued_word(self, monkeypatch):
        plant(
            monkeypatch,
            "any(source.queue for source in ni.source_channels.values())",
            "False",
            owner=compiled,
            method="_holds_work",
        )
        assert not mutant_survives(
            lambda: test_what_appears_hands_over_at_its_cycle(
                monkeypatch, "submit", "between"
            )
        )

    def test_the_module_turn_before_the_deposits(self, monkeypatch):
        """With no cool-down the module's finishing turn falls in the
        cycle of the deepest element's deposit: run first, it finds
        that deposit never decoded."""
        plant(
            monkeypatch,
            *module_turn_before_deposits(),
            owner=ConfigEvents,
            method="run",
        )
        assert not mutant_survives(
            lambda: lockstep(lambda mode: Bench(mode, cooldown=0), [waits])
        )

