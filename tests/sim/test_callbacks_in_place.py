"""``kernel.at`` callbacks run in place under live traffic, against naive.

In ``vector`` mode a callback runs at the start of its cycle and the
engine then runs that cycle: no cycle is stepped for it.  A callback is
outside code under the contract of code between two ``step`` calls, so
each scenario here schedules callbacks that do one thing the contract
covers — write a data register through the kernel's door, submit a
word, clear a slot-table entry on a live path (a ``SlotTableUpset``),
add a generator — on a mesh with live flows, some inside a set-up
wait, and compares the two kernels in full through
:func:`tests.differential.lockstep`.  A planted mutant that runs a
cycle's callbacks after the engine's run of it must die in every
scenario.
"""

from __future__ import annotations

from typing import Any, List

import pytest

from repro.alloc import ConnectionRequest
from repro.core import DaeliteNetwork, OnlineConnectionManager
from repro.faults import FaultInjector, FaultPlan, SlotTableUpset
from repro.params import daelite_parameters
from repro.sim.flit import Phit
from repro.sim.kernel import CompileRefusal, Kernel
from repro.topology import build_mesh
from repro.traffic.generators import CbrGenerator
from repro.traffic.sinks import CheckingSink

from ..differential import lockstep, mutant_survives, plant

pytestmark = pytest.mark.differential

FLOWS = (
    ConnectionRequest("a", "NI00", "NI22", forward_slots=2, reverse_slots=1),
    ConnectionRequest("b", "NI20", "NI02", forward_slots=1, reverse_slots=1),
)
#: Opened with no generator; the ``generator`` callback gives it one.
SPARE = ConnectionRequest("c", "NI10", "NI12", forward_slots=1, reverse_slots=1)
#: Opened by a wait that some callbacks fall inside.
LATE = ConnectionRequest("d", "NI01", "NI21", forward_slots=1, reverse_slots=1)
#: Cycles after scheduling at which the callbacks fall: consecutive
#: ones, then spread over the plain run and the set-up wait after it.
OFFSETS = (3, 4, 5, 6, 17, 29, 46, 71, 88, 103)
#: Cycles run before the set-up wait.
BEFORE_WAIT = 60


class Bench:
    """A 3x3 mesh with two live flows and an idle spare connection.  It
    unpacks as a lockstep build: network, generators, sinks and
    ``record``, what the callbacks note (compared between the builds)."""

    def __init__(self, mode: str) -> None:
        params = daelite_parameters(slot_table_size=8)
        self.net = DaeliteNetwork(build_mesh(3, 3), params, kernel_mode=mode)
        self.manager = OnlineConnectionManager(self.net, max_op_cycles=20_000)
        self.gens: List[Any] = []
        self.sinks: List[Any] = []
        self.record: List[Any] = []
        for request in FLOWS:
            self.attach(request, self.net.kernel.cycle)
        self.manager.open_connection(SPARE)
        self.net.run(200)

    def attach(self, request: ConnectionRequest, start: int) -> None:
        """Open ``request`` unless it is, and run a generator from
        ``start`` and a checking sink on its forward channel."""
        if request.label not in self.manager.connections:
            self.manager.open_connection(request)
        handle = self.manager.connections[request.label].handle
        gen = CbrGenerator(
            f"gen.{request.label}",
            inject=self.net.ni(request.src_ni).injector(
                handle.forward.src_channel, request.label
            ),
            period=3,
            start_cycle=start,
        )
        sink = CheckingSink(
            f"sink.{request.label}",
            receive=self.net.ni(request.dst_ni).receiver(
                handle.forward.dst_channel
            ),
            words_per_cycle=2,
            stats=self.net.stats,
        )
        self.net.kernel.add(gen)
        self.net.kernel.add(sink)
        self.gens.append(gen)
        self.sinks.append(sink)

    def __iter__(self):
        return iter((self.net, self.gens, self.sinks, self.record))


def door_write(bench: Bench) -> None:
    """At each offset, the first register holding a word is written
    idle through the door: the word is lost in flight."""
    kernel = bench.net.kernel

    def clear_a_word(cycle: int) -> None:
        register = next(
            (
                register
                for register in kernel.all_registers()
                if isinstance(register.q, Phit) and register.q.word is not None
            ),
            None,
        )
        if register is not None:
            kernel.write_register(register, register.idle)
        bench.record.append((cycle, getattr(register, "name", None)))

    for offset in OFFSETS:
        kernel.at(kernel.cycle + offset, clear_a_word)


def submit(bench: Bench) -> None:
    """At each offset, a word submitted on flow ``a`` beside its
    generator's."""
    kernel = bench.net.kernel
    record = bench.manager.connections["a"]
    ni = bench.net.ni(record.request.src_ni)
    channel = record.handle.forward.src_channel

    def submit_a_word(cycle: int) -> None:
        ni.submit_words(channel, [cycle], "a")

    for offset in OFFSETS:
        kernel.at(kernel.cycle + offset, submit_a_word)


def upset(bench: Bench) -> None:
    """Occupied router slot-table entries — all on the flows' paths —
    cleared by an armed injector's callbacks, each at the first cycle
    from its offset on that indexes the entry's slot, so the callback
    decides whether that cycle's phit is forwarded.  The schedule then
    drops words, which the engine refuses (``inconsistent_schedule``)."""
    net = bench.net
    params = net.params
    now = net.kernel.cycle
    entries = [
        (name, output, slot)
        for name, router in sorted(net.routers.items())
        for output in range(router.slot_table.ports)
        for slot in sorted(router.slot_table.occupied_slots(output))
    ]
    specs = []
    for (name, output, slot), offset in zip(entries, OFFSETS):
        cycle = now + offset
        while params.lagged_slot_of_cycle(cycle) != slot:
            cycle += 1
        specs.append(SlotTableUpset(name, output, slot, cycle))
    assert len(specs) == len(OFFSETS)
    FaultInjector(net, FaultPlan(seed=0, specs=tuple(specs))).arm()


def generator(bench: Bench) -> None:
    """At the first offset, the spare connection gets a generator and a
    sink, the generator firing from that very cycle."""
    kernel = bench.net.kernel
    kernel.at(
        kernel.cycle + OFFSETS[0], lambda cycle: bench.attach(SPARE, cycle)
    )


def open_late(bench: Bench) -> None:
    bench.manager.open_connection(LATE)
    bench.record.append(bench.net.kernel.cycle)


SCENARIOS = {
    "door_write": door_write,
    "submit": submit,
    "upset": upset,
    "generator": generator,
}


def run(scenario: str) -> DaeliteNetwork:
    return lockstep(
        Bench, [SCENARIOS[scenario], BEFORE_WAIT, open_late, 300]
    )


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_callbacks_run_in_place_and_match_naive(scenario):
    """No cycle is stepped for a callback: only a schedule an upset left
    dropping words refuses the engine."""
    net = run(scenario)
    stats = net.kernel.kernel_stats()
    if scenario == "upset":
        assert set(stats["compile_fallbacks"]) == {
            CompileRefusal.INCONSISTENT_SCHEDULE
        }
        assert "table_upset" in [event.kind for event in net.stats.faults]
    else:
        assert stats["compile_fallbacks"] == {}
        assert stats["active_cycles"] == 0
        assert stats["compiled_cycles"] == stats["cycle"]


#: The cycle's callbacks run after the engine's run of that cycle.
AFTER_THE_RUN = """\
            if self.cycle in self._callbacks:
                due = self.cycle
                self._run_engine(provider, due + 1)
                self.cycle = due
                self._run_callbacks()
                self.cycle = due + 1
"""


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_callbacks_after_the_engine_run_are_killed(monkeypatch, scenario):
    plant(
        monkeypatch,
        "            self._run_callbacks()\n",
        AFTER_THE_RUN,
        owner=Kernel,
        method="_step_compiled",
    )
    assert not mutant_survives(lambda: run(scenario))
