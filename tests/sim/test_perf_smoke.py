"""Perf-regression smoke test for the simulation kernel.

Bounds simulated cycles/second on a 4x4 mesh under a mixed workload
(periodic bursts with idle gaps) so a future change cannot silently
regress the kernel by an order of magnitude.  The bound is set far
below what the compiled engine achieves on a modest machine, so it
stays robust to slow CI runners while still catching
order-of-magnitude regressions.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.core.credits import DestChannel, SourceChannel
from repro.params import daelite_parameters
from repro.sim.flit import Phit, Word, new_word
from repro.sim.kernel import NAIVE_MODE, VECTOR_MODE, Register
from repro.sim.link import Link, NarrowLink
from repro.sim.stats import ConnectionStats, FaultEvent
from repro.sim.trace import TraceEvent
from repro.topology import build_mesh, ni_name
from repro.traffic.generators import CbrGenerator
from repro.traffic.sinks import CheckingSink

#: Minimum simulated cycles per wall-clock second (``vector`` mode).
MIN_CYCLES_PER_SECOND = 8_000
RUN_CYCLES = 30_000


@pytest.mark.slow
def test_engine_cycles_per_second_on_4x4_mesh():
    params = daelite_parameters(slot_table_size=16)
    mesh = build_mesh(4, 4)
    allocator = SlotAllocator(topology=mesh, params=params)
    dst = ni_name(3, 3)
    connection = allocator.allocate_connection(
        ConnectionRequest(
            "perf", "NI00", dst, forward_slots=2, reverse_slots=1
        )
    )
    # The smoke test targets the fast path explicitly, independent of
    # REPRO_KERNEL_MODE — naive-mode CI legs exercise correctness, not
    # this throughput bound.
    net = DaeliteNetwork(mesh, params, kernel_mode=VECTOR_MODE)
    handle = net.configure(connection)
    base = net.kernel.cycle
    src_channel = handle.forward.src_channel
    dst_channel = handle.forward.dst_channel
    for start in range(0, RUN_CYCLES, 100):
        net.kernel.at(
            base + start,
            lambda cycle: net.ni("NI00").submit_words(
                src_channel, list(range(4))
            ),
        )
        net.kernel.at(
            base + start + 60,
            lambda cycle: net.ni(dst).receive(dst_channel),
        )
    started = time.perf_counter()
    net.run(RUN_CYCLES)
    elapsed = time.perf_counter() - started
    cycles_per_second = RUN_CYCLES / elapsed
    # The workload genuinely ran, on the engine between callbacks.
    assert net.stats.delivered_words(f"NI00.ch{src_channel}") > 0
    assert net.kernel.compiled_cycles > 0
    assert cycles_per_second >= MIN_CYCLES_PER_SECOND, (
        f"kernel throughput regressed: {cycles_per_second:,.0f} cycles/s "
        f"< {MIN_CYCLES_PER_SECOND:,} on a 4x4 mesh"
    )


#: One steady CBR flow per generator period, corner to corner.
FLOW_ENDPOINTS = [("NI00", ni_name(3, 3)), (ni_name(3, 0), ni_name(0, 3))]


def _steady_state_cps(mode: str, run_cycles: int, periods=(20,)) -> float:
    """Cycles/second of ``mode`` on steady CBR flows (4x4 mesh), one
    flow per entry of ``periods``."""
    params = daelite_parameters(slot_table_size=16)
    mesh = build_mesh(4, 4)
    allocator = SlotAllocator(topology=mesh, params=params)
    net = DaeliteNetwork(mesh, params, kernel_mode=mode)
    sinks = []
    for index, period in enumerate(periods):
        src, dst = FLOW_ENDPOINTS[index]
        label = f"perf{index}"
        handle = net.configure(
            allocator.allocate_connection(
                ConnectionRequest(
                    label, src, dst, forward_slots=2, reverse_slots=1
                )
            )
        )
        net.run_until_configured(handle)
        net.kernel.add(
            CbrGenerator(
                f"gen{index}",
                inject=net.ni(src).injector(
                    handle.forward.src_channel, label
                ),
                period=period,
            )
        )
        sinks.append(
            CheckingSink(
                f"sink{index}",
                receive=net.ni(dst).receiver(handle.forward.dst_channel),
                words_per_cycle=2,
                stats=net.stats,
            )
        )
        net.kernel.add(sinks[-1])
    net.run(500)  # settle into the periodic steady state
    # The replayed window lasts a few milliseconds; one full collection
    # of the garbage earlier tests left behind would outweigh it.
    gc.collect()
    started = time.perf_counter()
    net.run(run_cycles)
    elapsed = time.perf_counter() - started
    assert all(sink.clean for sink in sinks)
    assert net.stats.delivered_words("perf0") > 0
    return run_cycles / elapsed


@pytest.mark.slow
def test_kernel_mode_throughput_ordering():
    """Regression gate: engine >= naive throughput, and
    bulk replay >= the same engine stepping, with conservative floors.
    Ratios of cycles/s taken on the same machine in the same process
    are stable where absolute wall-clock is not — this cannot flake on
    a slow runner the way a time bound would.  The sides are measured
    round-robin (the two sides of each ratio back to back, every round)
    and compared best-of, so a host-speed regime change lands on both
    sides of a ratio instead of on one."""
    # The last two sides differ only in generator periods: 40/40 has a
    # steady period of 80 cycles and replays almost the whole window;
    # 37/41 has one of 24 272 (= lcm(16, 37, 41)), so its two probe
    # epochs outlast the window and every cycle is stepped.
    sides = {
        "naive": (NAIVE_MODE, 2_000, (20,)),
        "engine": (VECTOR_MODE, 8_000, (20,)),
        "replaying": (VECTOR_MODE, 40_000, (40, 40)),
        "stepping": (VECTOR_MODE, 40_000, (37, 41)),
    }
    best = dict.fromkeys(sides, 0.0)
    for _ in range(3):
        for name, side in sides.items():
            best[name] = max(best[name], _steady_state_cps(*side))
    assert best["engine"] >= 1.5 * best["naive"], (
        f"compiled engine no longer clearly beats naive: "
        f"{best['engine']:,.0f} vs {best['naive']:,.0f} cycles/s"
    )
    assert best["replaying"] >= 1.5 * best["stepping"], (
        f"bulk replay no longer clearly beats stepping: "
        f"{best['replaying']:,.0f} vs {best['stepping']:,.0f} cycles/s"
    )


#: Hot-path value classes that must never grow a per-instance dict.
SLOTTED_INSTANCES = [
    Word(payload=1, connection="c", sequence=0, parity=1),
    Phit(),
    Register("r"),
    SourceChannel(channel=0),
    DestChannel(channel=0),
    FaultEvent(cycle=0, category="detect", kind="k", site="s"),
    ConnectionStats(connection="c"),
    TraceEvent(cycle=0, component="c", category="k", message="m"),
    Link("l"),
    NarrowLink("n"),
]


def test_hot_path_classes_are_slotted():
    for instance in SLOTTED_INSTANCES:
        assert not hasattr(instance, "__dict__"), (
            f"{type(instance).__name__} grew a per-instance __dict__ — "
            f"the hot-path value classes are slotted for footprint and "
            f"attribute-access speed"
        )


def test_new_word_skips_the_dataclass_init(monkeypatch):
    """``flit.new_word``, the engine's per-firing word constructor,
    writes the slots directly: it never calls the frozen dataclass
    ``__init__`` (whose per-field ``object.__setattr__`` it saves), and
    what it builds is the slotted ``Word`` that ``__init__`` builds."""
    expected = Word(payload=7, connection="c", sequence=3, parity=1)
    init = Word.__init__
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Word, "__init__", counted)
    word = new_word(7, "c", 3, 1)
    assert calls == []
    assert type(word) is Word
    assert word == expected
    assert (word.payload, word.connection, word.sequence, word.parity) == (
        7,
        "c",
        3,
        1,
    )
    assert word.injected_at == -1
    assert not hasattr(word, "__dict__")
