"""Differential proof of the fault hook's flight-window refusal.

A :class:`~repro.faults.FaultInjector` config-link hook declares the
cycles it can act on; ``vector`` mode steps a configuration packet
through the word-level tree only when one of them falls inside the
packet's flight window ``[started_at, _flight_end]`` and delivers every
other packet to its addressees only.  The contract is the one of
``test_config_elision.py``, with faults armed: the fault log, slot
tables, NI channel registers, set-up history and ``kernel.cycle`` equal
the ``naive`` kernel's — wherever the fault is planned.

Fault cycles are aimed, not sprayed: a fault-free ``naive`` run with a
recording hook on every config link yields the cycle each link carried
each word and every packet's timeline; plans are then drawn on those
cycles, on the window's boundaries (``started_at``, the last word's
cycle, the deepest element's gap cycle, ``_busy_until``), one cycle
either side of each, and in stretches where nothing is in flight.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.alloc import ConnectionRequest
from repro.core import DaeliteNetwork, OnlineConnectionManager
from repro.core.config_network import (
    REFUSED_FAULT_HOOKS_ARMED,
    ConfigModule,
)
from repro.errors import AllocationError, ReproError
from repro.faults import FaultInjector
from repro.faults.spec import (
    ConfigWordCorrupt,
    ConfigWordDrop,
    FaultPlan,
    SlotTableUpset,
)
from repro.params import daelite_parameters
from repro.sim.kernel import NAIVE_MODE, VECTOR_MODE
from repro.topology import CONFIG_HOP_CYCLES, build_mesh, ni_name

from ..differential import network_image

pytestmark = pytest.mark.differential


# -- running one script --------------------------------------------------------


def run_script(mode, dims, host, cooldown, ops, specs, sends=None):
    """Drive ``ops`` through an :class:`OnlineConnectionManager` with
    ``specs`` armed from cycle 0 to the end; return (observables, net).

    A ``sends`` dict is filled, per config link, with the cycles the
    link carried a word — by a hand-made recording hook on every link
    (``naive`` only: such a hook declares nothing)."""
    net = DaeliteNetwork(
        build_mesh(*dims),
        daelite_parameters(slot_table_size=8, cooldown_cycles=cooldown),
        host_ni=host,
        kernel_mode=mode,
    )
    if sends is not None:
        for name, link in net.config_links.items():

            def recording(link, word, sent=sends.setdefault(name, [])):
                sent.append(net.kernel.cycle)
                return word

            link.fault_hook = recording
    manager = OnlineConnectionManager(net)
    injector = FaultInjector(net, FaultPlan(seed=0, specs=tuple(specs)))
    injector.arm()
    live, errors = [], []
    try:
        for index, (kind, arg, extra) in enumerate(ops):
            if kind == "open":
                try:
                    manager.open_connection(
                        ConnectionRequest(
                            f"c{index}",
                            arg[0],
                            arg[1],
                            forward_slots=extra,
                            reverse_slots=1,
                        )
                    )
                    live.append(f"c{index}")
                except AllocationError:
                    pass
            elif kind == "close" and arg < len(live):
                manager.close_connection(live.pop(arg))
            elif kind == "repair" and arg < len(live):
                manager.repair_connection(live[arg])
            elif kind == "run":
                net.run(arg)
        net.run(40)
    except ReproError as error:  # must then be the same error on both
        errors.append(f"{type(error).__name__}: {error}")
    finally:
        injector.disarm()
    observables = {
        "image": network_image(net),
        "setup_history": list(manager.setup_history),
        "teardown_history": list(manager.teardown_history),
        "recovery_history": list(manager.recovery_history),
        "errors": errors,
    }
    return observables, net


def windows_of(net):
    """``(started_at, length, flight_end)`` of every completed packet."""
    module = net.config_module
    return [
        (
            r.started_at,
            len(r.packet.words),
            module._flight_end(r.started_at, len(r.packet.words)),
        )
        for r in module.completed
    ]


def assert_window_contract(dims, host, cooldown, ops, specs):
    """``vector`` equals ``naive`` under ``specs``, and steps exactly
    the packets whose flight window holds a planned config-link cycle."""
    naive, net_n = run_script(NAIVE_MODE, dims, host, cooldown, ops, specs)
    engine, net = run_script(VECTOR_MODE, dims, host, cooldown, ops, specs)
    for key in naive:
        assert engine[key] == naive[key], f"{key} diverged from naive"
    cfg_cycles = {
        spec.cycle
        for spec in specs
        if isinstance(spec, (ConfigWordDrop, ConfigWordCorrupt))
    }
    touched = sum(
        any(start <= cycle <= end for cycle in cfg_cycles)
        for start, _, end in windows_of(net_n)
    )
    stats = net.kernel.kernel_stats()
    assert stats["config_packets_stepped"] == touched <= len(cfg_cycles)
    assert stats["config_elision_refusals"] == (
        {REFUSED_FAULT_HOOKS_ARMED: touched} if touched else {}
    )
    assert stats["config_packets_elided"] == (
        len(net.config_module.completed) - touched
    )
    return naive, net


# -- exhaustive: every cycle of one set-up -------------------------------------

SWEEP_OPS = (("open", ("NI00", "NI11"), 1),)


@lru_cache(maxsize=None)
def sweep_reference():
    """Fault-free timeline of :data:`SWEEP_OPS` on the 2x2 mesh: the
    packet windows, and the root and deepest leaf config links."""
    sends = {}
    _, net = run_script(NAIVE_MODE, (2, 2), "NI00", 4, SWEEP_OPS, (), sends)
    root = f"cfg.module->{net.config_tree.root}"
    leaf = max(
        (name for name in sends if name.startswith("cfg.")),
        key=lambda name: (sends[name][0], name),
    )
    return windows_of(net), root, leaf, sends


def sweep(make_spec, link_of):
    """Hold the contract with one fault planned at each of
    :func:`boundary_cycles` in turn."""
    _, root, leaf, _ = sweep_reference()
    link = {"root": root, "leaf": leaf}[link_of]
    for cycle in boundary_cycles():
        assert_window_contract(
            (2, 2), "NI00", 4, SWEEP_OPS, (make_spec(link, cycle),)
        )


def sweep_agrees(make_spec, link_of):
    """Whether :func:`sweep` holds (for the planted mutants)."""
    try:
        sweep(make_spec, link_of)
    except (AssertionError, ReproError):
        return False
    return True


def corrupt(link, cycle):
    return ConfigWordCorrupt(link, cycle, bit=cycle % 7)


def boundary_cycles():
    """Around the first three packets: every cycle a word rides the
    root or the deepest leaf link, plus both ends of every window."""
    windows, root, leaf, sends = sweep_reference()
    last = windows[2][2]
    cycles = {c for name in (root, leaf) for c in sends[name] if c <= last}
    for start, _, end in windows[:3]:
        cycles.update((start - 1, start, start + 1, end - 1, end, end + 1))
    return sorted(c for c in cycles if c >= 0)


def test_sweep_reference_is_the_documented_delay_line():
    """The aiming data is what the module's closed form says it is."""
    windows, root, leaf, sends = sweep_reference()
    depth = 4  # NI11 below host NI00 on the 2x2
    assert len(windows) == 6 and leaf == "cfg.R11->NI11"
    words = iter(sends[root])
    for start, length, end in windows:
        assert [next(words) for _ in range(length)] == list(
            range(start, start + length)
        )
        assert end == start + length + CONFIG_HOP_CYCLES * depth + 1 + 4
    assert sends[leaf] == [
        cycle + CONFIG_HOP_CYCLES * depth for cycle in sends[root]
    ]


@pytest.mark.parametrize("make_spec", [ConfigWordDrop, corrupt])
@pytest.mark.parametrize("link_of", ["root", "leaf"])
def test_every_boundary_cycle_of_a_setup(make_spec, link_of):
    sweep(make_spec, link_of)


# -- Hypothesis: open / close / repair sequences under aimed plans -------------


@st.composite
def scripts(draw):
    dims = draw(st.sampled_from([(2, 2), (3, 3)]))
    nis = [ni_name(x, y) for x in range(dims[0]) for y in range(dims[1])]
    pairs = st.lists(
        st.sampled_from(nis), min_size=2, max_size=2, unique=True
    )
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("open"), pairs, st.integers(1, 2)),
                st.tuples(st.just("close"), st.integers(0, 2), st.just(0)),
                st.tuples(st.just("repair"), st.integers(0, 2), st.just(0)),
                st.tuples(st.just("run"), st.integers(1, 60), st.just(0)),
            ),
            min_size=1,
            max_size=5,
        )
    )
    aims = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["drop", "corrupt", "upset"]),
                st.sampled_from(
                    ["word", "start", "last_word", "deep_gap", "busy", "idle"]
                ),
                st.integers(0, 10_000),  # which packet / word / link
                st.integers(-1, 1),
                st.integers(0, 6),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return {
        "dims": dims,
        "host": draw(st.sampled_from(nis)),
        "cooldown": draw(st.sampled_from([0, 4])),
        "ops": [("open", draw(pairs), 1), *ops],
        "aims": aims,
    }


def aimed_specs(net, sends, aims):
    """Resolve ``aims`` against the fault-free run ``net``."""
    windows = windows_of(net)
    links = sorted(name for name, sent in sends.items() if sent)
    routers = sorted(net.routers)
    gap = CONFIG_HOP_CYCLES * net.config_tree.max_depth + 1
    specs = []
    for kind, where, pick, delta, bit in aims:
        link = links[pick % len(links)]
        start, length, end = windows[pick % len(windows)]
        cycle = {
            "word": sends[link][pick % len(sends[link])],
            "start": start,
            "last_word": start + length - 1,
            "deep_gap": start + length + gap,
            "busy": end,
            "idle": net.kernel.cycle + pick % 50,
        }[where] + delta
        cycle = max(cycle, 0)
        if kind == "drop":
            specs.append(ConfigWordDrop(link, cycle))
        elif kind == "corrupt":
            specs.append(ConfigWordCorrupt(link, cycle, bit))
        else:
            specs.append(
                SlotTableUpset(
                    routers[pick % len(routers)], 0, bit % 8, cycle
                )
            )
    return specs


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script=scripts())
def test_aimed_fault_plans_match_naive(script):
    args = (
        script["dims"], script["host"], script["cooldown"], script["ops"]
    )
    sends = {}
    _, dry = run_script(NAIVE_MODE, *args, (), sends)
    assert_window_contract(*args, aimed_specs(dry, sends, script["aims"]))


# -- the differential bites: planted window mutants ----------------------------


class TestPlantedWindowMutantsAreKilled:
    def test_window_end_short_by_commit_latency(self, monkeypatch):
        refusal = ConfigModule._elision_refusal
        flight_end = ConfigModule._flight_end

        def short_window(self, request, cycle, hooks=None):
            with monkeypatch.context() as patch:
                patch.setattr(
                    ConfigModule,
                    "_flight_end",
                    lambda self, started_at, length: flight_end(
                        self, started_at, length
                    )
                    - self.commit_latency,
                )
                return refusal(self, request, cycle, hooks)

        monkeypatch.setattr(ConfigModule, "_elision_refusal", short_window)
        assert not sweep_agrees(ConfigWordDrop, "leaf")
        assert not sweep_agrees(corrupt, "leaf")

    def test_window_start_exclusive(self, monkeypatch):
        """``<`` for ``<=`` at the start: the word the module sends in
        the activation cycle itself is missed."""
        refusal = ConfigModule._elision_refusal
        monkeypatch.setattr(
            ConfigModule,
            "_elision_refusal",
            lambda self, request, cycle, hooks=None: refusal(
                self, request, cycle + 1, hooks
            ),
        )
        assert not sweep_agrees(ConfigWordDrop, "root")
        assert not sweep_agrees(corrupt, "root")

    def test_declared_cycles_miss_the_corrupt_specs(self, monkeypatch):
        make_cfg_hook = FaultInjector._make_cfg_hook

        def drops_only(self, specs):
            hook = make_cfg_hook(self, specs)
            hook.cycles = frozenset(
                spec.cycle
                for spec in specs
                if isinstance(spec, ConfigWordDrop)
            )
            return hook

        monkeypatch.setattr(FaultInjector, "_make_cfg_hook", drops_only)
        assert sweep_agrees(ConfigWordDrop, "root")
        assert not sweep_agrees(corrupt, "root")
        assert not sweep_agrees(corrupt, "leaf")
