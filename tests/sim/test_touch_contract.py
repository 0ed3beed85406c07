"""Knock-out proof that every shipped ``touch()`` is load-bearing.

The activity kernel caches ``next_evaluation`` answers; code that queues
work for a sleeping component from outside that component's own
``evaluate`` must ``touch()`` it.  Each shipped call site is disabled
here in turn, and the run must then be caught — by the strict-registers
wake-contract check, or, where strict mode cannot reach (it keeps config
packets on the stepped tree, so nothing is ever deposited), by the fast
kernel diverging from the naive one.  With every site intact the same
runs are clean, so a detection is the knock-out's doing.

A site is "a method during which ``touch()`` is called"; the knock-out
mutes ``Component.touch`` for the duration of that method only, so the
sites of one class are told apart.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path
from typing import Callable, Optional

import pytest

import repro
from repro.aelite import AeliteNetwork
from repro.aelite.ni import AeliteNetworkInterface
from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.core.config_network import ConfigModule
from repro.core.config_port import ConfigPort
from repro.core.ni import NetworkInterface
from repro.errors import ContractViolationError, ReproError
from repro.params import aelite_parameters, daelite_parameters
from repro.sim.kernel import (
    ACTIVITY_MODE,
    NAIVE_MODE,
    VECTOR_MODE,
    Component,
)
from repro.topology import build_mesh
from repro.traffic import CbrGenerator, ThrottledSink

pytestmark = pytest.mark.differential


def knock_out(monkeypatch, owner: type, method: str) -> None:
    """Make every ``touch()`` issued while ``owner.method`` runs a no-op."""
    original_touch = Component.touch
    original_method = getattr(owner, method)
    muted = [False]

    def touch(self) -> None:
        if not muted[0]:
            original_touch(self)

    def muting(self, *args, **kwargs):
        muted[0] = True
        try:
            return original_method(self, *args, **kwargs)
        finally:
            muted[0] = False

    monkeypatch.setattr(Component, "touch", touch)
    monkeypatch.setattr(owner, method, muting)


# -- scenarios: one blocking set-up, then a single long ``run`` ---------------
#
# Nothing here steps cycle by cycle or uses ``kernel.at``: both re-ask
# every component and would paper over the knocked-out call.


def latencies(net):
    return {
        label: dict(stats.latency_histogram)
        for label, stats in net.stats.connections.items()
    }


def sink_state(sink):
    """What a sink keeps: its word count and checker state."""
    return sink.words_received, dict(sink._last_seq), list(sink.findings)


def daelite_flow(mode: str, strict: bool):
    """A flow-controlled CBR flow into a slow, sleeping sink: the
    generator wakes the source NI (``submit``), the destination NI wakes
    the sink (delivery), and the sink's drain — long after the arrival
    that last ran the destination NI — wakes that NI to return credits
    (``receive``).  40 words through an 8-word queue need all three."""
    params = daelite_parameters(slot_table_size=8)
    mesh = build_mesh(2, 2)
    connection = SlotAllocator(mesh, params).allocate_connection(
        ConnectionRequest("c", "NI00", "NI11", forward_slots=2)
    )
    net = DaeliteNetwork(mesh, params, kernel_mode=mode)
    net.kernel.strict_registers = strict
    handle = net.configure(connection)
    gen = CbrGenerator(
        "gen",
        net.ni("NI00").injector(handle.forward.src_channel, "c"),
        period=7,
        total_words=40,
    )
    sink = ThrottledSink(
        "sink",
        net.ni("NI11").receiver(handle.forward.dst_channel),
        period=25,
        words_per_drain=4,
    )
    net.kernel.add_all([gen, sink])
    net.run(1500)
    return handle.setup_cycles, sink_state(sink), latencies(net)


class LateRequester(Component):
    """Asks the host for a connection from inside its own evaluate — the
    one way ``ConfigModule.submit`` runs with nobody re-asking after."""

    def __init__(self, net, connection, fire: int) -> None:
        super().__init__("requester")
        self.net = net
        self.connection = connection
        self.fire = fire
        self.handle = None

    def next_evaluation(self, cycle: int) -> Optional[int]:
        return self.fire if cycle <= self.fire else None

    def evaluate(self, cycle: int) -> None:
        if cycle == self.fire:
            self.handle = self.net.host.setup_connection(self.connection)


def daelite_late_setup(mode: str, strict: bool):
    params = daelite_parameters(slot_table_size=8)
    mesh = build_mesh(2, 2)
    connection = SlotAllocator(mesh, params).allocate_connection(
        ConnectionRequest("late", "NI01", "NI10", forward_slots=1)
    )
    net = DaeliteNetwork(mesh, params, kernel_mode=mode)
    net.kernel.strict_registers = strict
    requester = LateRequester(net, connection, fire=50)
    net.kernel.add(requester)
    net.run(1000)
    handle = requester.handle
    return handle.done, handle.done and handle.finished_at


def aelite_flow(mode: str, strict: bool):
    """The aelite twin of :func:`daelite_flow` (credits ride in packet
    headers; the sink is behind a bare callable, so it never sleeps)."""
    params = aelite_parameters(slot_table_size=8)
    mesh = build_mesh(2, 2)
    connection = SlotAllocator(mesh, params).allocate_connection(
        ConnectionRequest("c", "NI00", "NI11", forward_slots=2)
    )
    net = AeliteNetwork(mesh, params, kernel_mode=mode)
    net.kernel.strict_registers = strict
    handle = net.install_connection(connection)
    src, dst = net.ni("NI00"), net.ni("NI11")
    gen = CbrGenerator(
        "gen",
        lambda payload: src.submit(handle.forward.src_connection, payload),
        period=7,
        total_words=40,
    )
    sink = ThrottledSink(
        "sink",
        lambda limit: dst.receive(handle.forward.dst_queue, limit),
        period=25,
        words_per_drain=4,
    )
    net.kernel.add_all([gen, sink])
    net.run(1500)
    return sink_state(sink), latencies(net)


def detection(scenario: Callable, fast_mode: str) -> Optional[str]:
    """How a broken wake contract shows in ``scenario`` (``None``: not
    at all)."""
    try:
        scenario(fast_mode, strict=True)
    except ContractViolationError:
        return "strict"
    try:
        if scenario(fast_mode, strict=False) != scenario(
            NAIVE_MODE, strict=False
        ):
            return "lockstep"
    except ReproError:
        return "lockstep"  # the fast kernel lost work outright
    return None


#: (class, method whose touch() is knocked out, scenario, fast kernel,
#: how it must be caught).
SITES = [
    (NetworkInterface, "submit", daelite_flow, ACTIVITY_MODE, "strict"),
    (NetworkInterface, "receive", daelite_flow, ACTIVITY_MODE, "strict"),
    (
        NetworkInterface,
        "_handle_arrival",
        daelite_flow,
        ACTIVITY_MODE,
        "strict",
    ),
    (ConfigModule, "submit", daelite_late_setup, ACTIVITY_MODE, "strict"),
    # Strict mode refuses config elision, so only the divergence shows;
    # and the requester is a component the engine cannot lower, so the
    # elided packets' deposits are the activity kernel's to wake for
    # (the engine schedules deposits itself).
    (ConfigPort, "deposit", daelite_late_setup, VECTOR_MODE, "lockstep"),
    (AeliteNetworkInterface, "submit", aelite_flow, ACTIVITY_MODE, "strict"),
    (AeliteNetworkInterface, "receive", aelite_flow, ACTIVITY_MODE, "strict"),
]


@pytest.mark.parametrize(
    "scenario, fast_mode",
    sorted(
        # Every scenario a knock-out runs, and the flow on the engine,
        # which runs its set-up wait too.
        {(scenario, mode) for _, _, scenario, mode, _ in SITES}
        | {(daelite_flow, VECTOR_MODE)},
        key=lambda pair: (pair[0].__name__, pair[1]),
    ),
    ids=lambda value: getattr(value, "__name__", value),
)
def test_intact_contract_is_silent(scenario, fast_mode):
    assert detection(scenario, fast_mode) is None


@pytest.mark.parametrize(
    "owner, method, scenario, fast_mode, caught_by",
    SITES,
    ids=[f"{owner.__name__}.{method}" for owner, method, *_ in SITES],
)
def test_knocked_out_touch_is_caught(
    monkeypatch, owner, method, scenario, fast_mode, caught_by
):
    knock_out(monkeypatch, owner, method)
    assert detection(scenario, fast_mode) == caught_by


def test_every_shipped_touch_site_is_listed():
    """A new ``.touch()`` call in ``src/`` must come with a knock-out."""
    shipped = set()
    for path in Path(inspect.getfile(repro)).parent.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner in ast.walk(tree):
            if not isinstance(owner, ast.ClassDef):
                continue
            for function in owner.body:
                if isinstance(function, ast.FunctionDef) and any(
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "touch"
                    for node in ast.walk(function)
                ):
                    shipped.add((owner.name, function.name))
    assert shipped == {
        (owner.__name__, method) for owner, method, *_ in SITES
    }
