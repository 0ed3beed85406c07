"""Lockstep of the stepped fast kernels against ``naive`` where work
crosses between components outside their registers.

The activity kernel runs a component that no register woke only when
its ``next_evaluation``, asked at its own turn, says it is due.  The
three scenarios here queue work for a sleeping component from another
component's ``evaluate`` — a generator into its source NI, an NI into a
sink's queue, a sink's drain into the NI's credits, a component into
the configuration module, the module into the elided packets' ports —
inside one long ``run``, and each must equal ``naive`` exactly and keep
the strict register contract.
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.aelite import AeliteNetwork
from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
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


# -- scenarios: one blocking set-up, then a single long ``run`` ---------------
#
# Nothing here steps cycle by cycle or uses ``kernel.at``: work has to
# cross between components inside the kernel's own loop.


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
    generator queues words at the source NI (``submit``), the
    destination NI fills the sink's queue (delivery), and the sink's
    drain — long after the arrival that last ran the destination NI —
    leaves that NI credits to return (``receive``).  40 words through
    an 8-word queue need all three."""
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
    """Asks the host for a connection from inside its own evaluate, so
    the configuration module's work is queued mid-run."""

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


@pytest.mark.parametrize(
    "scenario, fast_mode",
    [
        (aelite_flow, ACTIVITY_MODE),
        (daelite_flow, ACTIVITY_MODE),
        # The flow on the engine runs its set-up wait there too.
        (daelite_flow, VECTOR_MODE),
        (daelite_late_setup, ACTIVITY_MODE),
        # The requester is a component the engine cannot lower, so the
        # elided packets' deposits are the activity kernel's to run.
        (daelite_late_setup, VECTOR_MODE),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_matches_naive(scenario, fast_mode):
    # Strict first: the stepped cycles keep the register contract.
    scenario(fast_mode, strict=True)
    assert scenario(fast_mode, strict=False) == scenario(
        NAIVE_MODE, strict=False
    )
