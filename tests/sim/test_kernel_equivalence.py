"""Differential proof that ``vector`` mode is cycle-accurate, cycle by
cycle.

Every scenario is built twice — once on the naive every-cycle kernel
(the reference semantics) and once in ``vector`` mode — and run in
lockstep (:func:`tests.differential.lockstep`).  After *every* cycle,
every register output of both networks must be bit-identical;
afterwards, so must the whole network image — statistics, channel
endpoints, element tables, link word counts and drops.

Hypothesis drives random topologies, random allocated connections, and
random traffic through both builds.  Any divergence — an engine run
that left a register unmaterialized, a barrier it crossed — shows up
as the first differing register, with its name and cycle.  aelite has
no compiled model, so its scenarios pin the fallback: ``vector`` mode
steps them naively and must be indistinguishable from ``naive``.

The second half ("live reconfiguration") covers what the first cannot.
Stepping one cycle per ``run(1)`` and injecting through callbacks — as
the scenarios above do — never lets one component queue work for
another inside the kernel's own loop.  There, generators, sinks and
shells (components) move the traffic while a connection is opened and
closed in single ``run_until`` calls, and a :class:`RegisterProbe` —
itself a component — records every register (the config tree's only
while no packet is in flight) after every edge from inside those
calls.  Shells and the probe are components the engine
does not lower, so these runs take the fallback, entering and leaving
it across every set-up and tear-down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.aelite import AeliteNetwork, InBandConfigurator
from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork, OnlineConnectionManager
from repro.core.router import Router
from repro.errors import AllocationError
from repro.params import aelite_parameters, daelite_parameters
from repro.shells import (
    InitiatorShell,
    MemorySlave,
    TargetShell,
    aelite_ports,
    daelite_ports,
)
from repro.sim.kernel import NAIVE_MODE, VECTOR_MODE, Component
from repro.topology import build_mesh, ni_name
from repro.traffic import (
    BurstGenerator,
    CbrGenerator,
    CheckingSink,
    ThrottledSink,
)

from ..differential import (
    allocate,
    assert_same,
    lockstep,
    mutant_survives,
    network_image,
    plant,
    register_image,
)

pytestmark = pytest.mark.differential

# -- scenario description ------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A reproducible network + workload, buildable on either kernel."""

    width: int
    height: int
    #: (src NI, dst NI, forward_slots) per connection.
    connections: Tuple[Tuple[str, str, int], ...]
    #: (connection index, delay after configuration, payload count).
    bursts: Tuple[Tuple[int, int, int], ...]
    #: Cycles between sink drains at every destination.
    drain_period: int
    #: Lockstep cycles to run after configuration.
    run_cycles: int


DIMS = [(1, 2), (2, 2), (2, 3), (3, 3)]


@st.composite
def scenarios(draw) -> Scenario:
    width, height = draw(st.sampled_from(DIMS))
    nis = [
        ni_name(x, y) for x in range(width) for y in range(height)
    ]
    n_conns = draw(st.integers(1, min(3, len(nis) - 1)))
    connections = []
    for _ in range(n_conns):
        src, dst = draw(
            st.tuples(st.sampled_from(nis), st.sampled_from(nis)).filter(
                lambda pair: pair[0] != pair[1]
            )
        )
        connections.append((src, dst, draw(st.integers(1, 2))))
    bursts = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_conns - 1),
                st.integers(0, 150),
                st.integers(1, 8),
            ),
            min_size=1,
            max_size=5,
        )
    )
    return Scenario(
        width=width,
        height=height,
        connections=tuple(connections),
        bursts=tuple(bursts),
        drain_period=draw(st.integers(4, 40)),
        run_cycles=draw(st.integers(80, 250)),
    )


def run_cycle_by_cycle(build, scenario: Scenario) -> None:
    """``build(scenario, mode)`` on both kernels, every register
    compared after every cycle and the whole image at the end."""
    lockstep(
        lambda mode: (build(scenario, mode), [], []),
        (scenario.run_cycles,),
        per_cycle=True,
    )


# -- daelite -------------------------------------------------------------------


def build_daelite(scenario: Scenario, mode: str):
    params = daelite_parameters(slot_table_size=8)
    mesh, allocated = allocate(scenario, params)
    net = DaeliteNetwork(mesh, params, kernel_mode=mode)
    handles = [net.configure(connection) for connection in allocated]
    base = net.kernel.cycle
    for conn_index, delay, count in scenario.bursts:
        handle = handles[conn_index]
        src = scenario.connections[conn_index][0]
        channel = handle.forward.src_channel

        def inject(cycle, src=src, channel=channel, count=count):
            net.ni(src).submit_words(channel, list(range(count)))

        net.kernel.at(base + delay, inject)
    for conn_index, (_, dst, _) in enumerate(scenario.connections):
        handle = handles[conn_index]
        channel = handle.forward.dst_channel
        for tick in range(
            base, base + scenario.run_cycles, scenario.drain_period
        ):
            net.kernel.at(
                tick,
                lambda cycle, dst=dst, channel=channel: net.ni(
                    dst
                ).receive(channel),
            )
    return net


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios())
def test_daelite_vector_kernel_matches_naive_cycle_by_cycle(scenario: Scenario):
    params = daelite_parameters(slot_table_size=8)
    try:
        allocate(scenario, params)
    except AllocationError:
        assume(False)
    run_cycle_by_cycle(build_daelite, scenario)


#: Two flows through the 2x2 mesh's routers, one with a burst.
TWO_FLOWS = Scenario(
    width=2,
    height=2,
    connections=(("NI00", "NI11", 2), ("NI10", "NI01", 1)),
    bursts=((0, 5, 4),),
    drain_period=10,
    run_cycles=100,
)


def test_a_router_driving_its_link_register_directly_is_killed(monkeypatch):
    """A router that drives its out-link register instead of sending
    through the link skips the link's fault hook and word count: the
    engine, which carries the words itself, counts them."""
    plant(
        monkeypatch,
        "out_link.send(staged)",
        "out_link.register.drive(staged)",
        owner=Router,
        method="evaluate",
    )
    assert not mutant_survives(
        lambda: run_cycle_by_cycle(build_daelite, TWO_FLOWS)
    )


# -- aelite --------------------------------------------------------------------


def build_aelite(scenario: Scenario, mode: str):
    params = aelite_parameters(slot_table_size=8)
    mesh, allocated = allocate(scenario, params)
    net = AeliteNetwork(mesh, params, kernel_mode=mode)
    handles = [
        net.install_connection(connection) for connection in allocated
    ]
    for conn_index, delay, count in scenario.bursts:
        handle = handles[conn_index]
        src = scenario.connections[conn_index][0]
        connection = handle.forward.src_connection

        def inject(cycle, src=src, connection=connection, count=count):
            net.ni(src).submit_words(connection, list(range(count)))

        net.kernel.at(delay, inject)
    for conn_index, (_, dst, _) in enumerate(scenario.connections):
        handle = handles[conn_index]
        queue = handle.forward.dst_queue
        for tick in range(0, scenario.run_cycles, scenario.drain_period):
            net.kernel.at(
                tick,
                lambda cycle, dst=dst, queue=queue: net.ni(dst).receive(
                    queue
                ),
            )
    return net


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios())
def test_aelite_vector_kernel_matches_naive_cycle_by_cycle(scenario: Scenario):
    params = aelite_parameters(slot_table_size=8)
    try:
        allocate(scenario, params)
    except AllocationError:
        assume(False)
    run_cycle_by_cycle(build_aelite, scenario)


# -- determinism guard ---------------------------------------------------------


def test_configuration_reaches_same_cycle_in_both_modes():
    """Blocking configuration (run_until on handle.done) must complete
    at the same cycle in both modes."""
    params = daelite_parameters(slot_table_size=8)
    mesh, allocated = allocate(TWO_FLOWS, params)
    cycles = []
    for mode in (VECTOR_MODE, NAIVE_MODE):
        net = DaeliteNetwork(mesh, params, kernel_mode=mode)
        for connection in allocated:
            net.configure(connection)
        cycles.append(net.kernel.cycle)
    assert cycles[0] == cycles[1]


# -- live reconfiguration: components move the traffic ------------------------


class RegisterProbe(Component):
    """Records the register image (:func:`tests.differential.register_image`)
    after every clock edge, from inside the run (see the module
    docstring)."""

    def __init__(self, net) -> None:
        super().__init__("probe")
        self.net = net
        self.frames: List[Tuple[int, dict]] = []

    def evaluate(self, cycle: int) -> None:
        self.frames.append((cycle, register_image(self.net)))


def attach_probe(net) -> RegisterProbe:
    probe = RegisterProbe(net)
    net.kernel.add(probe)
    return probe


@dataclass(frozen=True)
class LiveScenario:
    """Traffic driven by components while a connection comes and goes."""

    width: int
    height: int
    #: (src NI, dst NI, forward slots) of the connections carrying
    #: generator -> sink traffic.
    flows: Tuple[Tuple[str, str, int], ...]
    #: ("cbr" | "burst", period, burst words) per flow.
    generators: Tuple[Tuple[str, int, int], ...]
    #: ("drain" | "throttled" | "checking", words per drain, period);
    #: a "drain" sink checks without a collector behind it.
    sinks: Tuple[Tuple[str, int, int], ...]
    #: (src NI, dst NI) of the shell pair's connection.
    shell: Tuple[str, str]
    #: ("w" | "r", word offset, length) transactions, issued up front.
    transactions: Tuple[Tuple[str, int, int], ...]
    #: (src NI, dst NI, forward slots) opened and closed under load.
    transient: Tuple[str, str, int]
    #: Cycles before the first opening / open / between rounds.
    lead: int
    dwell: int
    gap: int
    rounds: int


def ni_pairs(nis):
    return st.lists(
        st.sampled_from(nis), min_size=2, max_size=2, unique=True
    ).map(tuple)


@st.composite
def live_scenarios(draw, nis=None, dims=((2, 2), (2, 3), (3, 3))):
    width, height = draw(st.sampled_from(dims))
    if nis is None:
        nis = [ni_name(x, y) for x in range(width) for y in range(height)]
    n_flows = draw(st.integers(1, 2))
    flows = [
        (*draw(ni_pairs(nis)), draw(st.integers(1, 2)))
        for _ in range(n_flows)
    ]
    generators = [
        (
            draw(st.sampled_from(["cbr", "burst"])),
            draw(st.integers(3, 40)),
            draw(st.integers(1, 4)),
        )
        for _ in range(n_flows)
    ]
    sinks = [
        (
            draw(st.sampled_from(["drain", "throttled", "checking"])),
            draw(st.integers(1, 2)),
            draw(st.integers(2, 9)),
        )
        for _ in range(n_flows)
    ]
    transactions = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["w", "r"]),
                st.integers(0, 12),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return LiveScenario(
        width=width,
        height=height,
        flows=tuple(flows),
        generators=tuple(generators),
        sinks=tuple(sinks),
        shell=draw(ni_pairs(nis)),
        transactions=tuple(transactions),
        transient=(*draw(ni_pairs(nis)), draw(st.integers(1, 2))),
        lead=draw(st.integers(0, 60)),
        dwell=draw(st.integers(1, 80)),
        gap=draw(st.integers(1, 60)),
        rounds=draw(st.integers(1, 2)),
    )


def live_requests(scenario: LiveScenario):
    flows = [
        ConnectionRequest(
            f"f{index}", src, dst, forward_slots=slots, reverse_slots=1
        )
        for index, (src, dst, slots) in enumerate(scenario.flows)
    ]
    shell = ConnectionRequest(
        "shell", *scenario.shell, forward_slots=1, reverse_slots=1
    )
    src, dst, slots = scenario.transient
    transient = ConnectionRequest(
        "transient", src, dst, forward_slots=slots, reverse_slots=1
    )
    return flows, shell, transient


def make_live_generator(index, spec, inject):
    kind, period, burst_words = spec
    if kind == "cbr":
        return CbrGenerator(f"gen{index}", inject=inject, period=period)
    return BurstGenerator(
        f"gen{index}",
        inject=inject,
        burst_words=burst_words,
        period=max(period, 2 * burst_words),
    )


def make_live_sink(index, spec, receive, stats):
    kind, words, period = spec
    if kind == "drain":
        return CheckingSink(f"sink{index}", receive, words_per_cycle=words)
    if kind == "throttled":
        return ThrottledSink(
            f"sink{index}", receive, period=period, words_per_drain=words
        )
    return CheckingSink(
        f"sink{index}", receive, words_per_cycle=words, stats=stats
    )


def issue_transactions(initiator, scenario: LiveScenario):
    return [
        initiator.read(4 * offset, length)
        if kind == "r"
        else initiator.write(4 * offset, list(range(offset, offset + length)))
        for kind, offset, length in scenario.transactions
    ]


def live_outcome(net, probe, gens, sinks, memory, results):
    return {
        "image": network_image(net, gens, sinks),
        "memory": (dict(memory._words), memory.writes_served),
        "reads": [
            (result.completed_at, tuple(result.data))
            for result in results
            if hasattr(result, "completed_at")
        ],
        "frames": len(probe.frames),
    }


def run_live_daelite(scenario: LiveScenario, mode: str):
    params = daelite_parameters(slot_table_size=8)
    mesh = build_mesh(scenario.width, scenario.height)
    net = DaeliteNetwork(mesh, params, kernel_mode=mode)
    manager = OnlineConnectionManager(net)
    flows, shell, transient = live_requests(scenario)
    gens, sinks = [], []
    for index, request in enumerate(flows):
        handle = manager.open_connection(request).handle
        gens.append(
            make_live_generator(
                index,
                scenario.generators[index],
                net.ni(request.src_ni).injector(
                    handle.forward.src_channel, request.label
                ),
            )
        )
        sinks.append(
            make_live_sink(
                index,
                scenario.sinks[index],
                net.ni(request.dst_ni).receiver(handle.forward.dst_channel),
                net.stats,
            )
        )
    handle = manager.open_connection(shell).handle
    initiator = InitiatorShell(
        "initiator",
        daelite_ports(
            net.ni(shell.src_ni),
            inject_channel=handle.forward.src_channel,
            arrive_channel=handle.reverse.dst_channel,
            label="req",
        ),
    )
    memory = MemorySlave(base=0, size_bytes=1 << 10)
    target = TargetShell(
        "target",
        daelite_ports(
            net.ni(shell.dst_ni),
            inject_channel=handle.reverse.src_channel,
            arrive_channel=handle.forward.dst_channel,
            label="resp",
        ),
        memory,
    )
    net.kernel.add_all([*gens, *sinks, initiator, target])
    probe = attach_probe(net)
    results = issue_transactions(initiator, scenario)
    net.run(scenario.lead)
    for _ in range(scenario.rounds):
        manager.open_connection(transient)
        net.run(scenario.dwell)
        manager.close_connection(transient.label)
        net.run(scenario.gap)
    return probe, live_outcome(net, probe, gens, sinks, memory, results)


def live_daelite_allocatable(scenario: LiveScenario) -> bool:
    params = daelite_parameters(slot_table_size=8)
    allocator = SlotAllocator(
        topology=build_mesh(scenario.width, scenario.height), params=params
    )
    flows, shell, transient = live_requests(scenario)
    try:
        for request in (*flows, shell, transient):
            allocator.allocate_connection(request)
    except AllocationError:
        return False
    return True


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=live_scenarios())
def test_daelite_live_reconfiguration_matches_naive(scenario: LiveScenario):
    assume(live_daelite_allocatable(scenario))
    probe_a, outcome_a = run_live_daelite(scenario, VECTOR_MODE)
    probe_n, outcome_n = run_live_daelite(scenario, NAIVE_MODE)
    assert_same(probe_a.frames, probe_n.frames, "frames")
    assert outcome_a == outcome_n


AELITE_REMOTES = ("NI01", "NI10", "NI11")


def run_live_aelite(scenario: LiveScenario, mode: str):
    """In-band configuration: the transient connection is written into
    the remote NIs by shells, over the NoC, while the flows run."""
    params = aelite_parameters(slot_table_size=16)
    mesh = build_mesh(2, 2)
    allocator = SlotAllocator(topology=mesh, params=params)
    net = AeliteNetwork(mesh, params, host_ni="NI00", kernel_mode=mode)
    configurator = InBandConfigurator(net, allocator)
    flows, shell, transient = live_requests(scenario)
    gens, sinks = [], []
    for index, request in enumerate(flows):
        handle = net.install_connection(
            allocator.allocate_connection(request)
        )
        src, dst = net.ni(request.src_ni), net.ni(request.dst_ni)
        gens.append(
            make_live_generator(
                index,
                scenario.generators[index],
                lambda payload, src=src, handle=handle: src.submit(
                    handle.forward.src_connection, payload
                ),
            )
        )
        sinks.append(
            make_live_sink(
                index,
                scenario.sinks[index],
                lambda limit, dst=dst, handle=handle: dst.receive(
                    handle.forward.dst_queue, limit
                ),
                net.stats,
            )
        )
    handle = net.install_connection(allocator.allocate_connection(shell))
    initiator = InitiatorShell(
        "initiator",
        aelite_ports(
            net.ni(shell.src_ni),
            source_connection=handle.forward.src_connection,
            arrive_queue=handle.reverse.dst_queue,
            label="req",
        ),
    )
    memory = MemorySlave(base=0, size_bytes=1 << 10)
    target = TargetShell(
        "target",
        aelite_ports(
            net.ni(shell.dst_ni),
            source_connection=handle.reverse.src_connection,
            arrive_queue=handle.forward.dst_queue,
            label="resp",
        ),
        memory,
    )
    net.kernel.add_all([*gens, *sinks, initiator, target])
    probe = attach_probe(net)
    results = issue_transactions(initiator, scenario)
    net.run(scenario.lead)
    measured = []
    for round_index in range(scenario.rounds):
        connection = allocator.allocate_connection(transient)
        cycles, endpoints = configurator.setup_connection(connection)
        net.ni(transient.src_ni).submit_words(
            endpoints.fwd_src_connection,
            [round_index, 7],
            f"transient{round_index}",  # a fresh source index each round
        )
        net.run(scenario.dwell)
        measured.append(
            (
                cycles,
                configurator.teardown_channel(
                    connection.forward, endpoints.fwd_src_connection
                ),
                configurator.teardown_channel(
                    connection.reverse, endpoints.rev_src_connection
                ),
            )
        )
        allocator.release_connection(connection)
        net.run(scenario.gap)
    outcome = live_outcome(net, probe, gens, sinks, memory, results)
    outcome["measured"] = measured
    return probe, outcome


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=live_scenarios(nis=AELITE_REMOTES, dims=((2, 2),)))
def test_aelite_live_reconfiguration_matches_naive(scenario: LiveScenario):
    try:
        probe_a, outcome_a = run_live_aelite(scenario, VECTOR_MODE)
    except AllocationError:
        assume(False)
    probe_n, outcome_n = run_live_aelite(scenario, NAIVE_MODE)
    assert_same(probe_a.frames, probe_n.frames, "frames")
    assert outcome_a == outcome_n


def run_recycled_index(mode: str):
    """Service-style churn: a sink keeps sitting on a destination
    channel *index* while the connection behind it is closed (the index
    is quiesced and returned to the pool) and another one reuses it."""
    params = daelite_parameters(slot_table_size=8)
    net = DaeliteNetwork(build_mesh(2, 2), params, kernel_mode=mode)
    manager = OnlineConnectionManager(net)
    first = manager.open_connection(
        ConnectionRequest("first", "NI00", "NI11", forward_slots=1)
    ).handle
    sink = CheckingSink(
        "sink", net.ni("NI11").receiver(first.forward.dst_channel)
    )
    gen = CbrGenerator(
        "gen.first",
        net.ni("NI00").injector(first.forward.src_channel, "first"),
        period=9,
        total_words=6,
    )
    net.kernel.add_all([gen, sink])
    probe = attach_probe(net)
    net.run(150)  # drained; the sink polls an empty queue
    manager.close_connection("first")
    second = manager.open_connection(
        ConnectionRequest("second", "NI10", "NI11", forward_slots=2)
    ).handle
    assert second.forward.dst_channel == first.forward.dst_channel
    later = CbrGenerator(
        "gen.second",
        net.ni("NI10").injector(second.forward.src_channel, "second"),
        period=5,
        total_words=8,
        start_cycle=net.kernel.cycle + 10,
    )
    net.kernel.add(later)
    net.run(200)
    return probe, network_image(net, [gen, later], [sink])


def test_sink_on_a_recycled_channel_index_is_not_stranded():
    probe_a, outcome_a = run_recycled_index(VECTOR_MODE)
    probe_n, outcome_n = run_recycled_index(NAIVE_MODE)
    assert outcome_n["sinks"] == [(14, [], {"first": 5, "second": 7})]
    assert outcome_a == outcome_n
    assert_same(probe_a.frames, probe_n.frames, "frames")


# -- work queued between components inside one long run ----------------------
#
# Nothing here steps cycle by cycle or uses ``kernel.at``: work has to
# cross between components inside the kernel's own loop — a generator
# into its source NI, an NI into a sink's queue, a sink's drain into the
# NI's credits, a component into the configuration module, the module
# into the elided packets' ports.


def daelite_flow(mode: str):
    """A flow-controlled CBR flow into a slow sink: the
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
    return handle.setup_cycles, network_image(net, [gen], [sink])


class LateRequester(Component):
    """Asks the host for a connection from inside its own evaluate, so
    the configuration module's work is queued mid-run."""

    def __init__(self, net, connection, fire: int) -> None:
        super().__init__("requester")
        self.net = net
        self.connection = connection
        self.fire = fire
        self.handle = None

    def evaluate(self, cycle: int) -> None:
        if cycle == self.fire:
            self.handle = self.net.host.setup_connection(self.connection)


def daelite_late_setup(mode: str):
    params = daelite_parameters(slot_table_size=8)
    mesh = build_mesh(2, 2)
    connection = SlotAllocator(mesh, params).allocate_connection(
        ConnectionRequest("late", "NI01", "NI10", forward_slots=1)
    )
    net = DaeliteNetwork(mesh, params, kernel_mode=mode)
    requester = LateRequester(net, connection, fire=50)
    net.kernel.add(requester)
    net.run(1000)
    handle = requester.handle
    return handle.done, handle.done and handle.finished_at, network_image(net)


def aelite_flow(mode: str):
    """The aelite twin of :func:`daelite_flow` (credits ride in packet
    headers; the sink is behind a bare callable)."""
    params = aelite_parameters(slot_table_size=8)
    mesh = build_mesh(2, 2)
    connection = SlotAllocator(mesh, params).allocate_connection(
        ConnectionRequest("c", "NI00", "NI11", forward_slots=2)
    )
    net = AeliteNetwork(mesh, params, kernel_mode=mode)
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
    return network_image(net, [gen], [sink])


@pytest.mark.parametrize(
    "scenario",
    # aelite steps on the fallback; the daelite flow runs its set-up
    # wait and its traffic on the engine; the requester is a component
    # the engine cannot lower, so the elided packets' deposits are
    # stepped naively.
    [aelite_flow, daelite_flow, daelite_late_setup],
    ids=lambda value: value.__name__,
)
def test_work_queued_between_components_matches_naive(scenario):
    assert scenario(VECTOR_MODE) == scenario(NAIVE_MODE)
