"""Hypothesis cross-validation: analytical oracle vs the cycle simulator.

The contract of :mod:`repro.analysis.model` on a contention-free TDM
schedule, checked on random topologies, workloads, policies, and
use-case switches, on both the naive and vector kernels:

* **soundness** — the worst-case submit-to-delivery bound is never
  below any latency the simulator measures, for *any* workload,
* **exactness** — for contention-free CBR flows the model's in-network
  latency equals every measured latency bit-for-bit (the statistics
  collector counts from link drive to queue deposit, exactly the
  model's in-network term),
* **plan fidelity** — the verdict the oracle computes *before* an
  allocation (path, slots, bound, bandwidth) coincides with the model
  of the allocation that follows,
* **bandwidth** — delivered throughput never exceeds the guaranteed
  rate's slot arithmetic (and reaches it under saturation, which
  ``tests/properties/test_e2e_props.py`` already pins).

Multicast trees are covered per destination; the whole suite runs
under both ``REPRO_KERNEL_MODE=naive`` and ``vector`` via explicit
kernel-mode parametrization (CI additionally runs the full suite under
each mode's environment default).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.alloc import (
    ConnectionRequest,
    MulticastRequest,
    SlotAllocator,
    UseCase,
    UseCaseManager,
)
from repro.analysis import AdmissionOracle
from repro.core import DaeliteNetwork
from repro.errors import AllocationError
from repro.params import aelite_parameters, daelite_parameters
from repro.sim.kernel import NAIVE_MODE, VECTOR_MODE
from repro.topology import build_mesh, build_ring, build_torus
from repro.traffic.generators import (
    BurstGenerator,
    CbrGenerator,
    RandomGenerator,
)
from repro.traffic.sinks import CheckingSink

pytestmark = pytest.mark.differential

KERNEL_MODES = (NAIVE_MODE, VECTOR_MODE)

#: Cap on simulated cycles per example — every scenario is sized to
#: finish (all generators done, all words delivered) well inside it.
HORIZON = 6_000


# -- scenario strategies ------------------------------------------------------


def _topology(kind: str):
    if kind == "mesh22":
        return build_mesh(2, 2)
    if kind == "mesh32":
        return build_mesh(3, 2)
    if kind == "ring4":
        return build_ring(4)
    if kind == "ring5":
        return build_ring(5)
    if kind == "torus32":
        return build_torus(3, 2)
    raise AssertionError(kind)


@st.composite
def scenarios(draw, workloads=("cbr", "burst", "random")):
    kind = draw(
        st.sampled_from(
            ["mesh22", "mesh32", "ring4", "ring5", "torus32"]
        )
    )
    topology = _topology(kind)
    nis = [element.name for element in topology.nis]
    size = draw(st.sampled_from([8, 16]))
    policy = draw(st.sampled_from(["first", "spread"]))
    routing = draw(
        st.sampled_from(["xy", "shortest"])
        if kind.startswith("mesh")
        else st.just("shortest")
    )
    pair_count = draw(st.integers(min_value=1, max_value=3))
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(nis), st.sampled_from(nis)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=pair_count,
            max_size=pair_count,
            unique=True,
        )
    )
    connections = []
    for index, (src, dst) in enumerate(pairs):
        workload = draw(st.sampled_from(workloads))
        if workload == "cbr":
            spec = (
                "cbr",
                draw(st.integers(min_value=1, max_value=12)),
                draw(st.integers(min_value=5, max_value=20)),
            )
        elif workload == "burst":
            spec = (
                "burst",
                draw(st.integers(min_value=2, max_value=4)),
                draw(st.integers(min_value=8, max_value=24)),
                draw(st.integers(min_value=2, max_value=5)),
            )
        else:
            spec = (
                "random",
                draw(st.floats(min_value=0.05, max_value=0.5)),
                draw(st.integers(min_value=5, max_value=15)),
                draw(st.integers(min_value=1, max_value=1000)),
            )
        connections.append(
            (
                f"c{index}",
                src,
                dst,
                draw(st.integers(min_value=1, max_value=3)),
                draw(st.integers(min_value=1, max_value=2)),
                spec,
            )
        )
    return kind, size, policy, routing, connections


def make_generator(label, spec, inject):
    if spec[0] == "cbr":
        _, period, total = spec
        return CbrGenerator(
            f"gen.{label}", inject=inject, period=period,
            total_words=total,
        )
    if spec[0] == "burst":
        _, words, period, bursts = spec
        return BurstGenerator(
            f"gen.{label}", inject=inject, burst_words=words,
            period=period, total_bursts=bursts,
        )
    _, rate, total, seed = spec
    return RandomGenerator(
        f"gen.{label}", inject=inject, rate=rate, total_words=total,
        seed=seed,
    )


def build_scenario(scenario, kernel_mode):
    """Admit (oracle), allocate, configure, and wire the workload."""
    kind, size, policy, routing, connections = scenario
    topology = _topology(kind)
    params = daelite_parameters(slot_table_size=size)
    allocator = SlotAllocator(
        topology=topology, params=params, routing=routing,
        policy=policy,
    )
    oracle = AdmissionOracle(allocator)
    network = DaeliteNetwork(topology, params, kernel_mode=kernel_mode)
    flows = []
    for label, src, dst, fwd, rev, spec in connections:
        request = ConnectionRequest(
            label, src, dst, forward_slots=fwd, reverse_slots=rev
        )
        verdict = oracle.admit(request)
        try:
            allocated = allocator.allocate_connection(request)
        except AllocationError:
            # The oracle must have predicted exactly this rejection.
            assert not verdict.admitted
            continue
        assert verdict.admitted, (
            f"{label}: allocation succeeded but the oracle rejected "
            f"it: {verdict.reason}"
        )
        # Plan fidelity: the probe *is* the allocation's slot choice.
        assert verdict.planned_slots == tuple(
            sorted(allocated.forward.slots)
        )
        assert verdict.path == allocated.forward.path
        model = oracle.connection_model(allocated)
        assert verdict.worst_case_latency_cycles == (
            model.worst_case_latency_cycles
        )
        handle = network.configure(allocated)
        gen = make_generator(
            label,
            spec,
            network.ni(src).injector(handle.forward.src_channel, label),
        )
        sink = CheckingSink(
            f"sink.{label}",
            receive=network.ni(dst).receiver(handle.forward.dst_channel),
            words_per_cycle=4,
        )
        network.kernel.add(gen)
        network.kernel.add(sink)
        flows.append((label, spec, model, gen))
    return network, flows


def run_to_completion(network, flows):
    expected = {}
    for label, spec, _, gen in flows:
        if spec[0] == "cbr":
            expected[label] = spec[2]
        elif spec[0] == "burst":
            expected[label] = spec[1] * spec[3]
        else:
            expected[label] = spec[2]
    for _ in range(HORIZON // 50):
        network.run(50)
        if all(
            network.stats.delivered_words(label) >= count
            for label, count in expected.items()
        ):
            break
    for label, count in expected.items():
        assert network.stats.delivered_words(label) >= count, (
            f"{label}: only "
            f"{network.stats.delivered_words(label)}/{count} words "
            f"delivered within {HORIZON} cycles"
        )


# -- the cross-validation properties ------------------------------------------


class TestOracleVsSimulator:
    @pytest.mark.parametrize("kernel_mode", KERNEL_MODES)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenarios())
    def test_bound_sound_for_any_workload(self, kernel_mode, scenario):
        """analytical bound >= simulated latency, always."""
        network, flows = build_scenario(scenario, kernel_mode)
        if not flows:
            return
        run_to_completion(network, flows)
        for label, _, model, _ in flows:
            stats = network.stats.connections[label]
            assert stats.max_latency is not None
            assert stats.max_latency <= (
                model.worst_case_latency_cycles
            ), (
                f"{label}: measured {stats.max_latency} cycles "
                f"exceeds the analytical bound "
                f"{model.worst_case_latency_cycles}"
            )
            # Delivered words never exceed the slot arithmetic: the
            # guaranteed rate over the window plus at most one wheel
            # revolution of slack (slot_count slots x 2 words each in
            # daelite) for a partially-elapsed revolution.
            window = network.kernel.cycle
            slack = model.forward.slot_count * 2
            assert stats.ejected <= (
                model.forward.guaranteed_bandwidth_words_per_cycle
                * window
                + slack
            )

    @pytest.mark.parametrize("kernel_mode", KERNEL_MODES)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenarios(workloads=("cbr",)))
    def test_exact_for_contention_free_cbr(self, kernel_mode, scenario):
        """analytical in-network latency == simulated latency,
        bit-for-bit, for every word of a contention-free CBR flow."""
        network, flows = build_scenario(scenario, kernel_mode)
        if not flows:
            return
        run_to_completion(network, flows)
        for label, _, model, _ in flows:
            stats = network.stats.connections[label]
            exact = model.forward.in_network_latency_cycles
            assert stats.latency_histogram, f"{label}: nothing delivered"
            assert all(
                latency == exact for latency in stats.latency_histogram
            ), (
                f"{label}: latencies {sorted(set(stats.latency_histogram))} "
                f"!= analytical {exact}"
            )
            # Zero measured jitter — the model's jitter is all
            # injection-side, the in-network part is a constant.
            assert stats.max_latency == stats.min_latency


class TestMulticastOracleVsSimulator:
    @pytest.mark.parametrize("kernel_mode", KERNEL_MODES)
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.sampled_from([8, 16]),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=1, max_value=10),
    )
    def test_tree_latency_exact_per_destination(
        self, kernel_mode, size, slots, dst_count, src_index, period
    ):
        topology = build_mesh(3, 3)
        nis = [element.name for element in topology.nis]
        src = nis[src_index]
        dsts = tuple(
            ni for ni in nis if ni != src
        )[:dst_count]
        params = daelite_parameters(slot_table_size=size)
        allocator = SlotAllocator(topology=topology, params=params)
        oracle = AdmissionOracle(allocator)
        request = MulticastRequest("m", src, dsts, slots=slots)
        verdict = oracle.admit(request)
        tree = allocator.allocate_multicast(request)
        assert verdict.admitted
        assert verdict.planned_slots == tuple(sorted(tree.slots))
        model = oracle.multicast_model(tree)
        network = DaeliteNetwork(
            topology, params, host_ni="NI11", kernel_mode=kernel_mode
        )
        handle = network.configure_multicast(tree)
        words = 12
        gen = CbrGenerator(
            "gen.m",
            inject=network.ni(src).injector(handle.src_channel, "m"),
            period=period,
            total_words=words,
        )
        network.kernel.add(gen)
        for dst in dsts:
            network.kernel.add(
                CheckingSink(
                    f"sink.{dst}",
                    receive=network.ni(dst).receiver(
                        handle.dst_channels[dst]
                    ),
                    words_per_cycle=4,
                )
            )
        for _ in range(HORIZON // 50):
            network.run(50)
            if network.stats.delivered_words("m") >= words * len(dsts):
                break
        stats = network.stats.connections["m"]
        assert stats.ejected == words * len(dsts)
        # Per-word latencies mix destinations; every one must equal
        # *some* branch's exact in-network latency, the slowest must
        # match the deepest branch, and all stay under the tree bound.
        exact_per_branch = {
            branch.in_network_latency_cycles
            for branch in model.branches
        }
        assert set(stats.latency_histogram) == exact_per_branch
        assert stats.max_latency == max(exact_per_branch)
        assert stats.max_latency <= model.worst_case_latency_cycles


class TestUseCaseSwitchOracleVsSimulator:
    @pytest.mark.parametrize("kernel_mode", KERNEL_MODES)
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.sampled_from([8, 16]),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=8),
    )
    def test_model_exact_across_a_switch(
        self, kernel_mode, size, slots_a, slots_b, period
    ):
        """The model tracks the *live* allocation: after a use-case
        switch the new connections obey their own models exactly."""
        topology = build_mesh(3, 3)
        params = daelite_parameters(slot_table_size=size)
        manager = UseCaseManager(topology=topology, params=params)
        keep = ConnectionRequest("ui", "NI10", "NI12", forward_slots=1)
        manager.add_usecase(
            UseCase(
                "A",
                (
                    ConnectionRequest(
                        "decode", "NI00", "NI22", forward_slots=slots_a
                    ),
                    keep,
                ),
            )
        )
        manager.add_usecase(
            UseCase(
                "B",
                (
                    ConnectionRequest(
                        "record", "NI22", "NI00", forward_slots=slots_b
                    ),
                    keep,
                ),
            )
        )
        switch = manager.plan_switch("A", "B")
        network = DaeliteNetwork(
            topology, params, host_ni="NI11", kernel_mode=kernel_mode
        )
        oracle = AdmissionOracle(
            SlotAllocator(topology=topology, params=params)
        )

        def drive(label, handle, words, allocation):
            src = allocation.forward.src_ni
            dst = allocation.forward.dst_ni
            network.ni(src).submit_words(
                handle.forward.src_channel,
                list(range(words)),
                label,
            )
            done = network.stats.delivered_words(label) + words
            for _ in range(HORIZON // 10):
                network.run(10)
                network.ni(dst).receive(handle.forward.dst_channel)
                if network.stats.delivered_words(label) >= done:
                    return
            raise AssertionError(f"{label} stalled across the switch")

        handles = {
            label: network.configure(manager.allocation("A", label))
            for label in ("decode", "ui")
        }
        drive(
            "decode", handles["decode"], 10,
            manager.allocation("A", "decode"),
        )
        for label in ("decode", "ui"):
            model = oracle.connection_model(
                manager.allocation("A", label)
            )
            stats = network.stats.connections.get(label)
            if stats and stats.latency_histogram:
                assert set(stats.latency_histogram) == {
                    model.forward.in_network_latency_cycles
                }
        for label in switch.torn_down:
            network.teardown(
                handles.pop(label), manager.allocation("A", label)
            )
        for label in switch.set_up:
            handles[label] = network.configure(
                manager.allocation("B", label)
            )
        drive(
            "record", handles["record"], 10,
            manager.allocation("B", "record"),
        )
        drive("ui", handles["ui"], 5, manager.allocation("B", "ui"))
        record_model = oracle.connection_model(
            manager.allocation("B", "record")
        )
        stats = network.stats.connections["record"]
        assert set(stats.latency_histogram) == {
            record_model.forward.in_network_latency_cycles
        }
        assert stats.max_latency <= (
            record_model.worst_case_latency_cycles
        )


class TestAeliteOracleVsSimulator:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.sampled_from([8, 16]),
        st.integers(min_value=1, max_value=3),
        st.sampled_from(
            [("NI00", "NI11"), ("NI00", "NI10"), ("NI11", "NI00")]
        ),
    )
    def test_aelite_bound_sound_and_traversal_exact(
        self, size, slots, endpoints
    ):
        """The same model covers aelite (3-cycle hops, header-aware
        bandwidth); its data plane always steps naively."""
        from repro.aelite import AeliteNetwork

        topology = build_mesh(2, 2)
        params = aelite_parameters(slot_table_size=size)
        allocator = SlotAllocator(topology=topology, params=params)
        oracle = AdmissionOracle(allocator)
        assert oracle.fabric == "aelite"
        request = ConnectionRequest(
            "a", endpoints[0], endpoints[1], forward_slots=slots
        )
        verdict = oracle.admit(request)
        connection = allocator.allocate_connection(request)
        assert verdict.admitted
        assert verdict.planned_slots == tuple(
            sorted(connection.forward.slots)
        )
        model = oracle.connection_model(connection)
        # Headers cost bandwidth in aelite, never in daelite.
        assert model.forward.guaranteed_bandwidth_words_per_cycle < (
            len(connection.forward.slots) / size
        )
        network = AeliteNetwork(topology, params, host_ni=endpoints[0])
        handle = network.install_connection(connection)
        words = 30
        network.ni(endpoints[0]).submit_words(
            handle.forward.src_connection, list(range(words)), label="a"
        )
        delivered = 0
        for _ in range(HORIZON):
            network.run(2)
            delivered += len(
                network.ni(endpoints[1]).receive(
                    handle.forward.dst_queue
                )
            )
            if delivered >= words:
                break
        assert delivered == words
        stats = network.stats.connections["a"]
        exact = model.forward.in_network_latency_cycles
        assert set(stats.latency_histogram) == {exact}
        assert stats.max_latency <= model.worst_case_latency_cycles
