"""Online recovery: link failures, detours, replay, stats split."""

from __future__ import annotations

import pytest

from repro.alloc import ConnectionRequest, MulticastRequest
from repro.core import DaeliteNetwork, OnlineConnectionManager
from repro.errors import TopologyError
from repro.params import daelite_parameters
from repro.staticcheck import verify_network_state
from repro.topology import build_mesh
from repro.traffic import CheckingSink

from .conftest import forward_edge


def deliver(network, record, count, label):
    """Push ``count`` words through the forward channel; return the
    number delivered within a generous budget."""
    network.ni(record.request.src_ni).submit_words(
        record.handle.forward.src_channel, list(range(count)), label
    )
    delivered = 0
    for _ in range(4000):
        network.run(1)
        delivered += len(
            network.ni(record.request.dst_ni).receive(
                record.handle.forward.dst_channel
            )
        )
        if delivered >= count:
            break
    return delivered


class TestLinkFailureRecovery:
    def test_connection_rerouted_around_failure(self, managed_mesh):
        network, manager, record = managed_mesh
        edge = forward_edge(record)
        old_path = record.allocation.forward.path
        report = manager.handle_link_failure(edge)
        assert [o.label for o in report.outcomes] == ["stream"]
        outcome = report.outcomes[0]
        assert outcome.recovered
        assert outcome.kind == "connection"
        assert outcome.teardown_cycles > 0
        assert outcome.setup_cycles > 0
        assert outcome.total_cycles >= (
            outcome.teardown_cycles + outcome.setup_cycles
        )
        new = manager.connections["stream"]
        new_path = new.allocation.forward.path
        assert new_path != old_path
        for k in range(len(new_path) - 1):
            assert {new_path[k], new_path[k + 1]} != set(edge)
        assert outcome.path_hops == len(new_path) - 1
        # The detour is live: state checks out and traffic flows.
        assert manager.verify_connection("stream")
        verify_network_state(network, manager.live_handles)
        assert deliver(network, new, 20, "stream.postfail") == 20

    def test_unaffected_connections_left_alone(self, managed_mesh):
        network, manager, record = managed_mesh
        # Fail a link no open connection crosses.
        used = set()
        for channel in (
            record.allocation.forward,
            record.allocation.reverse,
        ):
            for k in range(len(channel.path) - 1):
                used.add(
                    frozenset(
                        (channel.path[k], channel.path[k + 1])
                    )
                )
        spare = next(
            edge
            for edge in sorted(network.links)
            if frozenset(edge) not in used
        )
        handle_before = record.handle
        report = manager.handle_link_failure(spare)
        assert report.outcomes == []
        assert manager.connections["stream"].handle is handle_before
        assert manager.setup_history == [record.setup_cycles]
        assert manager.recovery_history == []

    def test_multicast_rerouted_around_failure(self):
        topology = build_mesh(3, 3)
        params = daelite_parameters(slot_table_size=16)
        network = DaeliteNetwork(topology, params, host_ni="NI11")
        manager = OnlineConnectionManager(network)
        tree = manager.open_multicast(
            MulticastRequest("sync", "NI11", ("NI00", "NI22"), slots=2)
        )
        branch = tree.allocation.paths[0].path
        edge = (branch[1], branch[2])
        report = manager.handle_link_failure(edge)
        (outcome,) = report.outcomes
        assert outcome.kind == "multicast"
        assert outcome.recovered
        new = manager.multicasts["sync"]
        for b in new.allocation.paths:
            for k in range(len(b.path) - 1):
                assert {b.path[k], b.path[k + 1]} != set(edge)
        verify_network_state(network, manager.live_handles)

    def test_unrecoverable_when_no_detour_exists(self):
        # On a 1-row mesh the single path has no alternative.
        topology = build_mesh(3, 1)
        params = daelite_parameters(slot_table_size=8)
        network = DaeliteNetwork(topology, params, host_ni="NI00")
        manager = OnlineConnectionManager(network)
        manager.open_connection(
            ConnectionRequest("line", "NI00", "NI20", forward_slots=2)
        )
        report = manager.handle_link_failure(("R00", "R10"))
        (outcome,) = report.outcomes
        assert not outcome.recovered
        assert outcome.path_hops is None
        assert outcome.error
        assert "line" not in manager.connections
        assert manager.failed_history == [outcome.total_cycles]
        assert manager.recovery_history == []
        # Slots were released: the ledger holds nothing.
        assert manager.claimed_slots == 0
        verify_network_state(network, [])

    def test_severed_bisection_releases_with_typed_outcome(self):
        """Regression: rerouting that finds *no* alternative route must
        end in a typed failed ``RecoveryOutcome`` — with the connection
        released and its slots returned — never a raw allocator
        exception escaping ``handle_link_failure``."""
        topology = build_mesh(2, 2)
        params = daelite_parameters(slot_table_size=8)
        network = DaeliteNetwork(topology, params, host_ni="NI00")
        manager = OnlineConnectionManager(network)
        record = manager.open_connection(
            ConnectionRequest("biz", "NI00", "NI11", forward_slots=2)
        )
        path = record.allocation.forward.path
        on_path = (path[1], path[2])
        # Sever the whole bisection: mask the parallel link first, then
        # fail the one the connection actually crosses.
        bisection = {("R00", "R10"), ("R01", "R11")}
        if {*on_path} in ({"R00", "R01"}, {"R10", "R11"}):
            bisection = {("R00", "R01"), ("R10", "R11")}
        for a, b in sorted(bisection):
            if {a, b} != {*on_path} and not topology.link_is_failed(
                a, b
            ):
                topology.fail_link(a, b)
        report = manager.handle_link_failure(on_path)
        (outcome,) = report.outcomes
        assert not outcome.recovered
        assert outcome.kind == "connection"
        assert outcome.path_hops is None
        assert "RoutingError" in outcome.error
        assert "biz" not in manager.connections
        assert manager.claimed_slots == 0
        assert manager.failed_history == [outcome.total_cycles]
        verify_network_state(network, [])

    def test_xy_routing_falls_back_to_explicit_detour(self):
        topology = build_mesh(3, 3)
        params = daelite_parameters(slot_table_size=16)
        network = DaeliteNetwork(topology, params, host_ni="NI11")
        manager = OnlineConnectionManager(network, routing="xy")
        record = manager.open_connection(
            ConnectionRequest("xy", "NI00", "NI22", forward_slots=2)
        )
        edge = forward_edge(record)
        report = manager.handle_link_failure(edge)
        (outcome,) = report.outcomes
        assert outcome.recovered
        assert manager.verify_connection("xy")
        verify_network_state(network, manager.live_handles)

    def test_second_failure_on_same_edge_is_idempotent(
        self, managed_mesh
    ):
        network, manager, record = managed_mesh
        edge = forward_edge(record)
        manager.handle_link_failure(edge)
        report = manager.handle_link_failure(edge)
        # Nothing crosses a link that is already masked.
        assert report.outcomes == []

    def test_topology_version_bumped_on_failure(self, managed_mesh):
        network, manager, record = managed_mesh
        version = network.topology.version
        manager.handle_link_failure(forward_edge(record))
        assert network.topology.version > version


class TestTopologyFailApi:
    def test_fail_and_restore_roundtrip(self):
        topology = build_mesh(2, 2)
        assert not topology.link_is_failed("R00", "R10")
        topology.fail_link("R00", "R10")
        assert topology.link_is_failed("R00", "R10")
        assert topology.link_is_failed("R10", "R00")
        with pytest.raises(TopologyError, match="already failed"):
            topology.fail_link("R10", "R00")
        topology.restore_link("R00", "R10")
        assert not topology.link_is_failed("R00", "R10")
        with pytest.raises(TopologyError, match="not failed"):
            topology.restore_link("R00", "R10")

    def test_unknown_link_rejected(self):
        topology = build_mesh(2, 2)
        with pytest.raises(TopologyError):
            topology.fail_link("R00", "R11")  # diagonal: no such link


class TestStatsSplit:
    def test_recovery_does_not_skew_setup_population(self, managed_mesh):
        network, manager, record = managed_mesh
        baseline_mean = manager.mean_setup_cycles()
        assert manager.setup_history == [record.setup_cycles]
        report = manager.handle_link_failure(forward_edge(record))
        (outcome,) = report.outcomes
        # The re-set-up landed in the recovery population only.
        assert manager.setup_history == [record.setup_cycles]
        assert manager.mean_setup_cycles() == baseline_mean
        assert manager.recovery_history == [outcome.total_cycles]
        assert manager.mean_recovery_cycles() == float(
            outcome.total_cycles
        )
        assert manager.failed_history == []

    def test_replay_counts_as_recovery(self, managed_mesh):
        network, manager, record = managed_mesh
        cycles = manager.repair_connection("stream")
        assert manager.recovery_history == [cycles]
        assert manager.setup_history == [record.setup_cycles]

    def test_empty_histories_mean_none(self, managed_mesh):
        _, manager, _ = managed_mesh
        assert manager.mean_recovery_cycles() is None
        manager.close_connection("stream")
        assert manager.mean_setup_cycles() is not None


class TestRecoveredTraffic:
    def test_parity_desync_healed_by_recovery(self, managed_mesh):
        """Words dropped by parity leave the credit loop short; a full
        teardown/set-up (which rewrites the CREDIT register) restores
        the connection's bandwidth."""
        from repro.faults import FaultInjector, FaultPlan, StuckAtFault

        network, manager, record = managed_mesh
        now = network.kernel.cycle
        injector = FaultInjector(
            network,
            FaultPlan(
                seed=0,
                specs=(
                    StuckAtFault(
                        edge=forward_edge(record),
                        bit=0,
                        value=1,
                        from_cycle=now + 10,
                        until_cycle=now + 22,
                    ),
                ),
            ),
        )
        injector.arm()
        sink = CheckingSink(
            "sink",
            lambda n: network.ni(record.request.dst_ni).receive(
                record.handle.forward.dst_channel, n
            ),
            stats=network.stats,
        )
        network.kernel.add(sink)
        network.ni(record.request.src_ni).submit_words(
            record.handle.forward.src_channel,
            [2 * i for i in range(30)],
            "stream.lossy",
        )
        network.run(1200)
        injector.disarm()
        lost = network.stats.fault_counts().get("parity_error", 0)
        assert lost > 0
        assert sink.words_received == 30 - lost
        # Recover over a fresh path; the new epoch must flow at full
        # rate again.  Index recycling re-binds the replacement
        # connection to the same (quiesced) channel indices, so the
        # original sink keeps draining it — and sequence numbering
        # restarts at 0 on the recycled index.
        manager.handle_link_failure(forward_edge(record))
        new = manager.connections["stream"]
        assert (
            new.handle.forward.dst_channel
            == record.handle.forward.dst_channel
        )
        base = sink.words_received
        network.ni(new.request.src_ni).submit_words(
            new.handle.forward.src_channel,
            [2 * i for i in range(30)],
            "stream.healed",
        )
        network.run(1200)
        assert sink.words_received - base == 30
        # The lossy epoch legitimately logged gaps; the healed epoch
        # (fresh sequence space on the recycled index) must be clean.
        assert not [f for f in sink.findings if "stream.healed" in f]
