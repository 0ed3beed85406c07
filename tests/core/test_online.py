"""Tests for run-time connection management."""

from __future__ import annotations

import pytest

from repro.alloc import ConnectionRequest, MulticastRequest
from repro.core import DaeliteNetwork, OnlineConnectionManager
from repro.errors import (
    AllocationError,
    ConfigurationError,
    SimulationError,
)
from repro.params import daelite_parameters
from repro.sim.kernel import NAIVE_MODE, VECTOR_MODE
from repro.topology import build_mesh


@pytest.fixture
def manager():
    topology = build_mesh(3, 3)
    params = daelite_parameters(slot_table_size=16)
    network = DaeliteNetwork(topology, params, host_ni="NI11")
    return OnlineConnectionManager(network)


class TestOpenClose:
    def test_open_carries_traffic(self, manager):
        record = manager.open_connection(
            ConnectionRequest("c", "NI00", "NI22", forward_slots=2)
        )
        net = manager.network
        net.ni("NI00").submit_words(
            record.handle.forward.src_channel, [1, 2, 3], "c"
        )
        received = []
        for _ in range(500):
            net.run(2)
            received.extend(
                w.payload
                for w in net.ni("NI22").receive(
                    record.handle.forward.dst_channel
                )
            )
            if len(received) == 3:
                break
        assert received == [1, 2, 3]
        assert record.setup_cycles > 0

    def test_close_releases_slots(self, manager):
        manager.open_connection(
            ConnectionRequest("c", "NI00", "NI22", forward_slots=2)
        )
        claims = manager.claimed_slots
        assert claims > 0
        manager.close_connection("c")
        assert manager.claimed_slots == 0
        assert manager.open_labels == []

    def test_duplicate_label_rejected(self, manager):
        manager.open_connection(ConnectionRequest("c", "NI00", "NI22"))
        with pytest.raises(AllocationError, match="already open"):
            manager.open_connection(
                ConnectionRequest("c", "NI10", "NI02")
            )

    def test_close_unknown_rejected(self, manager):
        with pytest.raises(ConfigurationError, match="not open"):
            manager.close_connection("ghost")

    def test_failed_allocation_leaves_no_claims(self, manager):
        manager.open_connection(
            ConnectionRequest(
                "hog", "NI00", "NI01", forward_slots=15
            )
        )
        claims = manager.claimed_slots
        with pytest.raises(AllocationError):
            manager.open_connection(
                ConnectionRequest("late", "NI00", "NI01", forward_slots=5)
            )
        assert manager.claimed_slots == claims

    def test_churn_leaves_clean_state(self, manager):
        """Open/close cycles must not leak slots or channel state."""
        for round_number in range(3):
            for index, (src, dst) in enumerate(
                [("NI00", "NI22"), ("NI20", "NI02")]
            ):
                manager.open_connection(
                    ConnectionRequest(
                        f"r{round_number}_{index}", src, dst
                    )
                )
            for index in range(2):
                manager.close_connection(f"r{round_number}_{index}")
        assert manager.claimed_slots == 0
        assert len(manager.setup_history) == 6
        assert len(manager.teardown_history) == 6

    def test_slots_reusable_after_close(self, manager):
        manager.open_connection(
            ConnectionRequest("a", "NI00", "NI01", forward_slots=15)
        )
        manager.close_connection("a")
        manager.open_connection(
            ConnectionRequest("b", "NI00", "NI01", forward_slots=15)
        )


class TestMulticastLifecycle:
    def test_open_close_multicast(self, manager):
        record = manager.open_multicast(
            MulticastRequest("m", "NI00", ("NI22", "NI20"), slots=2)
        )
        net = manager.network
        net.ni("NI00").submit_words(
            record.handle.src_channel, [5, 6], "m"
        )
        net.run(300)
        for dst in ("NI22", "NI20"):
            got = net.ni(dst).receive(record.handle.dst_channels[dst])
            assert [w.payload for w in got] == [5, 6]
        manager.close_multicast("m")
        assert manager.claimed_slots == 0

    def test_duplicate_multicast_rejected(self, manager):
        manager.open_multicast(
            MulticastRequest("m", "NI00", ("NI22",))
        )
        with pytest.raises(AllocationError):
            manager.open_multicast(
                MulticastRequest("m", "NI00", ("NI20",))
            )


class TestStatistics:
    def test_mean_setup(self, manager):
        assert manager.mean_setup_cycles() is None
        manager.open_connection(ConnectionRequest("a", "NI00", "NI22"))
        manager.open_connection(ConnectionRequest("b", "NI20", "NI02"))
        assert manager.mean_setup_cycles() > 0

    def test_traffic_survives_neighbor_churn(self, manager):
        """Opening and closing other connections never perturbs an
        established stream (the paper's dynamic-reconfiguration
        scenario, with run-time allocation)."""
        stream = manager.open_connection(
            ConnectionRequest("stream", "NI00", "NI22", forward_slots=2)
        )
        net = manager.network
        words = 150
        net.ni("NI00").submit_words(
            stream.handle.forward.src_channel,
            list(range(words)),
            "stream",
        )
        received = []

        def pump(cycles):
            for _ in range(cycles):
                net.run(1)
                received.extend(
                    w.payload
                    for w in net.ni("NI22").receive(
                        stream.handle.forward.dst_channel
                    )
                )

        pump(60)
        manager.open_connection(
            ConnectionRequest("temp", "NI20", "NI02", forward_slots=3)
        )
        pump(60)
        manager.close_connection("temp")
        for _ in range(5000):
            pump(1)
            if len(received) >= words:
                break
        assert received == list(range(words))
        assert net.total_dropped_words == 0


class TestSequentialOpens:
    @pytest.mark.parametrize("mode", [NAIVE_MODE, VECTOR_MODE])
    def test_back_to_back_opens_never_idle_the_tree(self, mode):
        """N opens take exactly ``sum(setup_cycles) + N`` cycles: each
        wait returns one cycle after its set-up lands and the next
        set-up starts there.  The config module sends one set-up at a
        time, so queuing all N before one wait could start none of
        them sooner."""
        network = DaeliteNetwork(
            build_mesh(4, 4),
            daelite_parameters(slot_table_size=16),
            kernel_mode=mode,
        )
        manager = OnlineConnectionManager(network)
        nis = [element.name for element in network.topology.nis]
        start = network.kernel.cycle
        records = [
            manager.open_connection(
                ConnectionRequest(f"c{index}", nis[index], nis[-1 - index])
            )
            for index in range(6)
        ]
        elapsed = network.kernel.cycle - start
        assert elapsed == sum(r.setup_cycles for r in records) + 6
        assert [r.opened_at for r in records[1:]] == [
            r.opened_at + r.setup_cycles + 1 for r in records[:-1]
        ]


class TestBlockingBudget:
    def test_verify_with_a_lost_response_times_out_in_budget(self):
        """``verify_connection`` blocks like every other manager call: a
        read whose response never arrives (no timeout budget to retry
        it) raises after ``max_op_cycles``, not the kernel's default
        million."""
        topology = build_mesh(2, 2)
        network = DaeliteNetwork(
            topology, daelite_parameters(slot_table_size=8)
        )
        manager = OnlineConnectionManager(network, max_op_cycles=3_000)
        manager.open_connection(
            ConnectionRequest("c", "NI00", "NI11", forward_slots=1)
        )
        root = network.config_tree.root
        network.config_links[f"rsp.{root}->module"].fault_hook = (
            lambda link, word: None
        )
        start = network.kernel.cycle
        with pytest.raises(SimulationError, match="within 3000 cycles"):
            manager.verify_connection("c")
        assert network.kernel.cycle == start + 3_000
