"""Tests for the host driver and full daelite network behaviour."""

from __future__ import annotations

import pytest

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import ChannelField, DaeliteNetwork, Direction
from repro.errors import ConfigurationError, TopologyError
from repro.topology import build_mesh

from ..conftest import make_connected_network, pump_until_delivered


class TestConnectionLifecycle:
    def test_data_flows_after_setup(self, mesh22, params8):
        net, conn, handle = make_connected_network(mesh22, params8)
        net.ni("NI00").submit_words(
            handle.forward.src_channel, [7, 8, 9], connection="conn"
        )
        payloads = pump_until_delivered(
            net, "NI11", handle.forward.dst_channel, 3
        )
        assert payloads == [7, 8, 9]

    def test_bidirectional_data(self, mesh22, params8):
        net, conn, handle = make_connected_network(mesh22, params8)
        net.ni("NI11").submit_words(
            handle.reverse.src_channel, [5], connection="conn.rev"
        )
        payloads = pump_until_delivered(
            net, "NI00", handle.reverse.dst_channel, 1
        )
        assert payloads == [5]

    def test_credits_sustain_long_streams(self, mesh22, params8):
        """Streams far longer than the 8-word buffer need the credit
        return path to work."""
        net, conn, handle = make_connected_network(mesh22, params8)
        count = 10 * params8.channel_buffer_words
        net.ni("NI00").submit_words(
            handle.forward.src_channel,
            list(range(count)),
            connection="conn",
        )
        payloads = pump_until_delivered(
            net, "NI11", handle.forward.dst_channel, count
        )
        assert payloads == list(range(count))
        assert net.total_dropped_words == 0

    def test_teardown_stops_traffic(self, mesh22, params8):
        net, conn, handle = make_connected_network(mesh22, params8)
        net.teardown(handle, conn)
        src = net.ni("NI00")
        src.submit_words(
            handle.forward.src_channel, [1, 2], connection="late"
        )
        net.run(200)
        # The disabled source never injects.
        assert src.pending_injections(handle.forward.src_channel) == 2
        assert net.stats.injected_words("late") == 0

    def test_reconfiguration_during_operation(self, mesh33, params8):
        """'An application can use certain connections while others are
        being set up and torn down.'"""
        allocator = SlotAllocator(topology=mesh33, params=params8)
        stream = allocator.allocate_connection(
            ConnectionRequest("stream", "NI00", "NI22", forward_slots=2)
        )
        net = DaeliteNetwork(mesh33, params8, host_ni="NI11")
        stream_handle = net.configure(stream)
        count = 200
        net.ni("NI00").submit_words(
            stream_handle.forward.src_channel,
            list(range(count)),
            connection="stream",
        )
        # While the stream runs, set up (and use) a second connection.
        second = allocator.allocate_connection(
            ConnectionRequest("second", "NI20", "NI02", forward_slots=1)
        )
        second_handle = net.host.setup_connection(second)
        received = []
        for _ in range(4000):
            net.run(2)
            received.extend(
                w.payload
                for w in net.ni("NI22").receive(
                    stream_handle.forward.dst_channel
                )
            )
            if second_handle.done and len(received) >= count:
                break
        assert received == list(range(count))
        net.ni("NI20").submit_words(
            second_handle.forward.src_channel, [42], connection="second"
        )
        payloads = pump_until_delivered(
            net, "NI02", second_handle.forward.dst_channel, 1
        )
        assert payloads == [42]
        assert net.total_dropped_words == 0

    def test_setup_cycles_measured(self, mesh22, params8):
        net, conn, handle = make_connected_network(mesh22, params8)
        assert handle.done
        assert handle.setup_cycles > 0
        assert handle.config_words == sum(
            len(r.packet) for r in handle.requests
        )


class TestTeardownIdempotence:
    """Tear-down must be exactly-once: a double tear-down would free
    channel indices twice and clear slots another connection may since
    have claimed."""

    def test_double_teardown_rejected(self, mesh22, params8):
        net, conn, handle = make_connected_network(mesh22, params8)
        net.teardown(handle, conn)
        with pytest.raises(ConfigurationError, match="already torn down"):
            net.host.teardown_connection(handle, conn)

    def test_teardown_of_inflight_setup_rejected(self, mesh22, params8):
        allocator = SlotAllocator(topology=mesh22, params=params8)
        conn = allocator.allocate_connection(
            ConnectionRequest("conn", "NI00", "NI11", forward_slots=2)
        )
        net = DaeliteNetwork(mesh22, params8)
        handle = net.host.setup_connection(conn)
        assert not handle.done  # packets still in the config network
        with pytest.raises(ConfigurationError, match="still in flight"):
            net.host.teardown_connection(handle, conn)
        # Once the set-up lands, the same call succeeds.
        net.run_until_configured(handle)
        net.teardown(handle, conn)

    def test_teardown_of_unconfigured_handle_rejected(
        self, mesh22, params8
    ):
        from repro.core.host import ConnectionHandle

        allocator = SlotAllocator(topology=mesh22, params=params8)
        conn = allocator.allocate_connection(
            ConnectionRequest("conn", "NI00", "NI11", forward_slots=2)
        )
        net = DaeliteNetwork(mesh22, params8)
        ghost = ConnectionHandle(label="ghost")
        with pytest.raises(ConfigurationError, match="never fully set up"):
            net.host.teardown_connection(ghost, conn)

    def test_replay_of_torn_down_handle_rejected(self, mesh22, params8):
        net, conn, handle = make_connected_network(mesh22, params8)
        net.teardown(handle, conn)
        with pytest.raises(ConfigurationError, match="already torn down"):
            net.host.replay_connection(handle, conn)

    def test_double_multicast_teardown_rejected(self, params8):
        from repro.alloc import MulticastRequest

        mesh = build_mesh(3, 3)
        allocator = SlotAllocator(topology=mesh, params=params8)
        tree = allocator.allocate_multicast(
            MulticastRequest("mc", "NI00", ("NI20", "NI02"), slots=1)
        )
        net = DaeliteNetwork(mesh, params8)
        handle = net.configure_multicast(tree)
        teardown = net.host.teardown_multicast(handle)
        net.run_until_configured(teardown)
        with pytest.raises(ConfigurationError, match="already torn down"):
            net.host.teardown_multicast(handle)

    def test_multicast_teardown_of_inflight_setup_rejected(self, params8):
        from repro.alloc import MulticastRequest

        mesh = build_mesh(3, 3)
        allocator = SlotAllocator(topology=mesh, params=params8)
        tree = allocator.allocate_multicast(
            MulticastRequest("mc", "NI00", ("NI20", "NI02"), slots=1)
        )
        net = DaeliteNetwork(mesh, params8)
        handle = net.host.setup_multicast(tree)
        with pytest.raises(ConfigurationError, match="still in flight"):
            net.host.teardown_multicast(handle)


class TestHostBookkeeping:
    def test_channel_indices_unique_per_ni(self, mesh22, params8):
        net = DaeliteNetwork(mesh22, params8, host_ni="NI00")
        indices = [
            net.host.allocate_channel_index("NI00") for _ in range(5)
        ]
        assert indices == list(range(5))

    def test_channel_index_exhaustion(self, mesh22, params8):
        net = DaeliteNetwork(mesh22, params8, host_ni="NI00")
        for _ in range(64):
            net.host.allocate_channel_index("NI01")
        with pytest.raises(ConfigurationError, match="exhausted"):
            net.host.allocate_channel_index("NI01")

    def test_read_channel_register(self, mesh22, params8):
        net, conn, handle = make_connected_network(mesh22, params8)
        request = net.host.read_channel_register(
            "NI00",
            Direction.INJECT,
            handle.forward.src_channel,
            ChannelField.CREDIT,
        )
        net.kernel.run_until(lambda: request.done, max_cycles=10_000)
        assert request.responses == [params8.channel_buffer_words]

    def test_configure_bus(self, mesh22, params8):
        net = DaeliteNetwork(mesh22, params8, host_ni="NI00")
        request = net.host.configure_bus("NI10", [9, 8, 7])
        net.kernel.run_until(lambda: request.done, max_cycles=10_000)
        assert net.ni("NI10").bus_config_words == [9, 8, 7]

    def test_setup_paths_is_two_packets(self, mesh22, params8):
        allocator = SlotAllocator(topology=mesh22, params=params8)
        conn = allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI11")
        )
        net = DaeliteNetwork(mesh22, params8, host_ni="NI00")
        handle = net.host.setup_paths(conn)
        assert len(handle.requests) == 2
        net.run_until_configured(handle)
        assert handle.setup_cycles > 0


class TestNetworkAccessors:
    def test_lookup_errors(self, mesh22, params8):
        net = DaeliteNetwork(mesh22, params8)
        with pytest.raises(TopologyError):
            net.ni("R00")
        with pytest.raises(TopologyError):
            net.router("NI00")
        with pytest.raises(TopologyError):
            net.link("NI00", "NI11")

    def test_default_host_is_first_ni(self, mesh22, params8):
        net = DaeliteNetwork(mesh22, params8)
        assert net.host_element == mesh22.nis[0].name

    def test_needs_an_ni(self, params8):
        topology = build_mesh(2, 2, nis_per_router=0)
        with pytest.raises(TopologyError):
            DaeliteNetwork(topology, params8)
