"""Integration tests: whole-platform scenarios from the paper's intro.

"SoCs typically execute various, real-time or non real-time applications
which may have diverse requirements from the interconnect, e.g., high
throughput for video, low latency to serve cache misses ... multicast or
broadcast may be required, for example for implementing cache coherence
or synchronization primitives."
"""

from __future__ import annotations

import pytest

from repro.alloc import (
    ConnectionRequest,
    MulticastRequest,
    SlotAllocator,
    UseCase,
    UseCaseManager,
)
from repro.analysis import worst_case_latency_cycles
from repro.core import DaeliteNetwork
from repro.params import daelite_parameters
from repro.staticcheck import verify_network_state
from repro.topology import build_mesh
from repro.traffic import CbrGenerator, CheckingSink, ThrottledSink


@pytest.fixture
def params():
    return daelite_parameters(slot_table_size=16)


class TestMixedWorkload:
    def test_video_cache_and_broadcast_coexist(self, params):
        """Three traffic classes share the NoC; each keeps its
        guarantees and nothing is lost."""
        mesh = build_mesh(3, 3)
        allocator = SlotAllocator(topology=mesh, params=params)
        video = allocator.allocate_connection(
            ConnectionRequest(
                "video", "NI00", "NI22", forward_slots=4, reverse_slots=1
            )
        )
        cache = allocator.allocate_connection(
            ConnectionRequest(
                "cache", "NI20", "NI02", forward_slots=1, reverse_slots=2
            )
        )
        sync = allocator.allocate_multicast(
            MulticastRequest(
                "sync", "NI11", ("NI00", "NI22", "NI20"), slots=1
            )
        )
        net = DaeliteNetwork(mesh, params, host_ni="NI11")
        video_handle = net.configure(video)
        cache_handle = net.configure(cache)
        sync_handle = net.configure_multicast(sync)
        verify_network_state(
            net, [video_handle, cache_handle, sync_handle]
        )

        video_src = net.ni("NI00")
        generator = CbrGenerator(
            "video_gen",
            lambda payload: video_src.submit(
                video_handle.forward.src_channel, payload, "video"
            ),
            period=8,
            total_words=100,
        )
        video_sink = CheckingSink(
            "video_sink",
            lambda n: net.ni("NI22").receive(
                video_handle.forward.dst_channel, n
            ),
        )
        sync_sinks = [
            CheckingSink(
                f"sync_sink_{dst}",
                (
                    lambda dst_name, ch: lambda n: net.ni(
                        dst_name
                    ).receive(ch, n)
                )(dst, sync_handle.dst_channels[dst]),
            )
            for dst in sync.dst_nis
        ]
        net.kernel.add(generator)
        net.kernel.add(video_sink)
        net.kernel.add_all(sync_sinks)

        net.ni("NI20").submit_words(
            cache_handle.forward.src_channel, [0xC0, 0xC1], "cache"
        )
        net.ni("NI11").submit_words(
            sync_handle.src_channel, list(range(20)), "sync"
        )

        net.kernel.run_until(
            lambda: video_sink.words_received >= 100
            and all(s.words_received >= 20 for s in sync_sinks)
            and net.stats.delivered_words("cache") >= 2,
            max_cycles=30_000,
        )
        assert video_sink.clean and video_sink.words_received == 100
        assert video_sink._last_seq == {"video": 99}
        for sink in sync_sinks:
            assert sink.clean and sink.words_received == 20
            assert sink._last_seq == {"sync": 19}
        assert net.total_dropped_words == 0

    def test_guarantees_hold_under_interference(self, params):
        """The latency of a 1-slot connection stays within its bound
        even while a heavy stream saturates a crossing path —
        contention-freedom is exactly this isolation."""
        mesh = build_mesh(3, 3)
        allocator = SlotAllocator(topology=mesh, params=params)
        heavy = allocator.allocate_connection(
            ConnectionRequest(
                "heavy", "NI00", "NI22", forward_slots=8
            )
        )
        light = allocator.allocate_connection(
            ConnectionRequest("light", "NI20", "NI02", forward_slots=1)
        )
        net = DaeliteNetwork(mesh, params, host_ni="NI11")
        heavy_handle = net.configure(heavy)
        light_handle = net.configure(light)
        verify_network_state(net, [heavy_handle, light_handle])
        heavy_src = net.ni("NI00")
        for payload in range(600):
            heavy_src.submit(
                heavy_handle.forward.src_channel, payload, "heavy"
            )
        heavy_sink = CheckingSink(
            "heavy_sink",
            lambda n: net.ni("NI22").receive(
                heavy_handle.forward.dst_channel, n
            ),
        )
        light_sink = CheckingSink(
            "light_sink",
            lambda n: net.ni("NI02").receive(
                light_handle.forward.dst_channel, n
            ),
        )
        net.kernel.add(heavy_sink)
        net.kernel.add(light_sink)
        net.run(50)
        net.ni("NI20").submit_words(
            light_handle.forward.src_channel, list(range(30)), "light"
        )
        net.kernel.run_until(
            lambda: light_sink.words_received >= 30, max_cycles=20_000
        )
        bound = worst_case_latency_cycles(light.forward, params)
        stats = net.stats.connections["light"]
        assert stats.max_latency <= bound
        assert net.total_dropped_words == 0

    def test_backpressure_throttles_without_loss(self, params):
        """A slow consumer on a flow-controlled channel slows the
        source via credits; every word still arrives exactly once."""
        mesh = build_mesh(2, 2)
        allocator = SlotAllocator(topology=mesh, params=params)
        conn = allocator.allocate_connection(
            ConnectionRequest("slow", "NI00", "NI11", forward_slots=4)
        )
        net = DaeliteNetwork(mesh, params)
        handle = net.configure(conn)
        sink = ThrottledSink(
            "slow_sink",
            lambda n: net.ni("NI11").receive(
                handle.forward.dst_channel, n
            ),
            period=40,  # far slower than the 4-slot allocation
        )
        net.kernel.add(sink)
        count = 50
        net.ni("NI00").submit_words(
            handle.forward.src_channel, list(range(count)), "slow"
        )
        net.kernel.run_until(
            lambda: sink.words_received >= count, max_cycles=60_000
        )
        assert sink.clean and sink.words_received == count
        assert sink._last_seq == {"slow": count - 1}
        assert net.total_dropped_words == 0


class TestUseCaseSwitch:
    def test_switch_reconfigures_live_network(self, params):
        """Compute two use cases, run the first, switch to the second
        at run time through tear-down + set-up, and verify traffic in
        the new use case."""
        mesh = build_mesh(3, 3)
        manager = UseCaseManager(topology=mesh, params=params)
        decode = ConnectionRequest(
            "decode", "NI00", "NI22", forward_slots=3
        )
        ui = ConnectionRequest("ui", "NI10", "NI12", forward_slots=1)
        record = ConnectionRequest(
            "record", "NI22", "NI00", forward_slots=2
        )
        manager.add_usecase(
            UseCase("playback", (decode, ui))
        )
        manager.add_usecase(
            UseCase("capture", (record, ui))
        )
        switch = manager.plan_switch("playback", "capture")
        assert "decode" in switch.torn_down
        assert "record" in switch.set_up

        net = DaeliteNetwork(mesh, params, host_ni="NI11")
        handles = {}
        for label in ("decode", "ui"):
            handles[label] = net.configure(
                manager.allocation("playback", label)
            )
        net.ni("NI00").submit_words(
            handles["decode"].forward.src_channel, [1, 2, 3], "decode"
        )
        net.kernel.run_until(
            lambda: net.stats.delivered_words("decode") == 3,
            max_cycles=10_000,
        )
        net.ni("NI22").receive(handles["decode"].forward.dst_channel)

        # Switch: tear down what leaves, set up what enters.
        for label in switch.torn_down:
            net.teardown(
                handles.pop(label),
                manager.allocation("playback", label),
            )
        for label in switch.set_up:
            handles[label] = net.configure(
                manager.allocation("capture", label)
            )
        # 'ui' was kept if its allocation matched; otherwise it was
        # reconfigured above.  Either way traffic must flow now.
        net.ni("NI22").submit_words(
            handles["record"].forward.src_channel, [9, 9, 9], "record"
        )
        net.kernel.run_until(
            lambda: net.stats.delivered_words("record") == 3,
            max_cycles=10_000,
        )
        assert net.total_dropped_words == 0
