"""Failure injection: the simulator must *catch* broken invariants.

These tests deliberately corrupt schedules, packets, and flow control,
and assert that the model's safety nets (register collision detection,
drop counters, protocol validation, credit accounting) fire instead of
silently producing wrong results.
"""

from __future__ import annotations

import pytest

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.alloc.spec import AllocatedChannel
from repro.core import DaeliteNetwork, Opcode
from repro.errors import (
    FlowControlError,
    ProtocolError,
    ScheduleError,
    SimulationError,
)
from repro.params import daelite_parameters
from repro.topology import build_mesh


@pytest.fixture
def params():
    return daelite_parameters(slot_table_size=8)


def conflicting_connections():
    """Two hand-built channels that collide on a shared link slot."""
    a = AllocatedChannel(
        label="a",
        path=("NI00", "R00", "R01", "NI01"),
        slots=frozenset({0}),
        slot_table_size=8,
    )
    b = AllocatedChannel(
        label="b",
        path=("NI10", "R10", "R00", "R01", "NI01"),
        slots=frozenset({7}),  # reaches R00->R01 in the same slot as a
        slot_table_size=8,
    )
    return a, b


class TestScheduleCorruption:
    def test_slot_table_refuses_conflicting_write(self, params):
        """Programming two connections into the same router entry is
        rejected at the slot-table level."""
        mesh = build_mesh(2, 2)
        net = DaeliteNetwork(mesh, params, host_ni="NI00")
        router = net.router("R00")
        router.slot_table.set_entry(output=1, slot=3, input_port=0)
        with pytest.raises(ScheduleError, match="refusing"):
            router.slot_table.set_entry(output=1, slot=3, input_port=2)

    def test_colliding_words_detected_at_register(self, params):
        """If a corrupted schedule does route two words to one output
        in the same cycle, the register collision detector fires."""
        mesh = build_mesh(2, 2)
        net = DaeliteNetwork(mesh, params, host_ni="NI00")
        router = net.router("R00")
        # Two inputs feeding the same output in the same slot (bypass
        # the slot-table guard by using different outputs' tables --
        # impossible -- so drive the crossbar register directly).
        from repro.sim import Phit, Word

        router._xbar_regs[0].drive(Phit(word=Word(payload=1)))
        with pytest.raises(SimulationError, match="driven twice"):
            router._xbar_regs[0].drive(Phit(word=Word(payload=2)))

    def test_misrouted_word_dropped_and_counted(self, params):
        """A word arriving in a slot with no output entry is dropped
        (and raises in strict mode) — the symptom of a slot-table
        corruption."""
        mesh = build_mesh(2, 2)
        allocator = SlotAllocator(topology=mesh, params=params)
        conn = allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI11", forward_slots=1)
        )
        net = DaeliteNetwork(mesh, params, host_ni="NI00")
        handle = net.configure(conn)
        # Corrupt: clear the second router's entry.
        victim = net.router(conn.forward.path[2])
        for slot in range(params.slot_table_size):
            for output in range(victim.ports):
                victim.slot_table.clear_entry(output, slot)
        net.ni("NI00").submit_words(
            handle.forward.src_channel, [1, 2, 3], "c"
        )
        net.run(200)
        assert victim.dropped_words == 3
        assert net.stats.delivered_words("c") == 0


class TestProtocolCorruption:
    def test_garbage_header_rejected(self, params):
        from repro.core import ConfigDecoder
        from repro.topology import ElementKind

        decoder = ConfigDecoder(1, ElementKind.ROUTER, 8)
        with pytest.raises(ProtocolError, match="opcode"):
            decoder.feed(0b0000000)

    def test_truncated_packet_rejected_at_commit(self, params):
        from repro.core import ConfigDecoder
        from repro.topology import ElementKind

        decoder = ConfigDecoder(3, ElementKind.ROUTER, 8)
        decoder.feed(int(Opcode.PATH_SETUP))
        decoder.feed(0)
        decoder.feed(0)
        decoder.feed(3)
        with pytest.raises(ProtocolError, match="ended between"):
            decoder.feed(None)

    def test_simultaneous_responses_detected(self, params):
        """Violating the one-request-at-a-time policy corrupts the
        response path; the model reports it rather than merging."""
        mesh = build_mesh(2, 2)
        net = DaeliteNetwork(mesh, params, host_ni="NI00")
        # Two equal-depth NIs answer at once; their responses meet at
        # the shared tree ancestor R00 in the same cycle.
        assert (
            net.config_tree.depth["NI10"]
            == net.config_tree.depth["NI01"]
        )
        net.ni("NI10").config.response_queue.append(1)
        net.ni("NI01").config.response_queue.append(2)
        with pytest.raises(SimulationError, match="simultaneous"):
            net.run(20)


class TestFlowControlCorruption:
    def test_forged_credits_detected(self, params):
        """Credits beyond the buffer capacity (a corrupted counter)
        trip the overflow check."""
        mesh = build_mesh(2, 2)
        allocator = SlotAllocator(topology=mesh, params=params)
        conn = allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI11")
        )
        net = DaeliteNetwork(mesh, params, host_ni="NI00")
        handle = net.configure(conn)
        source = net.ni("NI00").source_channel(
            handle.forward.src_channel
        )
        with pytest.raises(FlowControlError, match="overflow"):
            source.add_credits(params.max_credit_value)

    def test_queue_overflow_detected(self, params):
        """Delivering into a full flow-controlled queue (credits were
        not honoured) raises instead of silently dropping."""
        from repro.core.credits import DestChannel
        from repro.core import FLAG_ENABLED, FLAG_FLOW_CONTROLLED
        from repro.sim import Word

        dest = DestChannel(
            channel=0,
            capacity=1,
            flags=FLAG_ENABLED | FLAG_FLOW_CONTROLLED,
        )
        dest.deliver(Word(payload=1))
        with pytest.raises(FlowControlError, match="overflow"):
            dest.deliver(Word(payload=2))


class TestStatsCorruption:
    def test_duplicate_delivery_detected(self, params):
        from repro.sim import StatsCollector, Word

        stats = StatsCollector()
        word = Word(payload=0, connection="c", sequence=0)
        stats.record_injection(word, 0)
        stats.record_ejection(word, 5, destination="NI1")
        with pytest.raises(SimulationError, match="out-of-order"):
            stats.record_ejection(word, 6, destination="NI1")
