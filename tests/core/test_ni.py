"""Unit tests for the daelite network interface."""

from __future__ import annotations

import pytest

from repro.core import FLAG_ENABLED, FLAG_FLOW_CONTROLLED
from repro.core.ni import NetworkInterface
from repro.errors import FlowControlError, SimulationError
from repro.params import daelite_parameters
from repro.sim import Kernel, Link, Phit, StatsCollector, Word
from repro.topology import Topology


def isolated_ni(slot_table_size=8, strict=False, stats=None):
    topology = Topology()
    ni_element = topology.add_ni("NI")
    topology.add_router("R")
    topology.connect("NI", "R")
    params = daelite_parameters(slot_table_size=slot_table_size)
    kernel = Kernel()
    ni = NetworkInterface(ni_element, params, stats=stats, strict=strict)
    kernel.add(ni)
    out_link = Link("NI->R")
    in_link = Link("R->NI")
    kernel.add_register(out_link.register)
    kernel.add_register(in_link.register)
    ni.out_link = out_link
    ni.in_link = in_link
    return kernel, ni, out_link, in_link


def enable_source(ni, channel=0, credits=8, flow_controlled=True):
    source = ni.source_channel(channel)
    source.flags = FLAG_ENABLED | (
        FLAG_FLOW_CONTROLLED if flow_controlled else 0
    )
    source.credit_counter = credits
    return source


class TestInjection:
    def test_word_reaches_link_one_slot_after_decision(self):
        kernel, ni, out, _ = isolated_ni()
        enable_source(ni)
        ni.injection_table.set_slot(0, 0)
        ni.submit(0, 0xAA)
        # Decision in slot 0 (cycles 0-1); two pipeline stages; link
        # carries the word during slot 1 (cycles 2-3), visible at 3.
        kernel.step(3)
        assert out.incoming.word is not None
        assert out.incoming.word.payload == 0xAA

    def test_no_injection_outside_slot(self):
        kernel, ni, out, _ = isolated_ni()
        enable_source(ni)
        ni.injection_table.set_slot(2, 0)
        ni.submit(0, 1)
        kernel.step(3)  # slot 0/1 territory
        assert out.incoming.is_idle

    def test_two_words_per_slot(self):
        kernel, ni, out, _ = isolated_ni()
        enable_source(ni)
        ni.injection_table.set_slot(0, 0)
        ni.submit_words(0, [1, 2, 3])
        seen = []
        for _ in range(20):
            kernel.step(1)
            if out.incoming.word is not None:
                seen.append(out.incoming.word.payload)
        # Slot 0 carries words 1, 2; word 3 waits a full wheel.
        assert seen[:2] == [1, 2]
        assert len(seen) == 3

    def test_blocked_without_credits(self):
        kernel, ni, out, _ = isolated_ni()
        enable_source(ni, credits=0)
        ni.injection_table.set_slot(0, 0)
        ni.submit(0, 1)
        kernel.step(8)
        assert out.incoming.is_idle
        assert ni.pending_injections(0) == 1

    def test_disabled_channel_never_sends(self):
        kernel, ni, out, _ = isolated_ni()
        source = ni.source_channel(0)
        source.credit_counter = 8  # credits but not enabled
        ni.injection_table.set_slot(0, 0)
        ni.submit(0, 1)
        kernel.step(8)
        assert out.incoming.is_idle

    def test_unchecked_channel_ignores_credits(self):
        kernel, ni, out, _ = isolated_ni()
        enable_source(ni, credits=0, flow_controlled=False)
        ni.injection_table.set_slot(0, 0)
        ni.submit(0, 5)
        kernel.step(3)
        assert out.incoming.word.payload == 5

    def test_injection_recorded_in_stats(self):
        stats = StatsCollector()
        kernel, ni, out, _ = isolated_ni(stats=stats)
        enable_source(ni)
        ni.injection_table.set_slot(0, 0)
        ni.submit(0, 1, connection="x")
        kernel.step(4)
        assert stats.injected_words("x") == 1

    def test_sequence_numbers_per_channel(self):
        _, ni, _, _ = isolated_ni()
        first = ni.submit(0, 10)
        second = ni.submit(0, 11)
        other = ni.submit(1, 12)
        assert (first.sequence, second.sequence) == (0, 1)
        assert other.sequence == 0


class TestArrival:
    def test_word_deposited_by_arrival_slot(self):
        kernel, ni, _, in_link = isolated_ni()
        ni.arrival_table.set_slot(0, 3)
        in_link.send_word(Word(payload=0xBB, connection="c"))
        kernel.step(2)  # visible at 1, processed at 1
        words = ni.receive(3)
        assert [word.payload for word in words] == [0xBB]

    def test_receive_on_a_channel_without_endpoint_creates_none(self):
        """A polled sink on a torn-down channel must not bring back the
        endpoint ``quiesce_channel`` dropped."""
        _, ni, _, _ = isolated_ni()
        ni.dest_channel(3)
        ni.quiesce_channel(3)
        assert ni.receive(3) == []
        assert ni.receiver(3)(4) == []
        assert 3 not in ni.dest_channels

    def test_receive_on_a_live_channel_returns_its_words(self):
        kernel, ni, _, in_link = isolated_ni()
        ni.arrival_table.set_slot(0, 3)
        in_link.send_word(Word(payload=0xCC, connection="c"))
        kernel.step(2)
        assert [word.payload for word in ni.receiver(3)(4)] == [0xCC]
        assert ni.receive(3) == []
        assert 3 in ni.dest_channels

    def test_unmapped_slot_drops(self):
        kernel, ni, _, in_link = isolated_ni()
        in_link.send_word(Word(payload=1))
        kernel.step(2)
        assert ni.dropped_words == 1

    def test_unmapped_slot_strict_raises(self):
        kernel, ni, _, in_link = isolated_ni(strict=True)
        in_link.send_word(Word(payload=1))
        with pytest.raises(SimulationError, match="unmapped"):
            kernel.step(2)

    def test_credits_routed_to_paired_source(self):
        kernel, ni, _, in_link = isolated_ni()
        dest = ni.dest_channel(3)
        dest.paired_source = 1
        source = ni.source_channel(1)
        source.credit_counter = 0
        ni.arrival_table.set_slot(0, 3)
        in_link.send(Phit(credit_bits=5))
        kernel.step(2)
        assert source.credit_counter == 5

    def test_credits_without_pairing_fail(self):
        kernel, ni, _, in_link = isolated_ni()
        ni.arrival_table.set_slot(0, 3)
        in_link.send(Phit(credit_bits=5))
        with pytest.raises(FlowControlError, match="paired"):
            kernel.step(2)

    def test_ejection_recorded_in_stats(self):
        stats = StatsCollector()
        kernel, ni, _, in_link = isolated_ni(stats=stats)
        word = Word(payload=1, connection="c", sequence=0)
        stats.record_injection(word, 0)
        ni.arrival_table.set_slot(0, 3)
        in_link.send_word(word)
        kernel.step(2)
        assert stats.delivered_words("c") == 1


class TestCreditReturn:
    def test_pending_credits_ride_first_cycle_of_slot(self):
        kernel, ni, out, _ = isolated_ni()
        source = enable_source(ni, channel=0)
        source.paired_arrival = 2
        dest = ni.dest_channel(2)
        dest.flags = FLAG_ENABLED | FLAG_FLOW_CONTROLLED
        dest.pending_credits = 3
        ni.injection_table.set_slot(0, 0)
        # No data queued: a single credit-only phit goes out in slot 0.
        seen = []
        for _ in range(8):
            kernel.step(1)
            if out.incoming.credit_bits:
                seen.append(out.incoming.credit_bits)
        assert seen == [3]
        assert dest.pending_credits == 0

    def test_wrong_kind_rejected(self):
        topology = Topology()
        router = topology.add_router("R")
        with pytest.raises(SimulationError, match="not an NI"):
            NetworkInterface(router, daelite_parameters())
