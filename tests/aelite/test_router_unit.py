"""Unit tests for the aelite source-routed router in isolation."""

from __future__ import annotations

import pytest

from repro.aelite import AeliteHeader
from repro.aelite.router import AeliteRouter
from repro.errors import SimulationError
from repro.params import aelite_parameters
from repro.sim import Kernel, Link, Word
from repro.topology import Topology


def isolated_router(ports=3, strict=False):
    topology = Topology()
    element = topology.add_router("R")
    for index in range(ports):
        topology.add_router(f"N{index}")
        topology.connect("R", f"N{index}")
    params = aelite_parameters(slot_table_size=8)
    kernel = Kernel()
    router = AeliteRouter(element, params, strict=strict)
    kernel.add(router)
    ins, outs = [], []
    for index in range(ports):
        in_link = Link(f"in{index}")
        out_link = Link(f"out{index}")
        kernel.add_register(in_link.register)
        kernel.add_register(out_link.register)
        router.in_links[index] = in_link
        router.out_links[index] = out_link
        ins.append(in_link)
        outs.append(out_link)
    return kernel, router, ins, outs


def drive_packet(kernel, link, header, payloads):
    """Drive a header and its payload words on consecutive cycles."""
    link.send_word(header)
    kernel.step(1)
    for payload in payloads:
        link.send_word(Word(payload=payload))
        kernel.step(1)


class TestSourceRouting:
    def test_header_pops_own_hop(self):
        kernel, router, ins, outs = isolated_router()
        header = AeliteHeader(path=(2, 1), queue=0, length_words=1)
        ins[0].send_word(header)
        kernel.step(4)  # link + 2 stages + out link
        arrived = outs[2].incoming.word
        assert isinstance(arrived, AeliteHeader)
        assert arrived.path == (1,)

    def test_three_cycle_pipeline(self):
        kernel, router, ins, outs = isolated_router()
        header = AeliteHeader(path=(1,), queue=0, length_words=1)
        ins[0].send_word(header)
        kernel.step(3)
        assert outs[1].incoming.is_idle  # not yet
        kernel.step(1)
        assert outs[1].incoming.word is not None

    def test_payload_follows_header_output(self):
        kernel, router, ins, outs = isolated_router()
        header = AeliteHeader(path=(2,), queue=0, length_words=3)
        drive_packet(kernel, ins[0], header, [10, 11])
        kernel.step(6)
        # All three words emerged on output 2 (header then payload).
        assert [out.words_carried for out in outs] == [0, 0, 3]

    def test_next_packet_may_turn_elsewhere(self):
        kernel, router, ins, outs = isolated_router()
        first = AeliteHeader(path=(1,), queue=0, length_words=2)
        second = AeliteHeader(path=(2,), queue=0, length_words=2)
        drive_packet(kernel, ins[0], first, [1])
        drive_packet(kernel, ins[0], second, [2])
        kernel.step(7)
        assert [out.words_carried for out in outs] == [0, 2, 2]
        assert router.dropped_words == 0

    def test_stray_payload_dropped(self):
        kernel, router, ins, outs = isolated_router()
        ins[0].send_word(Word(payload=5))  # no packet in progress
        kernel.step(2)
        assert router.dropped_words == 1

    def test_stray_payload_strict_raises(self):
        kernel, router, ins, outs = isolated_router(strict=True)
        ins[0].send_word(Word(payload=5))
        with pytest.raises(SimulationError, match="outside any packet"):
            kernel.step(2)

    def test_bad_output_port_rejected(self):
        kernel, router, ins, outs = isolated_router(ports=2)
        header = AeliteHeader(path=(5,), queue=0, length_words=1)
        ins[0].send_word(header)
        with pytest.raises(SimulationError, match="names output"):
            kernel.step(2)

    def test_two_inputs_interleave_without_interference(self):
        kernel, router, ins, outs = isolated_router()
        drive_packet(
            kernel,
            ins[0],
            AeliteHeader(path=(1,), queue=0, length_words=2),
            [1],
        )
        drive_packet(
            kernel,
            ins[2],
            AeliteHeader(path=(0,), queue=1, length_words=2),
            [2],
        )
        kernel.step(7)
        assert [out.words_carried for out in outs] == [2, 2, 0]
        assert router.dropped_words == 0

    def test_wrong_kind_rejected(self):
        topology = Topology()
        ni = topology.add_ni("NI")
        with pytest.raises(SimulationError, match="not a router"):
            AeliteRouter(ni, aelite_parameters())
