"""Unit tests for the daelite router data path."""

from __future__ import annotations

import pytest

from repro.core.router import Router
from repro.errors import SimulationError
from repro.params import daelite_parameters
from repro.sim import Kernel, Link, Phit, Word
from repro.topology import Topology


def isolated_router(ports=3, slot_table_size=8, strict=False):
    """A router with links on every port, on its own kernel."""
    topology = Topology()
    router_element = topology.add_router("R")
    for index in range(ports):
        topology.add_router(f"N{index}")
        topology.connect("R", f"N{index}")
    params = daelite_parameters(slot_table_size=slot_table_size)
    kernel = Kernel()
    router = Router(router_element, params, strict=strict)
    kernel.add(router)
    in_links, out_links = [], []
    for index in range(ports):
        in_link = Link(f"in{index}")
        out_link = Link(f"out{index}")
        kernel.add_register(in_link.register)
        kernel.add_register(out_link.register)
        router.in_links[index] = in_link
        router.out_links[index] = out_link
        in_links.append(in_link)
        out_links.append(out_link)
    return kernel, router, in_links, out_links


class TestRouterForwarding:
    def test_word_crosses_in_two_cycles(self):
        kernel, router, ins, outs = isolated_router()
        # Slot occupied for the whole wheel so timing is easy to probe.
        for slot in range(8):
            router.slot_table.set_entry(output=1, slot=slot, input_port=0)
        word = Word(payload=7)
        ins[0].send_word(word)  # driven at cycle 0
        kernel.step(1)  # word visible on in-link at cycle 1
        assert outs[1].incoming.is_idle
        kernel.step(2)  # crossbar at 1, out drive at 2, visible at 3
        assert outs[1].incoming.word == word

    def test_slot_gating(self):
        kernel, router, ins, outs = isolated_router()
        router.slot_table.set_entry(output=1, slot=3, input_port=0)
        # Drive a word whose crossbar cycle falls outside slot 3.
        ins[0].send_word(Word(payload=1))
        kernel.step(4)
        assert router.dropped_words == 1
        kernel.step(2)
        assert all(out.words_carried == 0 for out in outs if out is not None)

    def test_multicast_duplicates_phit(self):
        kernel, router, ins, outs = isolated_router()
        for slot in range(8):
            router.slot_table.set_entry(1, slot, 0)
            router.slot_table.set_entry(2, slot, 0)
        word = Word(payload=9)
        ins[0].send_word(word)
        kernel.step(3)
        assert outs[1].incoming.word == word
        assert outs[2].incoming.word == word

    def test_strict_mode_raises_on_drop(self):
        kernel, router, ins, outs = isolated_router(strict=True)
        ins[0].send_word(Word(payload=1))
        with pytest.raises(SimulationError, match="misconfigured"):
            kernel.step(4)

    def test_credits_forwarded_with_data(self):
        kernel, router, ins, outs = isolated_router()
        for slot in range(8):
            router.slot_table.set_entry(1, slot, 0)
        ins[0].send(Phit(word=Word(payload=1), credit_bits=5))
        kernel.step(3)
        assert outs[1].incoming.credit_bits == 5

    def test_credit_only_phit_forwarded(self):
        kernel, router, ins, outs = isolated_router()
        for slot in range(8):
            router.slot_table.set_entry(1, slot, 0)
        ins[0].send(Phit(credit_bits=3))
        kernel.step(3)
        assert outs[1].incoming.credit_bits == 3
        assert router.dropped_words == 0  # credit-only is not a word

    def test_wrong_kind_rejected(self):
        topology = Topology()
        ni = topology.add_ni("NI")
        with pytest.raises(SimulationError, match="not a router"):
            Router(ni, daelite_parameters())


class TestRouterConfigActions:
    def test_config_action_type_guard(self):
        kernel, router, _, _ = isolated_router()
        from repro.core.config_protocol import (
            ChannelWriteAction,
            ChannelField,
            Direction,
        )

        with pytest.raises(SimulationError, match="non-router"):
            router._apply(
                ChannelWriteAction(
                    Direction.INJECT, 0, ChannelField.CREDIT, 1
                )
            )
