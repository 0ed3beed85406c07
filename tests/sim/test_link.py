"""Unit tests for data and configuration links."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import IDLE_PHIT, Kernel, Link, NarrowLink, Phit, Word


class TestLink:
    def test_one_cycle_delay(self):
        kernel = Kernel()
        link = Link("a->b")
        kernel.add_register(link.register)
        word = Word(payload=5)
        link.send_word(word)
        assert link.incoming.is_idle
        kernel.step(1)
        assert link.incoming.word == word

    def test_idle_after_value_passes(self):
        kernel = Kernel()
        link = Link("a->b")
        kernel.add_register(link.register)
        link.send_word(Word(payload=1))
        kernel.step(2)
        assert link.incoming.is_idle

    def test_counts_words_not_credit_only_phits(self):
        link = Link("a->b")
        link.send_word(Word(payload=1))
        link.register.latch()
        link.send(Phit(credit_bits=3))
        link.register.latch()
        assert link.words_carried == 1

    def test_double_send_collides(self):
        link = Link("a->b")
        link.send_word(Word(payload=1))
        with pytest.raises(SimulationError):
            link.send_word(Word(payload=2))

    def test_idle_phit_not_counted(self):
        link = Link("a->b")
        link.send(IDLE_PHIT)
        assert link.words_carried == 0


class TestLinkFaultHook:
    def test_passthrough_hook_preserves_traffic(self):
        kernel = Kernel()
        link = Link("a->b")
        kernel.add_register(link.register)
        seen = []
        link.fault_hook = lambda l, phit: (seen.append(phit), phit)[1]
        word = Word(payload=9)
        link.send_word(word)
        kernel.step(1)
        assert link.incoming.word == word
        assert seen == [Phit(word=word)]
        assert link.words_carried == 1

    def test_hook_can_substitute_a_corrupted_phit(self):
        kernel = Kernel()
        link = Link("a->b")
        kernel.add_register(link.register)
        link.fault_hook = lambda l, phit: Phit(
            word=Word(payload=phit.word.payload ^ 1),
            credit_bits=phit.credit_bits,
        )
        link.send_word(Word(payload=8))
        kernel.step(1)
        assert link.incoming.word.payload == 9

    def test_hook_none_drops_the_phit(self):
        kernel = Kernel()
        link = Link("a->b")
        kernel.add_register(link.register)
        link.fault_hook = lambda l, phit: None
        link.send_word(Word(payload=1))
        kernel.step(1)
        # The wires stayed idle: nothing was driven, nothing counted.
        assert link.incoming.is_idle
        assert link.words_carried == 0

    def test_counters_see_post_fault_traffic(self):
        link = Link("a->b")
        calls = iter([None, Phit(word=Word(payload=3))])
        link.fault_hook = lambda l, phit: next(calls)
        link.send_word(Word(payload=1))  # dropped
        link.register.latch()
        link.send_word(Word(payload=2))  # substituted
        link.register.latch()
        assert link.words_carried == 1

    def test_hook_receives_the_link_itself(self):
        link = Link("a->b")
        names = []
        link.fault_hook = lambda l, phit: (names.append(l.name), phit)[1]
        link.send_word(Word(payload=1))
        assert names == ["a->b"]


class TestNarrowLink:
    def test_width_enforced(self):
        link = NarrowLink("cfg", width_bits=7)
        with pytest.raises(SimulationError, match="exceeds"):
            link.send(1 << 7)

    def test_in_range_word_passes(self):
        kernel = Kernel()
        link = NarrowLink("cfg", width_bits=7)
        kernel.add_register(link.register)
        link.send(0x55)
        kernel.step(1)
        assert link.incoming == 0x55

    def test_idle_is_none(self):
        link = NarrowLink("cfg")
        assert link.incoming is None

    def test_zero_width_rejected(self):
        with pytest.raises(SimulationError):
            NarrowLink("cfg", width_bits=0)


class TestNarrowLinkFaultHook:
    def test_width_checked_before_hook_runs(self):
        link = NarrowLink("cfg", width_bits=7)
        called = []
        link.fault_hook = lambda l, word: (called.append(word), word)[1]
        with pytest.raises(SimulationError, match="exceeds"):
            link.send(1 << 7)
        assert called == []

    def test_hook_can_corrupt_a_word(self):
        kernel = Kernel()
        link = NarrowLink("cfg", width_bits=7)
        kernel.add_register(link.register)
        link.fault_hook = lambda l, word: word ^ 0x40
        link.send(0x15)
        kernel.step(1)
        assert link.incoming == 0x55
        assert link.words_carried == 1

    def test_hook_none_models_valid_line_low(self):
        kernel = Kernel()
        link = NarrowLink("cfg", width_bits=7)
        kernel.add_register(link.register)
        link.fault_hook = lambda l, word: None
        link.send(0x2A)
        kernel.step(1)
        assert link.incoming is None
        assert link.words_carried == 0

    def test_clearing_hook_restores_passthrough(self):
        kernel = Kernel()
        link = NarrowLink("cfg", width_bits=7)
        kernel.add_register(link.register)
        link.fault_hook = lambda l, word: None
        link.send(1)
        kernel.step(1)
        link.fault_hook = None
        link.send(2)
        kernel.step(1)
        assert link.incoming == 2
        assert link.words_carried == 1


class TestPhit:
    def test_idle_detection(self):
        assert Phit().is_idle
        assert not Phit(word=Word(payload=0)).is_idle
        assert not Phit(credit_bits=1).is_idle

    def test_word_repr_compact(self):
        word = Word(payload=0xAB, connection="c", sequence=3)
        assert "0xab" in repr(word)
        assert "seq=3" in repr(word)
