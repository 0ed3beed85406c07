"""Unit tests for credit-based end-to-end flow control state."""

from __future__ import annotations

import pytest

from repro.core import FLAG_ENABLED, FLAG_FLOW_CONTROLLED
from repro.core.credits import DestChannel, SourceChannel
from repro.errors import FlowControlError
from repro.sim import Word


def make_source(credits=4, flags=FLAG_ENABLED | FLAG_FLOW_CONTROLLED):
    source = SourceChannel(channel=0, credit_counter=credits, flags=flags)
    return source


class TestSourceChannel:
    def test_cannot_send_when_disabled(self):
        source = make_source(flags=0)
        source.queue.append(Word(payload=1))
        assert not source.can_send()

    def test_cannot_send_without_credits(self):
        source = make_source(credits=0)
        source.queue.append(Word(payload=1))
        assert not source.can_send()

    def test_cannot_send_empty_queue(self):
        assert not make_source().can_send()

    def test_take_word_consumes_credit(self):
        source = make_source(credits=2)
        source.queue.append(Word(payload=1))
        source.take_word()
        assert source.credit_counter == 1

    def test_take_word_guarded(self):
        with pytest.raises(FlowControlError):
            make_source().take_word()

    def test_unchecked_channel_ignores_credits(self):
        source = make_source(
            credits=0, flags=FLAG_ENABLED
        )  # multicast-style
        source.queue.append(Word(payload=1))
        assert source.can_send()
        source.take_word()
        assert source.credit_counter == 0

    def test_credit_overflow_detected(self):
        source = make_source(credits=60)
        source.max_credit = 63
        with pytest.raises(FlowControlError, match="overflow"):
            source.add_credits(5)

    def test_negative_credits_rejected(self):
        with pytest.raises(FlowControlError):
            make_source().add_credits(-1)

    def test_flag_properties(self):
        source = make_source()
        assert source.enabled and source.flow_controlled
        source.flags = FLAG_ENABLED
        assert source.enabled and not source.flow_controlled


class TestDestChannel:
    def make(self, capacity=4, flags=FLAG_ENABLED | FLAG_FLOW_CONTROLLED):
        return DestChannel(channel=0, capacity=capacity, flags=flags)

    def test_deliver_and_drain(self):
        dest = self.make()
        dest.deliver(Word(payload=1))
        dest.deliver(Word(payload=2))
        drained = dest.drain()
        assert [word.payload for word in drained] == [1, 2]
        assert dest.pending_credits == 2

    def test_partial_drain(self):
        dest = self.make()
        for index in range(3):
            dest.deliver(Word(payload=index))
        assert len(dest.drain(max_words=2)) == 2
        assert dest.pending_credits == 2

    def test_overflow_detected(self):
        dest = self.make(capacity=1)
        dest.deliver(Word(payload=1))
        with pytest.raises(FlowControlError, match="overflow"):
            dest.deliver(Word(payload=2))

    def test_unchecked_channel_does_not_credit(self):
        dest = self.make(flags=FLAG_ENABLED)
        dest.deliver(Word(payload=1))
        dest.drain()
        assert dest.pending_credits == 0

    def test_unchecked_channel_unbounded(self):
        dest = self.make(capacity=1, flags=FLAG_ENABLED)
        dest.deliver(Word(payload=1))
        dest.deliver(Word(payload=2))  # model queue grows; no error
        assert len(dest.queue) == 2

    def test_take_pending_credits_bounded(self):
        dest = self.make()
        dest.pending_credits = 10
        assert dest.take_pending_credits(max_value=7) == 7
        assert dest.pending_credits == 3
        assert dest.take_pending_credits(max_value=7) == 3
        assert dest.take_pending_credits(max_value=7) == 0
