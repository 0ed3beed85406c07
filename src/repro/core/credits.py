"""Per-channel NI state and credit-based end-to-end flow control.

"We use a credit-based flow control scheme which employs two credit
counters for each channel.  A counter at the source keeps track of the
available space in the destination queue, and a counter at the destination
stores the number of words that were already delivered until this value
can be sent back to the source."

A :class:`SourceChannel` is the sending endpoint living in the source NI;
a :class:`DestChannel` is the receiving endpoint in the destination NI.
Credits for a channel travel on the credit wires of the *paired* channel
running in the opposite direction ("credits for one direction are sent on
separate bit-lines alongside data in the opposite direction").

Multicast channels run with flow control disabled
(:data:`~repro.core.config_protocol.FLAG_FLOW_CONTROLLED` cleared): the
source never blocks on credits and the destinations must drain at the
delivery rate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from ..errors import FlowControlError
from ..sim.flit import Word
from .config_protocol import FLAG_ENABLED, FLAG_FLOW_CONTROLLED


@dataclass(slots=True)
class SourceChannel:
    """Sending endpoint of a channel inside the source NI.

    Attributes:
        channel: Channel index within the NI.
        credit_counter: Space known to be free in the destination queue.
        max_credit: Counter saturation value (2^credit_counter_bits - 1).
        flags: Enable / flow-control flags.
        paired_arrival: Local *arrival* channel whose incoming credit
            wires replenish this counter (the reverse direction of the
            same connection).
        queue: Words awaiting injection (filled by the shell or a
            traffic generator; drained by the NI scheduler).
    """

    channel: int
    credit_counter: int = 0
    max_credit: int = 63
    flags: int = 0
    paired_arrival: Optional[int] = None
    queue: Deque[Word] = field(default_factory=deque)

    @property
    def enabled(self) -> bool:
        return bool(self.flags & FLAG_ENABLED)

    @property
    def flow_controlled(self) -> bool:
        return bool(self.flags & FLAG_FLOW_CONTROLLED)

    def can_send(self) -> bool:
        """Whether a word may be injected this cycle."""
        if not self.enabled or not self.queue:
            return False
        return not self.flow_controlled or self.credit_counter > 0

    def take_word(self) -> Word:
        """Pop the next word, consuming one credit if flow controlled.

        Raises:
            FlowControlError: if called while :meth:`can_send` is false.
        """
        if not self.can_send():
            raise FlowControlError(
                f"source channel {self.channel} cannot send "
                f"(enabled={self.enabled}, queued={len(self.queue)}, "
                f"credits={self.credit_counter})"
            )
        if self.flow_controlled:
            self.credit_counter -= 1
        return self.queue.popleft()

    def add_credits(self, amount: int) -> None:
        """Return credits announced by the destination.

        Raises:
            FlowControlError: if the counter would exceed its saturation
                value — the destination announced more space than exists.
        """
        if amount < 0:
            raise FlowControlError("negative credit amount")
        if self.credit_counter + amount > self.max_credit:
            raise FlowControlError(
                f"credit counter of channel {self.channel} would "
                f"overflow: {self.credit_counter} + {amount} > "
                f"{self.max_credit}"
            )
        self.credit_counter += amount


@dataclass(slots=True)
class DestChannel:
    """Receiving endpoint of a channel inside the destination NI.

    Attributes:
        channel: Channel index within the NI.
        capacity: Queue capacity in words (what source credits represent).
        flags: Enable / flow-control flags.
        paired_source: Local *source* channel on whose outgoing credit
            wires this endpoint's credits are piggybacked.
        queue: Words delivered by the network, awaiting the IP/shell.
        pending_credits: Words drained by the IP but not yet reported to
            the source.
    """

    channel: int
    capacity: int = 8
    flags: int = 0
    paired_source: Optional[int] = None
    queue: Deque[Word] = field(default_factory=deque)
    pending_credits: int = 0

    @property
    def enabled(self) -> bool:
        return bool(self.flags & FLAG_ENABLED)

    @property
    def flow_controlled(self) -> bool:
        return bool(self.flags & FLAG_FLOW_CONTROLLED)

    def deliver(self, word: Word) -> None:
        """Deposit a word arriving from the network.

        Raises:
            FlowControlError: on overflow of a flow-controlled queue —
                impossible when credits are accounted correctly, so this
                indicates a configuration bug.  Unchecked channels
                (multicast) drop nothing here either; the *model* queue
                is unbounded and the sink is expected to keep up, but the
                overflow is still reported because real hardware would
                have lost the word.
        """
        if self.flow_controlled and len(self.queue) >= self.capacity:
            raise FlowControlError(
                f"destination queue of channel {self.channel} overflowed "
                f"(capacity {self.capacity}) despite flow control"
            )
        self.queue.append(word)

    def drain(self, max_words: Optional[int] = None) -> list:
        """Pop up to ``max_words`` words (all, if ``None``) for the IP.

        Draining accumulates pending credits that the NI will report to
        the source on the paired channel's credit wires.
        """
        drained = []
        while self.queue and (
            max_words is None or len(drained) < max_words
        ):
            drained.append(self.queue.popleft())
        if self.flow_controlled:
            self.pending_credits += len(drained)
        return drained

    def take_pending_credits(self, max_value: int) -> int:
        """Consume up to ``max_value`` pending credits for transmission."""
        granted = min(self.pending_credits, max_value)
        self.pending_credits -= granted
        return granted
