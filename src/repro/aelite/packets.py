"""aelite packets: header flits and payload-efficiency arithmetic.

aelite is source routed: "the path corresponding to each connection is
stored inside the Network Interface (NI) and is sent inside the header of
each packet".  A TDM slot is 3 words; the first word of a packet is the
header, so a packet of *k* slots carries ``3k - 1`` payload words:

* 1-slot packets: 1/3 header overhead (33 %),
* 3-slot packets (the maximum — "one header is required at least every
  3 slots"): 1/9 overhead (11 %).

daelite needs no header at all, which is the paper's
"no header overhead, which in aelite is between 11% and 33%" claim.

The header also carries the destination queue id and piggybacked credits
(Table I: end-to-end flow control "headers").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import ParameterError
from ..params import AELITE_WORDS_PER_SLOT

#: Maximum packet length in slots before a new header is required.
MAX_PACKET_SLOTS = 3


@dataclass(frozen=True)
class AeliteHeader:
    """The header word of an aelite packet.

    Attributes:
        path: Remaining output ports, one per router still to traverse
            (the front element is consumed by the next router).
        queue: Destination NI queue (channel) index.
        length_words: Total packet length including this header.
        credits: Piggybacked credits for the paired reverse channel.
        connection: Bookkeeping label (no hardware counterpart).
    """

    path: Tuple[int, ...]
    queue: int
    length_words: int
    credits: int = 0
    connection: str = ""

    def __post_init__(self) -> None:
        if self.length_words < 1:
            raise ParameterError("packet length must be >= 1 word")
        max_words = MAX_PACKET_SLOTS * AELITE_WORDS_PER_SLOT
        if self.length_words > max_words:
            raise ParameterError(
                f"packet of {self.length_words} words exceeds the "
                f"{MAX_PACKET_SLOTS}-slot maximum"
            )
        if self.credits < 0:
            raise ParameterError("negative piggybacked credits")

    def consume_hop(self) -> Tuple[int, "AeliteHeader"]:
        """Pop the next output port; returns (port, remaining header).

        Raises:
            ParameterError: if the path is already exhausted.
        """
        if not self.path:
            raise ParameterError("header path exhausted before the NI")
        return self.path[0], AeliteHeader(
            path=self.path[1:],
            queue=self.queue,
            length_words=self.length_words,
            credits=self.credits,
            connection=self.connection,
        )

    @property
    def payload_words(self) -> int:
        """Payload words in the packet (total minus the header)."""
        return self.length_words - 1


def payload_efficiency(packet_slots: int) -> float:
    """Fraction of packet words that are payload.

    Raises:
        ParameterError: for packet lengths outside 1..3 slots.
    """
    if not 1 <= packet_slots <= MAX_PACKET_SLOTS:
        raise ParameterError(
            f"aelite packets span 1..{MAX_PACKET_SLOTS} slots, "
            f"not {packet_slots}"
        )
    total = packet_slots * AELITE_WORDS_PER_SLOT
    return (total - 1) / total


def header_overhead(packet_slots: int) -> float:
    """Fraction of packet words that are header (1 - efficiency)."""
    return 1.0 - payload_efficiency(packet_slots)


def slots_needed(payload_words: int) -> int:
    """Slots one packet needs for ``payload_words`` payload words.

    Raises:
        ParameterError: if the payload exceeds a maximum-length packet.
    """
    if payload_words < 0:
        raise ParameterError("negative payload size")
    max_payload = MAX_PACKET_SLOTS * AELITE_WORDS_PER_SLOT - 1
    if payload_words > max_payload:
        raise ParameterError(
            f"{payload_words} payload words exceed one packet "
            f"(max {max_payload})"
        )
    return max(
        1,
        -(-(payload_words + 1) // AELITE_WORDS_PER_SLOT),
    )
