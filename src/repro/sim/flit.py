"""Transport units of the cycle simulator.

daelite carries one data word per link per cycle, accompanied by a few
credit wires ("3 wires dedicated to sending credit data are enough to send
the value of a 6-bit credit counter during each slot cycle").  The router
crossbar makes no distinction between the two: a slot-table entry forwards
the *whole* set of wires from one input to one output.  We model that wire
bundle as a :class:`Phit` (physical transfer unit).

:class:`Word` additionally carries simulator-side bookkeeping (connection
id, sequence number, injection cycle) that has no hardware counterpart but
lets tests and statistics track every word end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional


def parity_of(payload: int) -> int:
    """Even parity over the payload bits: what the source NI drives on
    the parity wire and every checker recomputes."""
    return payload.bit_count() & 1


@dataclass(frozen=True, slots=True)
class Word:
    """One data word travelling through the network.

    Attributes:
        payload: The word value (an integer of ``word_width_bits`` bits).
        connection: Identifier of the connection the word belongs to
            (bookkeeping only; daelite words carry no header).
        sequence: Per-connection sequence number (bookkeeping only).
        injected_at: Cycle at which the source NI drove the word onto its
            link, ``-1`` until then (bookkeeping only).  Stamped at
            injection by :meth:`StatsCollector.record_injection`, or
            by the compiled engine at the launch that fixes the link
            entry's cycle — which it takes back (``-1`` again) at a
            barrier the entry has not reached — through
            :data:`stamp_injected`; an ejection's latency is the
            ejection cycle minus this stamp.  Not part of equality: a
            word is the same word before and after it is stamped.
        parity: Even parity over the payload bits, stamped by the source
            NI; ``None`` when the source does not protect the word.
            Models a parity wire riding alongside the data wires — a
            corrupted payload no longer matches and the destination NI
            can detect (and drop) the word.
    """

    payload: int
    connection: str = ""
    sequence: int = -1
    injected_at: int = field(default=-1, compare=False)
    parity: Optional[int] = None

    @property
    def parity_ok(self) -> bool:
        """True unless the parity wire contradicts the payload."""
        if self.parity is None:
            return True
        return parity_of(self.payload) == self.parity

    def __repr__(self) -> str:  # compact traces
        return (
            f"Word({self.payload:#x}, conn={self.connection!r}, "
            f"seq={self.sequence})"
        )


@dataclass(frozen=True, slots=True)
class Phit:
    """Wire bundle transferred over one link in one cycle.

    Attributes:
        word: Data word, or ``None`` when the slot carries only credits.
        credit_bits: Value present on the credit wires this cycle, or
            ``None`` when the credit wires are idle.
    """

    word: Optional[Word] = None
    credit_bits: Optional[int] = None

    @property
    def is_idle(self) -> bool:
        """True when neither data nor credit wires carry anything."""
        return self.word is None and self.credit_bits is None

    def __repr__(self) -> str:
        return f"Phit(word={self.word!r}, credits={self.credit_bits!r})"


_SET_PAYLOAD = Word.__dict__["payload"].__set__
_SET_CONNECTION = Word.__dict__["connection"].__set__
_SET_SEQUENCE = Word.__dict__["sequence"].__set__
_SET_INJECTED_AT = Word.__dict__["injected_at"].__set__
_SET_PARITY = Word.__dict__["parity"].__set__
_NEW = object.__new__


def new_word(
    payload: int, connection: str, sequence: int, parity: Optional[int]
) -> Word:
    """``Word(payload, connection, sequence, -1, parity)``, built about
    twice as fast: straight through the slot descriptors, where the
    frozen dataclass ``__init__`` looks each field up again in
    ``object.__setattr__``.  For the compiled engine's generator
    firings, one word per firing."""
    word: Word = _NEW(Word)
    _SET_PAYLOAD(word, payload)
    _SET_CONNECTION(word, connection)
    _SET_SEQUENCE(word, sequence)
    _SET_INJECTED_AT(word, -1)
    _SET_PARITY(word, parity)
    return word


#: ``stamp_injected(word, cycle)`` sets ``word.injected_at`` past the
#: frozen guard: the only writer of a word's injection stamp (the
#: compiled engine also writes ``-1`` with it, to take back a stamp it
#: made ahead of the link entry).
stamp_injected: Callable[[Word, int], None] = Word.__dict__[
    "injected_at"
].__set__

#: Convenience constant for an idle wire bundle.
IDLE_PHIT = Phit()
