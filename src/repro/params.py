"""Global network parameters shared by the daelite and aelite models.

The defaults follow the values used in the paper's experiments:

* TDM slot-table size of 16 entries (the paper uses 8 in the Fig. 6 example
  and 32 in the area comparison; all are supported),
* a daelite slot of 2 data words and a 2-cycle hop latency,
* an aelite slot of 3 words (1 header + 2 payload) and a 3-cycle hop,
* 7-bit configuration words (up to 64 network elements, router arity up
  to 7, end-to-end buffers up to 63 words),
* 6-bit credit counters delivered over 3 credit wires per link,
* 32-bit data words.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ParameterError

#: Number of cycles a word needs per daelite hop (1 link + 1 crossbar).
DAELITE_HOP_CYCLES = 2
#: Number of cycles a word needs per aelite hop (1 link + 2 router stages).
AELITE_HOP_CYCLES = 3
#: Words per daelite TDM slot ("The daelite TDM slot is 2 words").
DAELITE_WORDS_PER_SLOT = 2
#: Words per aelite TDM slot (1 header word + 2 payload words).
AELITE_WORDS_PER_SLOT = 3
#: Payload words per aelite slot when a header is present.
AELITE_PAYLOAD_WORDS = 2


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterError(message)


@dataclass(frozen=True)
class NetworkParameters:
    """Parameters of one network instance.

    Instances are immutable; derive variants with :meth:`with_changes`.

    Attributes:
        slot_table_size: Number of TDM slots in the wheel (T).
        words_per_slot: Data words per slot. 2 for daelite, 3 for aelite.
        word_width_bits: Width of a data word in bits.
        config_word_bits: Width of one configuration word (daelite).
        credit_counter_bits: Width of the end-to-end credit counters.
        credit_wire_bits: Credit wires per link direction; a full counter
            value is transferred over one slot (wires * words_per_slot bits).
        channel_buffer_words: Default destination-queue capacity per channel.
        cooldown_cycles: Idle cycles enforced after each config packet so
            elements can commit their slot-table updates.
        hop_cycles: Pipeline depth of one hop (link + router stages).
        frequency_mhz: Reference clock frequency (ASIC synthesis result).
    """

    slot_table_size: int = 16
    words_per_slot: int = DAELITE_WORDS_PER_SLOT
    word_width_bits: int = 32
    config_word_bits: int = 7
    credit_counter_bits: int = 6
    credit_wire_bits: int = 3
    channel_buffer_words: int = 8
    cooldown_cycles: int = 4
    hop_cycles: int = DAELITE_HOP_CYCLES
    frequency_mhz: float = 925.0

    def __post_init__(self) -> None:
        _require(self.slot_table_size >= 1, "slot_table_size must be >= 1")
        _require(self.words_per_slot >= 1, "words_per_slot must be >= 1")
        _require(self.word_width_bits >= 1, "word_width_bits must be >= 1")
        _require(self.config_word_bits >= 3, "config_word_bits must be >= 3")
        _require(
            1 <= self.credit_counter_bits <= 16,
            "credit_counter_bits must be in [1, 16]",
        )
        _require(self.credit_wire_bits >= 1, "credit_wire_bits must be >= 1")
        _require(
            self.channel_buffer_words >= 1,
            "channel_buffer_words must be >= 1",
        )
        _require(self.cooldown_cycles >= 0, "cooldown_cycles must be >= 0")
        _require(self.hop_cycles >= 1, "hop_cycles must be >= 1")
        _require(
            self.channel_buffer_words < (1 << self.credit_counter_bits),
            "channel buffer must be representable in the credit counter",
        )

    # -- derived quantities -------------------------------------------------

    @property
    def wheel_cycles(self) -> int:
        """Cycles of one full revolution of the TDM wheel."""
        return self.slot_table_size * self.words_per_slot

    @property
    def max_network_elements(self) -> int:
        """How many elements a config word can address (daelite)."""
        return 1 << (self.config_word_bits - 1)

    @property
    def max_credit_value(self) -> int:
        """Largest value a credit counter can hold."""
        return (1 << self.credit_counter_bits) - 1

    @property
    def credit_bits_per_slot(self) -> int:
        """Credit bits transferable during one slot on the credit wires."""
        return self.credit_wire_bits * self.words_per_slot

    def slot_of_cycle(self, cycle: int) -> int:
        """Global TDM slot index active at ``cycle`` (phase 0)."""
        return (cycle // self.words_per_slot) % self.slot_table_size

    def lagged_slot_of_cycle(self, cycle: int, lag: int = 1) -> int:
        """Slot index seen by a component whose counter lags by ``lag``.

        Routers index their slot tables with a one-cycle lag because the
        word spends one cycle on the incoming link before the crossbar
        acts on it (see DESIGN.md, timing model).
        """
        return ((cycle - lag) // self.words_per_slot) % self.slot_table_size

    def slot_start_cycle(self, slot: int, revolution: int = 0) -> int:
        """First cycle of ``slot`` in wheel ``revolution``."""
        return revolution * self.wheel_cycles + slot * self.words_per_slot

    def with_changes(self, **changes: object) -> "NetworkParameters":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


def daelite_parameters(**overrides: object) -> NetworkParameters:
    """Default daelite parameter set (2-word slots, 2-cycle hops)."""
    base = NetworkParameters()
    return base.with_changes(**overrides) if overrides else base


def aelite_parameters(**overrides: object) -> NetworkParameters:
    """Default aelite parameter set (3-word slots, 3-cycle hops)."""
    base = NetworkParameters(
        words_per_slot=AELITE_WORDS_PER_SLOT,
        hop_cycles=AELITE_HOP_CYCLES,
        frequency_mhz=885.0,
    )
    return base.with_changes(**overrides) if overrides else base
