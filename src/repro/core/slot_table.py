"""TDM slot tables and the rotating slot mask.

Three kinds of tables implement the distributed contention-free schedule:

* :class:`RouterSlotTable` — "a table that specifies for each output port
  which input port should the data be taken from during each cycle".
  Several outputs may name the same input in the same slot; that is how
  daelite implements multicast.
* :class:`NiInjectionTable` — which channel may insert a word into the
  network during each slot.
* :class:`NiArrivalTable` — into which channel queue an arriving word is
  deposited during each slot.

:class:`SlotMask` is the "table of affected slots" carried by configuration
packets.  Each network element keeps a local copy and rotates it one
position for every (element-ID, data) pair whose ID does not match its own;
rotation maps slot *s* to slot *s − 1 (mod T)*, which compensates for the
"+1 slot per hop" advance of the TDM schedule (the packet lists elements
destination-first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from ..errors import ParameterError, ScheduleError
from .changes import ChangeRecord


@dataclass(frozen=True)
class SlotMask:
    """An immutable set of marked TDM slots with rotate/encode support.

    Attributes:
        size: Slot-table size T.
        slots: The marked slot indices.
    """

    size: int
    slots: FrozenSet[int]

    @staticmethod
    def of(size: int, slots: Iterable[int]) -> "SlotMask":
        """Build a mask, validating slot indices.

        Raises:
            ParameterError: if any slot index is outside ``[0, size)``.
        """
        slot_set = frozenset(slots)
        for slot in slot_set:
            if not 0 <= slot < size:
                raise ParameterError(
                    f"slot {slot} outside table of size {size}"
                )
        return SlotMask(size=size, slots=slot_set)

    def rotate(self, positions: int = 1) -> "SlotMask":
        """Mask with every marked slot moved ``positions`` earlier (mod T).

        One rotation per non-matching configuration pair turns the
        destination NI's arrival slots into each upstream element's own
        table indices (Fig. 6: slots {7, 4} become {6, 3} at the last
        router, {5, 2} at the next, ...).
        """
        return SlotMask(
            size=self.size,
            slots=frozenset(
                (slot - positions) % self.size for slot in self.slots
            ),
        )

    def to_bits(self) -> int:
        """Mask as an integer with bit *i* set iff slot *i* is marked."""
        bits = 0
        for slot in self.slots:
            bits |= 1 << slot
        return bits

    @staticmethod
    def from_bits(size: int, bits: int, rotation: int = 0) -> "SlotMask":
        """Inverse of :meth:`to_bits`; with a ``rotation``, the mask
        :meth:`rotate` would make of it, built once.

        Raises:
            ParameterError: if ``bits`` has bits beyond ``size``.
        """
        if bits < 0 or bits >> size:
            raise ParameterError(
                f"mask bits {bits:#x} exceed table size {size}"
            )
        # In range by the check above: no per-slot validation needed.
        # Lowest set bit first, so slots go in ascending, as a scan of
        # every index would add them, at a cost per marked slot.
        marked: List[int] = []
        while bits:
            low = bits & -bits
            marked.append(low.bit_length() - 1)
            bits ^= low
        slots = frozenset(marked)
        if rotation:
            # Through the unrotated set, as ``rotate`` goes: equal masks
            # then also iterate, and print, alike.
            slots = frozenset([(slot - rotation) % size for slot in slots])
        return SlotMask(size=size, slots=slots)

    def to_words(self, word_bits: int) -> List[int]:
        """Serialize to little-endian configuration words.

        Word *j* carries slots ``j*word_bits`` .. ``(j+1)*word_bits - 1``
        (bit *k* of word *j* = slot ``j*word_bits + k``); the final word is
        0-padded ("0-padding is allowed").
        """
        if word_bits < 1:
            raise ParameterError("word_bits must be >= 1")
        bits = self.to_bits()
        words = []
        count = (self.size + word_bits - 1) // word_bits
        mask = (1 << word_bits) - 1
        for j in range(count):
            words.append((bits >> (j * word_bits)) & mask)
        return words

    @staticmethod
    def from_words(
        size: int, words: Sequence[int], word_bits: int, rotation: int = 0
    ) -> "SlotMask":
        """Inverse of :meth:`to_words`; with a ``rotation``, the mask
        :meth:`rotate` would make of it, built once.

        Raises:
            ParameterError: if the word count does not match ``size``, or
                a bit is set in the 0-padding of the last word.
        """
        expected = (size + word_bits - 1) // word_bits
        if len(words) != expected:
            raise ParameterError(
                f"expected {expected} mask words for T={size}, "
                f"got {len(words)}"
            )
        bits = 0
        for j, word in enumerate(words):
            bits |= word << (j * word_bits)
        return SlotMask.from_bits(size, bits, rotation)

    def __iter__(self):
        return iter(sorted(self.slots))

    def __len__(self) -> int:
        return len(self.slots)


class RouterSlotTable:
    """Per-output-port TDM schedule of a daelite router.

    ``entry(output, slot)`` is the input port to forward from, or ``None``
    when the output is idle in that slot.
    """

    def __init__(
        self,
        ports: int,
        slot_table_size: int,
        changes: Optional[ChangeRecord] = None,
    ) -> None:
        if ports < 1:
            raise ParameterError("router needs at least one port")
        if slot_table_size < 1:
            raise ParameterError("slot table size must be >= 1")
        self.ports = ports
        self.size = slot_table_size
        self._table: List[List[Optional[int]]] = [
            [None] * slot_table_size for _ in range(ports)
        ]
        # Per-slot (output, input) forwarding decisions, computed lazily
        # and invalidated by set/clear.  The router hot path hits this
        # instead of walking every output port each cycle.
        self._forwards: List[Optional[tuple]] = [None] * slot_table_size
        #: Where every set/clear is counted (``writes``): the compiled
        #: engine's validity token detects reprogramming without
        #: diffing.  The owning element's network record, or one of
        #: the table's own.
        self.changes = changes if changes is not None else ChangeRecord()

    def entry(self, output: int, slot: int) -> Optional[int]:
        """Input port feeding ``output`` during ``slot`` (or ``None``).

        Raises:
            ParameterError: if ``output`` is out of range.
        """
        self._check_output(output)
        return self._table[output][slot % self.size]

    def set_entry(self, output: int, slot: int, input_port: int) -> None:
        """Program one entry.

        Raises:
            ParameterError: on out-of-range ports or slots.
            ScheduleError: if the entry is already claimed by a different
                input (a slot conflict — the allocator must prevent this).
        """
        self._check_output(output)
        if not 0 <= input_port < self.ports:
            raise ParameterError(f"input port {input_port} out of range")
        if not 0 <= slot < self.size:
            raise ParameterError(f"slot {slot} out of range")
        current = self._table[output][slot]
        if current is not None and current != input_port:
            raise ScheduleError(
                f"output {output} slot {slot} already forwards from "
                f"input {current}; refusing to overwrite with "
                f"{input_port}"
            )
        self._table[output][slot] = input_port
        self._forwards[slot] = None
        self.changes.writes += 1

    def clear_entry(self, output: int, slot: int) -> None:
        """Tear-down: stop forwarding on ``output`` during ``slot``."""
        self._check_output(output)
        self._table[output][slot % self.size] = None
        self._forwards[slot % self.size] = None
        self.changes.writes += 1

    def image(self) -> tuple:
        """The whole table as a value: per output, the input feeding it
        in each slot (``None``: idle).  Equal images, equal tables."""
        return tuple(map(tuple, self._table))

    def forwards(self, slot: int) -> tuple:
        """Cached ``(output, input)`` pairs active during ``slot``.

        This is the router's per-cycle routing decision; it changes only
        when the table is programmed, so it is computed once per
        (re)configuration instead of once per cycle.
        """
        slot %= self.size
        cached = self._forwards[slot]
        if cached is None:
            cached = tuple(
                (output, column[slot])
                for output, column in enumerate(self._table)
                if column[slot] is not None
            )
            self._forwards[slot] = cached
        return cached

    def apply_mask(
        self, output: int, mask: SlotMask, input_port: Optional[int]
    ) -> None:
        """Program (or clear, if ``input_port`` is None) all marked slots."""
        for slot in mask:
            if input_port is None:
                self.clear_entry(output, slot)
            else:
                self.set_entry(output, slot, input_port)

    def occupied_slots(self, output: int) -> Set[int]:
        """Slots in which ``output`` forwards data."""
        self._check_output(output)
        return {
            slot
            for slot, entry in enumerate(self._table[output])
            if entry is not None
        }

    def inputs_for_slot(self, slot: int) -> Dict[int, int]:
        """Mapping output -> input for one slot (multicast shows the same
        input under several outputs)."""
        return {
            output: self._table[output][slot % self.size]
            for output in range(self.ports)
            if self._table[output][slot % self.size] is not None
        }

    def utilization(self) -> float:
        """Fraction of (output, slot) entries in use."""
        used = sum(
            1
            for column in self._table
            for entry in column
            if entry is not None
        )
        return used / (self.ports * self.size)

    def _check_output(self, output: int) -> None:
        if not 0 <= output < self.ports:
            raise ParameterError(f"output port {output} out of range")


class NiInjectionTable:
    """Which channel may insert a word during each TDM slot."""

    def __init__(
        self, slot_table_size: int, changes: Optional[ChangeRecord] = None
    ) -> None:
        if slot_table_size < 1:
            raise ParameterError("slot table size must be >= 1")
        self.size = slot_table_size
        self._table: List[Optional[int]] = [None] * slot_table_size
        # Sorted tuple of granted slots, computed lazily; lets the NI
        # jump straight to its next injection opportunity.
        self._occupied: Optional[tuple] = None
        #: Counts every set/clear (see RouterSlotTable.changes).
        self.changes = changes if changes is not None else ChangeRecord()

    def channel(self, slot: int) -> Optional[int]:
        """Channel allowed to inject during ``slot`` (or ``None``)."""
        return self._table[slot % self.size]

    def image(self) -> tuple:
        """The whole table as a value: the channel of each slot."""
        return tuple(self._table)

    def occupied(self) -> tuple:
        """Cached sorted tuple of all granted slot indices."""
        cached = self._occupied
        if cached is None:
            cached = tuple(
                slot
                for slot, owner in enumerate(self._table)
                if owner is not None
            )
            self._occupied = cached
        return cached

    def set_slot(self, slot: int, channel: int) -> None:
        """Grant ``slot`` to ``channel``.

        Raises:
            ScheduleError: if the slot belongs to a different channel.
        """
        if not 0 <= slot < self.size:
            raise ParameterError(f"slot {slot} out of range")
        current = self._table[slot]
        if current is not None and current != channel:
            raise ScheduleError(
                f"injection slot {slot} already granted to channel "
                f"{current}"
            )
        self._table[slot] = channel
        self._occupied = None
        self.changes.writes += 1

    def clear_slot(self, slot: int) -> None:
        self._table[slot % self.size] = None
        self._occupied = None
        self.changes.writes += 1

    def slots_of(self, channel: int) -> Set[int]:
        """All slots granted to ``channel``."""
        return {
            slot
            for slot, owner in enumerate(self._table)
            if owner == channel
        }

    def apply_mask(self, mask: SlotMask, channel: Optional[int]) -> None:
        """Grant (or clear) all marked slots."""
        for slot in mask:
            if channel is None:
                self.clear_slot(slot)
            else:
                self.set_slot(slot, channel)


class NiArrivalTable(NiInjectionTable):
    """Into which channel queue a word arriving in each slot is deposited.

    Structurally identical to the injection table; a separate class keeps
    configuration call sites readable and lets the two evolve separately.
    """
