"""The daelite configuration protocol: 7-bit words, packets, decoder FSM.

"Network configuration, including path setup and tear-down is performed
using configuration packets, consisting of several words, transmitted one
per cycle over the configuration links."  A word width of 7 bits "is
sufficient to encode a network element ID, a pair of input and output port
IDs or the value of a credit counter" for networks with up to 64 elements,
router arity up to 7, and end-to-end buffers of up to 63 words.

Packet layouts (word streams; a gap — the valid line deasserted — ends a
packet):

``PATH_SETUP`` / ``PATH_TEARDOWN``::

    [header] [mask word]*ceil(T/7) ([element id] [port word])*

The element list is ordered **destination-first** "to ensure that
downstream routers are initialized before the upstream NI and routers
start sending packets".  Every element keeps a private copy of the slot
mask and rotates it one position (slot s -> s-1 mod T) for each pair whose
element ID is not its own; on a match it programs the slots marked by its
current mask copy.

``CHANNEL_CONFIG``::

    [header] [element id] [channel word] ([field] [value])*

``CHANNEL_READ``::

    [header] [element id] [channel word] [field]        -> 1 response word

``BUS_CONFIG``::

    [header] [element id] [payload]*     (payload deserialized by the NI)

Port words: for a router, ``(input << 3) | output`` with 3-bit port
fields; for an NI, ``(direction << 6) | channel`` where direction 0 is the
injection (source) side and 1 the arrival (destination) side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from ..errors import ParameterError, ProtocolError
from ..topology import ElementKind
from .slot_table import SlotMask


class Opcode(IntEnum):
    """Configuration packet types (3-bit field in the header word)."""

    PATH_SETUP = 1
    PATH_TEARDOWN = 2
    CHANNEL_CONFIG = 3
    CHANNEL_READ = 4
    BUS_CONFIG = 5


class ChannelField(IntEnum):
    """Per-channel NI registers addressable by CHANNEL_CONFIG/READ."""

    CREDIT = 0
    FLAGS = 1
    PAIRED = 2


class Direction(IntEnum):
    """Which side of an NI channel a word refers to."""

    INJECT = 0
    ARRIVE = 1


# Decoding tables: an enum constructed from its value costs a call per
# word the decoders read.
_DIRECTIONS = (Direction.INJECT, Direction.ARRIVE)
_DIRECTION_CODES = {direction.value: direction for direction in Direction}
_OPCODES = {opcode.value: opcode for opcode in Opcode}
_FIELDS = {field.value: field for field in ChannelField}

#: FLAGS register bit: channel enabled.
FLAG_ENABLED = 0b01
#: FLAGS register bit: end-to-end flow control active (cleared for
#: multicast, whose destinations must drain at line rate).
FLAG_FLOW_CONTROLLED = 0b10

#: Router port word meaning "do not forward" (all-ones, outside the 0-6
#: legal port range).
DISCONNECT_PORT_WORD = 0b111_1111


def header_word(opcode: Opcode) -> int:
    """Encode a packet header."""
    return int(opcode)


def element_word(element_id: int, word_bits: int = 7) -> int:
    """Encode a network element ID.

    Raises:
        ProtocolError: if the ID does not fit the configuration word.
    """
    limit = 1 << (word_bits - 1)
    if not 0 <= element_id < limit:
        raise ProtocolError(
            f"element id {element_id} not addressable with "
            f"{word_bits}-bit config words (max {limit - 1})"
        )
    return element_id


def router_port_word(input_port: int, output_port: int) -> int:
    """Encode a router (input, output) port pair.

    Raises:
        ProtocolError: if either port exceeds the 3-bit arity limit of 7.
    """
    for port in (input_port, output_port):
        if not 0 <= port <= 6:
            raise ProtocolError(f"router port {port} outside 0..6")
    return (input_port << 3) | output_port


def decode_router_port_word(word: int) -> Optional[tuple]:
    """Decode a router port word; ``None`` means disconnect."""
    if word == DISCONNECT_PORT_WORD:
        return None
    return ((word >> 3) & 0b111, word & 0b111)


def ni_channel_word(direction: Direction, channel: int) -> int:
    """Encode an NI channel reference.

    Raises:
        ProtocolError: if the channel index exceeds 6 bits.
    """
    if not 0 <= channel < 64:
        raise ProtocolError(f"NI channel {channel} outside 0..63")
    return (int(direction) << 6) | channel


def decode_ni_channel_word(word: int) -> tuple:
    """Decode an NI channel word into (direction, channel)."""
    return (_DIRECTIONS[(word >> 6) & 1], word & 0b11_1111)


@dataclass(frozen=True)
class PathHop:
    """One (element, port word) pair of a path packet.

    For routers the payload is a :func:`router_port_word` (or the
    disconnect word); for NIs a :func:`ni_channel_word`.
    """

    element_id: int
    payload: int


@dataclass(frozen=True)
class ConfigPacket:
    """A fully serialized configuration packet.

    Attributes:
        opcode: Packet type.
        words: The configuration word stream, header first.
        description: Human-readable summary for traces and tests.
        word_bits: Width of one configuration word on the wire (the
            ``word_bits`` the packet was built with).
        addressees: IDs of the elements the packet addresses, in packet
            order — recorded by the ``build_*_packet`` functions, which
            are the only code that knows without parsing.  ``None`` on a
            hand-built packet: the configuration module then has no
            record of whom to deliver to and steps the word-level tree.
    """

    opcode: Opcode
    words: tuple
    description: str = ""
    word_bits: int = 7
    addressees: Optional[tuple] = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.words)

    def host_words(self, host_word_bits: int = 32) -> int:
        """Wide words the host writes to the configuration module.

        "The host IP in charge of network configuration writes [N]
        data words to the configuration module using normal write
        operations.  These words are then serialized into 7-bit
        configuration words."  (Fig. 6's 11-word packet = 3 host
        words at the paper's 7 bits; wider configuration words, needed
        beyond 64 elements, cost proportionally more.)
        """
        bits = len(self.words) * self.word_bits
        return -(-bits // host_word_bits)


def build_path_packet(
    arrival_mask: SlotMask,
    hops: Sequence[PathHop],
    teardown: bool = False,
    word_bits: int = 7,
) -> ConfigPacket:
    """Build a PATH_SETUP or PATH_TEARDOWN packet.

    ``hops`` must be ordered destination-first; ``arrival_mask`` marks the
    slots as seen by the *first* listed element (the destination NI in a
    full path, or the most-downstream element of a partial path).  Each
    subsequent element implicitly sees the mask rotated one more position.

    Raises:
        ProtocolError: if no hops are given, an element appears twice
            (the rotation count would become ambiguous), or a port word
            does not fit a configuration word.
    """
    if not hops:
        raise ProtocolError("a path packet needs at least one hop")
    ids = [hop.element_id for hop in hops]
    if len(set(ids)) != len(ids):
        raise ProtocolError(
            "an element may appear only once per path packet; "
            "use separate packets for further segments"
        )
    limit = 1 << word_bits
    for hop in hops:
        if not 0 <= hop.payload < limit:
            raise ProtocolError(
                f"port word {hop.payload:#x} of element {hop.element_id} "
                f"exceeds {word_bits} bits"
            )
    opcode = Opcode.PATH_TEARDOWN if teardown else Opcode.PATH_SETUP
    words: List[int] = [header_word(opcode)]
    words.extend(arrival_mask.to_words(word_bits))
    for hop in hops:
        words.append(element_word(hop.element_id, word_bits))
        words.append(hop.payload)
    return ConfigPacket(
        opcode=opcode,
        words=tuple(words),
        description=(
            f"{opcode.name} T={arrival_mask.size} "
            f"slots={sorted(arrival_mask.slots)} hops={ids}"
        ),
        word_bits=word_bits,
        addressees=tuple(ids),
    )


def _table_entry(table: Mapping[Any, Any], code: object, what: str) -> Any:
    """The enum member ``table`` holds for ``code``.

    Raises:
        ProtocolError: if ``code`` names none.
    """
    member = table.get(code)
    if member is None:
        raise ProtocolError(f"{what} {code!r} is not one of {sorted(table)}")
    return member


def build_channel_config_packet(
    element_id: int,
    direction: Direction,
    channel: int,
    fields: Sequence[tuple],
    word_bits: int = 7,
) -> ConfigPacket:
    """Build a CHANNEL_CONFIG packet.

    ``fields`` is a sequence of (:class:`ChannelField`, value) pairs.

    Raises:
        ProtocolError: if the direction or a field is not one of its
            enum's, or a value does not fit a configuration word.
    """
    direction = _table_entry(_DIRECTION_CODES, direction, "direction")
    words = [
        header_word(Opcode.CHANNEL_CONFIG),
        element_word(element_id, word_bits),
        ni_channel_word(direction, channel),
    ]
    limit = 1 << word_bits
    fields = [
        (_table_entry(_FIELDS, field_id, "channel field"), value)
        for field_id, value in fields
    ]
    for field_id, value in fields:
        if not 0 <= value < limit:
            raise ProtocolError(
                f"channel field value {value} exceeds {word_bits} bits"
            )
        words.append(int(field_id))
        words.append(value)
    return ConfigPacket(
        opcode=Opcode.CHANNEL_CONFIG,
        words=tuple(words),
        description=(
            f"CHANNEL_CONFIG elem={element_id} {direction.name} "
            f"ch={channel} fields={[(f.name, v) for f, v in fields]}"
        ),
        word_bits=word_bits,
        addressees=(element_id,),
    )


def build_channel_read_packet(
    element_id: int,
    direction: Direction,
    channel: int,
    field_id: ChannelField,
    word_bits: int = 7,
) -> ConfigPacket:
    """Build a CHANNEL_READ packet (one response word comes back).

    Raises:
        ProtocolError: if the direction or the field is not one of its
            enum's.
    """
    direction = _table_entry(_DIRECTION_CODES, direction, "direction")
    field_id = _table_entry(_FIELDS, field_id, "channel field")
    words = [
        header_word(Opcode.CHANNEL_READ),
        element_word(element_id, word_bits),
        ni_channel_word(direction, channel),
        int(field_id),
    ]
    return ConfigPacket(
        opcode=Opcode.CHANNEL_READ,
        words=tuple(words),
        description=(
            f"CHANNEL_READ elem={element_id} {direction.name} "
            f"ch={channel} field={field_id.name}"
        ),
        word_bits=word_bits,
        addressees=(element_id,),
    )


def build_bus_config_packet(
    element_id: int,
    payload: Sequence[int],
    word_bits: int = 7,
) -> ConfigPacket:
    """Build a BUS_CONFIG packet carrying raw payload words to an NI shell.

    Raises:
        ProtocolError: if a payload word does not fit.
    """
    limit = 1 << word_bits
    for word in payload:
        if not 0 <= word < limit:
            raise ProtocolError(f"bus config word {word} exceeds limit")
    words = [
        header_word(Opcode.BUS_CONFIG),
        element_word(element_id, word_bits),
        *payload,
    ]
    return ConfigPacket(
        opcode=Opcode.BUS_CONFIG,
        words=tuple(words),
        description=f"BUS_CONFIG elem={element_id} {len(payload)} words",
        word_bits=word_bits,
        addressees=(element_id,),
    )


# --------------------------------------------------------------------------
# Decoded actions (what a matched element must do at the end of a packet)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RouterPathAction:
    """Program (or clear) router slot-table entries."""

    mask: SlotMask
    output: Optional[int]  # None only when ports is None (disconnect-all)
    input_port: Optional[int]  # None = disconnect
    teardown: bool


@dataclass(frozen=True)
class NiPathAction:
    """Program (or clear) NI injection/arrival table entries."""

    mask: SlotMask
    direction: Direction
    channel: int
    teardown: bool


@dataclass(frozen=True)
class ChannelWriteAction:
    """Write one NI channel register."""

    direction: Direction
    channel: int
    register: ChannelField
    value: int


@dataclass(frozen=True)
class ChannelReadAction:
    """Read one NI channel register and return it on the response path."""

    direction: Direction
    channel: int
    register: ChannelField


@dataclass(frozen=True)
class BusConfigAction:
    """Raw payload words destined for the NI's bus-configuration shell."""

    payload: tuple


Action = Union[
    RouterPathAction,
    NiPathAction,
    ChannelWriteAction,
    ChannelReadAction,
    BusConfigAction,
]


class _State(Enum):
    IDLE = "idle"
    MASK = "mask"
    PAIR_ID = "pair_id"
    PAIR_DATA = "pair_data"
    CH_ELEMENT = "ch_element"
    CH_CHANNEL = "ch_channel"
    CH_FIELD = "ch_field"
    CH_VALUE = "ch_value"
    BUS_ELEMENT = "bus_element"
    BUS_PAYLOAD = "bus_payload"


# Module-level aliases of the states the per-word path tests: an enum
# member read through its class costs a descriptor call per word.
_IDLE = _State.IDLE
_PAIR_ID = _State.PAIR_ID
_PAIR_DATA = _State.PAIR_DATA


class ConfigDecoder:
    """Per-element configuration FSM.

    Feed one word per cycle with :meth:`feed`; feed ``None`` for cycles in
    which the valid line is deasserted.  A gap terminates the packet; the
    actions this element must apply are then returned (empty for elements
    the packet does not address).

    The decoder embodies the rotating-mask rule: it keeps a private mask
    copy, applies it on an ID match, and rotates it on a mismatch.
    """

    #: The element whose config port holds the decoder, and its
    #: network's change record (:mod:`repro.core.changes`), whose
    #: ``suspects`` starting a packet enters that element in; both
    #: unset for a free-standing decoder.
    owner: Any = None
    changes: Any = None

    def __init__(
        self,
        element_id: int,
        kind: ElementKind,
        slot_table_size: int,
        word_bits: int = 7,
    ) -> None:
        self.element_id = element_id
        self.kind = kind
        self.slot_table_size = slot_table_size
        self.word_bits = word_bits
        self._mask_word_count = (
            slot_table_size + word_bits - 1
        ) // word_bits
        self._word_limit = 1 << word_bits
        self._reset_packet()

    def _reset_packet(self) -> None:
        self._state = _IDLE
        self._opcode: Optional[Opcode] = None
        self._mask_words: List[int] = []
        self._mask: Optional[SlotMask] = None
        #: Rotations owed to ``_mask`` since it was last read (one per
        #: pair addressed to another element), applied when it is read.
        self._rotation = 0
        self._matched = False
        self._channel_ref: Optional[tuple] = None
        self._field: Optional[ChannelField] = None
        self._pairs_seen = 0
        self._fields_seen = 0
        self._bus_payload: List[int] = []
        self._actions: List[Action] = []

    def reset(self) -> None:
        """Abandon any packet in progress and return to IDLE.

        Fault-recovery entry point: after a :class:`ProtocolError` the
        FSM state is unreliable, so a monitor resets the decoder and
        lets it re-synchronize on the next packet header.
        """
        self._reset_packet()

    @property
    def busy(self) -> bool:
        """True while a packet is being received."""
        return self._state is not _IDLE

    def feed(self, word: Optional[int]) -> List[Action]:
        """Consume one cycle's configuration word (or a gap).

        Returns the list of actions to apply; non-empty only on the gap
        cycle that terminates a packet addressed to this element.

        Raises:
            ProtocolError: on malformed packets, including words that do
                not fit the configuration link width (an impossible
                input from a healthy serializer).
        """
        if word is None:
            if self._state is _IDLE:
                return []
            actions = self._finish_packet()
            self._reset_packet()
            return actions
        if not 0 <= word < self._word_limit:
            raise ProtocolError(
                f"config word {word:#x} outside the "
                f"{self.word_bits}-bit range"
            )
        self._consume(word)
        return []

    def addressed_layout(self, words: tuple) -> Optional[tuple]:
        """The whole-packet half of :meth:`decode_addressed`, done once
        per packet whatever its addressee count: ``words`` checked to
        be in range and laid out as a PATH_SETUP, PATH_TEARDOWN or
        CHANNEL_CONFIG packet — ``(opcode, first ID index, ID column,
        count of each ID, slot-mask bits)`` for a path packet, its mask
        words combined and their 0-padding checked, ``(opcode, fields)``
        for a channel packet — or ``None`` for any other tuple.  Every
        decoder of one network has the same slot-table size and word
        width, so any of them gives the packet's layout."""
        if not words or min(words) < 0 or max(words) >= self._word_limit:
            return None
        opcode = _OPCODES.get(words[0] & 0b111)
        if opcode is Opcode.PATH_SETUP or opcode is Opcode.PATH_TEARDOWN:
            start = 1 + self._mask_word_count
            if len(words) < start + 2 or (len(words) - start) % 2:
                return None
            bits = 0
            for j, word in enumerate(words[1:start]):
                bits |= word << (j * self.word_bits)
            if bits >> self.slot_table_size:
                return None  # bits set in the last mask word's padding
            ids = words[start::2]
            counts: Dict[int, int] = {}
            for element_id in ids:
                counts[element_id] = counts.get(element_id, 0) + 1
            return (opcode, start, ids, counts, bits)
        if opcode is Opcode.CHANNEL_CONFIG:
            if len(words) < 3 or len(words) % 2 == 0:
                return None
            fields = [_FIELDS.get(word) for word in words[3::2]]
            if None in fields:
                return None
            return (opcode, fields)
        return None

    def decode_addressed(
        self, words: tuple, position: int, layout: Optional[tuple] = None
    ) -> Optional[List[Action]]:
        """Decode only this element's part of a whole PATH_SETUP,
        PATH_TEARDOWN or CHANNEL_CONFIG packet that names it as addressee
        ``position`` (its pair index in a path packet, 0 in a channel
        packet): the mask once, rotated by ``position``, plus its own pair
        or fields.  ``layout`` is the packet's :meth:`addressed_layout`
        (``None``: derive it here), so the per-addressee work is O(1)
        beyond the element's own words.

        Returns what :meth:`feed` would return on the gap after feeding
        every word of ``words`` to an idle decoder, or ``None`` — with the
        decoder untouched — for any packet that would not decode cleanly
        that way (a word out of range, a malformed layout or mask, the ID
        missing from its position or present at another, an unknown
        field, another opcode).  A ``None`` leaves the packet to
        :meth:`feed`, the one place errors are raised.
        """
        if layout is None:
            layout = self.addressed_layout(words)
            if layout is None:
                return None
        opcode = layout[0]
        if opcode is not Opcode.CHANNEL_CONFIG:
            _opcode, start, ids, counts, bits = layout
            if (
                position >= len(ids)
                or ids[position] != self.element_id
                or counts[self.element_id] != 1
            ):
                return None
            payload = words[start + 2 * position + 1]
            if (
                payload == DISCONNECT_PORT_WORD
                and opcode is Opcode.PATH_SETUP
                and self.kind is ElementKind.ROUTER
            ):
                return None
            # The ``position`` pairs before its own are foreign: one
            # rotation each, as the FSM would owe them.
            self._mask = SlotMask.from_bits(
                self.slot_table_size,
                bits,
                position,
            )
            self._opcode = opcode
            self._record_path_action(payload)
        else:
            if position or words[1] != self.element_id:
                return None
            self._matched = True
            self._channel_ref = decode_ni_channel_word(words[2])
            for field, value in zip(layout[1], words[4::2]):
                self._field = field
                self._record_write_action(value)
        actions = self._actions
        self._reset_packet()
        return actions

    # -- internals ------------------------------------------------------------

    def _consume(self, word: int) -> None:
        # The per-pair states come first: they take most of the words
        # of a path packet.
        state = self._state
        if state is _PAIR_ID:
            self._matched = word == self.element_id
            self._pairs_seen += 1
            self._state = _PAIR_DATA
        elif state is _PAIR_DATA:
            if self._matched:
                self._record_path_action(word)
            else:
                self._rotation += 1
            self._state = _PAIR_ID
        elif state is _IDLE:
            self._start_packet(word)
        elif state is _State.MASK:
            self._mask_words.append(word)
            if len(self._mask_words) == self._mask_word_count:
                try:
                    self._mask = SlotMask.from_words(
                        self.slot_table_size,
                        self._mask_words,
                        self.word_bits,
                    )
                except ParameterError as error:
                    # Bits set in the 0-padding region of the last mask
                    # word: a corrupted packet.
                    raise ProtocolError(
                        f"malformed slot mask: {error}"
                    ) from error
                self._state = _State.PAIR_ID
        elif state is _State.CH_ELEMENT:
            self._matched = word == self.element_id
            self._state = _State.CH_CHANNEL
        elif state is _State.CH_CHANNEL:
            self._channel_ref = decode_ni_channel_word(word)
            self._state = _State.CH_FIELD
        elif state is _State.CH_FIELD:
            if (
                self._opcode is Opcode.CHANNEL_READ
                and self._fields_seen > 0
            ):
                # One response word comes back per packet, so a second
                # field word cannot be honoured — previously it decoded
                # as a second read and corrupted the response path.
                raise ProtocolError(
                    "CHANNEL_READ packet carries more than one field word"
                )
            field = _FIELDS.get(word)
            if field is None:
                raise ProtocolError(f"unknown channel field code {word}")
            self._field = field
            self._fields_seen += 1
            if self._opcode is Opcode.CHANNEL_READ:
                self._record_read_action()
                self._state = _State.CH_FIELD
            else:
                self._state = _State.CH_VALUE
        elif state is _State.CH_VALUE:
            self._record_write_action(word)
            self._state = _State.CH_FIELD
        elif state is _State.BUS_ELEMENT:
            self._matched = word == self.element_id
            self._state = _State.BUS_PAYLOAD
        elif state is _State.BUS_PAYLOAD:
            if self._matched:
                self._bus_payload.append(word)
        else:  # pragma: no cover - exhaustive
            raise ProtocolError(f"decoder in impossible state {state}")

    def _start_packet(self, word: int) -> None:
        if self.changes is not None:
            self.changes.suspects[self.owner] = None
        opcode = _OPCODES.get(word & 0b111)
        if opcode is None:
            raise ProtocolError(f"unknown opcode in header word {word:#x}")
        self._opcode = opcode
        if self._opcode in (Opcode.PATH_SETUP, Opcode.PATH_TEARDOWN):
            self._state = _State.MASK
        elif self._opcode in (
            Opcode.CHANNEL_CONFIG,
            Opcode.CHANNEL_READ,
        ):
            self._state = _State.CH_ELEMENT
        else:
            self._state = _State.BUS_ELEMENT

    def _record_path_action(self, word: int) -> None:
        assert self._mask is not None and self._opcode is not None
        if self._rotation:
            self._mask = self._mask.rotate(self._rotation)
            self._rotation = 0
        teardown = self._opcode is Opcode.PATH_TEARDOWN
        if self.kind is ElementKind.ROUTER:
            ports = decode_router_port_word(word)
            if teardown:
                # The disconnect word clears the marked slots on every
                # output; a normal port word clears only its output.
                output = ports[1] if ports is not None else None
                self._actions.append(
                    RouterPathAction(
                        mask=self._mask,
                        output=output,
                        input_port=None,
                        teardown=True,
                    )
                )
            else:
                if ports is None:
                    raise ProtocolError(
                        "disconnect port word requires a PATH_TEARDOWN "
                        "packet"
                    )
                input_port, output = ports
                self._actions.append(
                    RouterPathAction(
                        mask=self._mask,
                        output=output,
                        input_port=input_port,
                        teardown=False,
                    )
                )
        else:
            direction, channel = decode_ni_channel_word(word)
            self._actions.append(
                NiPathAction(
                    mask=self._mask,
                    direction=direction,
                    channel=channel,
                    teardown=teardown,
                )
            )

    def _record_write_action(self, value: int) -> None:
        if not self._matched:
            return
        assert self._channel_ref is not None and self._field is not None
        direction, channel = self._channel_ref
        self._actions.append(
            ChannelWriteAction(
                direction=direction,
                channel=channel,
                register=self._field,
                value=value,
            )
        )

    def _record_read_action(self) -> None:
        if not self._matched:
            return
        assert self._channel_ref is not None and self._field is not None
        direction, channel = self._channel_ref
        self._actions.append(
            ChannelReadAction(
                direction=direction,
                channel=channel,
                register=self._field,
            )
        )

    def _finish_packet(self) -> List[Action]:
        if self._state is _State.PAIR_DATA:
            raise ProtocolError(
                "path packet ended between an element ID and its data word"
            )
        if self._state is _State.CH_VALUE:
            raise ProtocolError(
                "channel packet ended between a field and its value"
            )
        if self._state is _State.MASK:
            raise ProtocolError("path packet ended inside the slot mask")
        if self._state is _State.PAIR_ID and self._pairs_seen == 0:
            raise ProtocolError(
                "path packet ended without any (element, port) pair"
            )
        if self._state is _State.CH_ELEMENT:
            raise ProtocolError(
                "channel packet ended before its element ID"
            )
        if self._state is _State.CH_CHANNEL:
            raise ProtocolError(
                "channel packet ended before its channel word"
            )
        if (
            self._opcode is Opcode.CHANNEL_READ
            and self._fields_seen == 0
        ):
            raise ProtocolError(
                "CHANNEL_READ packet ended before its field word"
            )
        if self._state is _State.BUS_ELEMENT:
            raise ProtocolError(
                "bus packet ended before its element ID"
            )
        if self._bus_payload:
            self._actions.append(
                BusConfigAction(payload=tuple(self._bus_payload))
            )
        return list(self._actions)
