"""Differential suite: the addressed decode of an elided deposit against
the word-level decoder it stands in for.

``ConfigDecoder.decode_addressed`` reads only its own element's part of
a whole packet — the mask, rotated by the element's addressee position,
and its own pair or fields.  For every packet a builder makes it must
return exactly what feeding every word and then the gap to an idle
decoder returns.  For any other word tuple it may decline (``None``,
decoder untouched: the port then feeds the words one by one, where
errors are raised and recovered), but it may never return actions where
the word-level decoder raises, nor actions that differ from it.

Planted mutants of the addressed decode show the suite bites: each one
disagrees with the word-level decoder on some builder packet or named
irregular tuple.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config_port import ConfigPort
from repro.core.config_protocol import (
    DISCONNECT_PORT_WORD,
    ChannelField,
    ConfigDecoder,
    ConfigPacket,
    Direction,
    Opcode,
    PathHop,
    build_bus_config_packet,
    build_channel_config_packet,
    build_channel_read_packet,
    build_path_packet,
    ni_channel_word,
    router_port_word,
)
from repro.core.slot_table import SlotMask
from repro.errors import ProtocolError
from repro.sim.kernel import Component
from repro.topology import ElementKind

from ..differential import plant

pytestmark = pytest.mark.differential

KINDS = (ElementKind.ROUTER, ElementKind.NI)
WORD_BITS = (7, 9, 10)
BUILDERS = (
    "path_setup",
    "path_teardown",
    "channel_config",
    "channel_read",
    "bus_config",
)
#: Builders whose packets the addressed decode serves.
SERVED = {"path_setup", "path_teardown", "channel_config"}

#: The word-level outcome of a packet that raises.
RAISES = "raises"


def build_case(
    rng: random.Random, builder: str, word_bits: int
) -> Tuple[int, ConfigPacket]:
    """A random slot-table size and a packet from ``builder``."""
    size = rng.randint(1, 40)
    id_limit = 1 << (word_bits - 1)
    word_limit = 1 << word_bits
    if builder.startswith("path"):
        ids = rng.sample(range(id_limit), rng.randint(1, 6))
        hops = [
            PathHop(
                element_id,
                DISCONNECT_PORT_WORD
                if rng.random() < 0.2
                else rng.randrange(word_limit),
            )
            for element_id in ids
        ]
        mask = SlotMask.of(
            size, [slot for slot in range(size) if rng.random() < 0.3]
        )
        return size, build_path_packet(
            mask, hops, builder == "path_teardown", word_bits
        )
    element_id = rng.randrange(id_limit)
    direction = rng.choice(list(Direction))
    channel = rng.randrange(64)
    if builder == "channel_config":
        fields = [
            (rng.choice(list(ChannelField)), rng.randrange(word_limit))
            for _ in range(rng.randint(0, 4))
        ]
        return size, build_channel_config_packet(
            element_id, direction, channel, fields, word_bits
        )
    if builder == "channel_read":
        return size, build_channel_read_packet(
            element_id,
            direction,
            channel,
            rng.choice(list(ChannelField)),
            word_bits,
        )
    payload = [rng.randrange(word_limit) for _ in range(rng.randint(0, 5))]
    return size, build_bus_config_packet(element_id, payload, word_bits)


def word_level(decoder: ConfigDecoder, words: tuple):
    """What an idle decoder returns on the gap after every word, or
    :data:`RAISES`."""
    try:
        for word in words:
            decoder.feed(word)
        return decoder.feed(None)
    except ProtocolError:
        return RAISES


def disagreement(
    element_id: int,
    kind: ElementKind,
    size: int,
    word_bits: int,
    words: tuple,
    position: int,
    served: Optional[bool] = None,
) -> Optional[str]:
    """Why the addressed decode of ``words`` at ``position`` does not
    stand in for the word-level decode (``None``: it does).  ``served``
    also requires it to decode (``True``) or to decline (``False``)."""

    def decoder() -> ConfigDecoder:
        return ConfigDecoder(element_id, kind, size, word_bits)

    addressed = decoder()
    own = addressed.decode_addressed(words, position)
    if vars(addressed) != vars(decoder()):
        return "the decoder is not left idle"
    reference = word_level(decoder(), words)
    if served is not None and (own is not None) != served:
        return f"served={own is not None}, expected {served}"
    if own is None:
        return None
    if reference == RAISES:
        return f"actions {own} where the word-level decoder raises"
    # The reprs too: an equal mask must also iterate, and print, alike.
    if own != reference or repr(own) != repr(reference):
        return f"{own} != word-level {reference}"
    return None


def builder_disagreements(
    rng: random.Random, builder: str, word_bits: int, kind: ElementKind
) -> List[str]:
    """Every addressee of one random packet from ``builder``: served
    exactly when its builder is and the word-level decoder does not
    raise, and then equal to it."""
    size, packet = build_case(rng, builder, word_bits)
    found = []
    assert packet.addressees is not None
    for position, element_id in enumerate(packet.addressees):
        served = builder in SERVED and word_level(
            ConfigDecoder(element_id, kind, size, word_bits), packet.words
        ) != RAISES
        problem = disagreement(
            element_id, kind, size, word_bits, packet.words, position, served
        )
        if problem is not None:
            found.append(f"{packet.description} @{position}: {problem}")
    return found


# -- every builder, width, kind and position ------------------------------------


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.name)
@pytest.mark.parametrize("word_bits", WORD_BITS)
@pytest.mark.parametrize("builder", BUILDERS)
@settings(max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_builder_packets_decode_as_the_word_level_decoder(
    builder, word_bits, kind, rng
):
    assert builder_disagreements(rng, builder, word_bits, kind) == []


@settings(max_examples=300, deadline=None)
@given(
    words=st.lists(st.integers(-2, 140), max_size=16).map(tuple),
    position=st.integers(0, 6),
    element_id=st.integers(0, 8),
    kind=st.sampled_from(KINDS),
    size=st.integers(1, 16),
)
def test_any_word_tuple_declines_or_agrees(
    words, position, element_id, kind, size
):
    assert (
        disagreement(element_id, kind, size, 7, words, position) is None
    )


# -- named irregular tuples ------------------------------------------------------

#: (element id, kind) of each addressee of :data:`FIG6`, in order.
FIG6_ELEMENTS = (
    (11, ElementKind.NI),
    (3, ElementKind.ROUTER),
    (2, ElementKind.ROUTER),
    (10, ElementKind.NI),
)
#: The paper's Fig. 6 packet: T = 8, slots {7, 4} at the destination.
FIG6 = build_path_packet(
    SlotMask.of(8, {7, 4}),
    [
        PathHop(11, ni_channel_word(Direction.ARRIVE, 0)),
        PathHop(3, router_port_word(1, 2)),
        PathHop(2, router_port_word(2, 1)),
        PathHop(10, ni_channel_word(Direction.INJECT, 0)),
    ],
)
CHANNEL = build_channel_config_packet(
    10,
    Direction.INJECT,
    0,
    [(ChannelField.CREDIT, 8), (ChannelField.FLAGS, 3)],
)
#: Where each pair of :data:`FIG6` starts: header, two mask words.
PAIRS = 3


def replaced(words: tuple, index: int, word: int) -> tuple:
    return words[:index] + (word,) + words[index + 1 :]


def fig6_cases(words: tuple) -> List[Tuple[int, ElementKind, tuple, int]]:
    """``words`` for every addressee of :data:`FIG6`."""
    return [
        (element_id, kind, words, position)
        for position, (element_id, kind) in enumerate(FIG6_ELEMENTS)
    ]


def irregular_tuples() -> Dict[str, List[Tuple[int, ElementKind, tuple, int]]]:
    """Named families of malformed or foreign word tuples, each case an
    ``(element id, kind, words, position)`` at T = 8, 7-bit words."""
    families: Dict[str, List[Tuple[int, ElementKind, tuple, int]]] = {}
    families["flipped word"] = [
        case
        for packet, cases in (
            (FIG6, fig6_cases),
            (CHANNEL, lambda words: [(10, ElementKind.NI, words, 0)]),
        )
        for index, bit in product(range(len(packet.words)), range(7))
        for case in cases(
            replaced(packet.words, index, packet.words[index] ^ 1 << bit)
        )
    ]
    families["out-of-range word"] = [
        case
        for packet, cases in (
            (FIG6, fig6_cases),
            (CHANNEL, lambda words: [(10, ElementKind.NI, words, 0)]),
        )
        for index, word in product(range(len(packet.words)), (128, 255, -1))
        for case in cases(replaced(packet.words, index, word))
    ]
    families["duplicate ID"] = [
        (element_id, kind, replaced(FIG6.words, PAIRS + 2 * other, element_id), position)
        for position, (element_id, kind) in enumerate(FIG6_ELEMENTS)
        for other in range(len(FIG6_ELEMENTS))
        if other != position
    ]
    # Slot 8 of a T = 8 table: bit 1 of the second mask word.
    families["bad mask padding"] = fig6_cases(
        replaced(FIG6.words, 2, FIG6.words[2] | 0b10)
    )
    families["disconnect word in a router set-up"] = [
        (3, ElementKind.ROUTER, replaced(FIG6.words, PAIRS + 3, DISCONNECT_PORT_WORD), 1)
    ]
    families["unknown channel field"] = [
        (10, ElementKind.NI, replaced(CHANNEL.words, index, code), 0)
        for index, code in product((3, 5), (3, 5, 7))
    ]
    families["BUS_CONFIG / CHANNEL_READ packets"] = [
        (5, kind, packet.words, 0)
        for kind in KINDS
        for packet in (
            build_bus_config_packet(5, [1, 2, 3]),
            build_bus_config_packet(5, []),
            build_channel_read_packet(5, Direction.ARRIVE, 1, ChannelField.CREDIT),
        )
    ]
    # Cut inside the mask or inside a pair (a cut between two pairs
    # leaves a shorter packet that still decodes).
    families["truncated path packets"] = [
        case
        for end in range(len(FIG6.words))
        if end < PAIRS + 2 or (end - PAIRS) % 2
        for case in fig6_cases(FIG6.words[:end])
    ]
    return families


IRREGULAR = irregular_tuples()


@pytest.mark.parametrize("family", sorted(IRREGULAR))
def test_irregular_tuples_decline_or_agree(family):
    problems = [
        (words, position, problem)
        for element_id, kind, words, position in IRREGULAR[family]
        for problem in [disagreement(element_id, kind, 8, 7, words, position)]
        if problem is not None
    ]
    assert problems == []


@pytest.mark.parametrize(
    "family",
    [
        "duplicate ID",
        "bad mask padding",
        "disconnect word in a router set-up",
        "unknown channel field",
        "BUS_CONFIG / CHANNEL_READ packets",
        "truncated path packets",
    ],
)
def test_irregular_families_are_declined(family):
    """Each family's packets are ones the addressed decode must leave to
    the word-level decoder (a flipped or out-of-range word may still
    leave a packet it serves)."""
    assert all(
        ConfigDecoder(element_id, kind, 8, 7).decode_addressed(words, position)
        is None
        for element_id, kind, words, position in IRREGULAR[family]
    )


def test_the_irregular_families_reach_the_word_level_errors():
    """The tuples the mutants below must trip over: the word-level
    decoder raises on a duplicate-free out-of-range word, bad padding,
    a router set-up's disconnect word and an unknown field code."""
    for family in (
        "out-of-range word",
        "bad mask padding",
        "disconnect word in a router set-up",
        "unknown channel field",
    ):
        assert any(
            word_level(ConfigDecoder(element_id, kind, 8, 7), words) == RAISES
            for element_id, kind, words, _ in IRREGULAR[family]
        ), family


# -- the port: which decode a deposit takes --------------------------------------


class Owner(Component):
    """The least element a :class:`ConfigPort` can sit in."""

    def evaluate(self, cycle: int) -> None:  # pragma: no cover - unused
        pass


def port_for(element_id: int, kind: ElementKind) -> ConfigPort:
    return ConfigPort(Owner("element"), element_id, kind, 8)


@pytest.mark.parametrize("position", [1, None])
def test_a_deposit_decodes_as_the_word_level_decoder(position):
    port = port_for(3, ElementKind.ROUTER)
    port.deposit(FIG6.words, due=20, position=position)
    assert port._decode_deposit(20, None) == word_level(
        ConfigDecoder(3, ElementKind.ROUTER, 8), FIG6.words
    )
    assert not port.decoder.busy and not port.deposit_pending


def recovered(words: tuple, position: Optional[int]):
    """The router 3 port's actions and monitored errors for a deposit
    of ``words`` due at cycle 40."""
    port = port_for(3, ElementKind.ROUTER)
    errors: List[Tuple[int, str]] = []
    port.fault_monitor = lambda cycle, error: errors.append(
        (cycle, str(error))
    )
    port.deposit(words, due=40, position=position)
    actions = port._decode_deposit(40, None)
    assert not port.decoder.busy
    return actions, errors


def test_a_declined_deposit_is_recovered_word_by_word():
    """A deposit whose words break the decoder reports the same errors,
    at the cycles its words reached the element, whether or not it
    carries its addressee position: the out-of-range word at index 4
    first, at ``due - len + 4``."""
    words = replaced(FIG6.words, 4, 200)
    actions, errors = recovered(words, 1)
    assert (actions, errors) == recovered(words, None)
    assert errors[0] == (
        40 - len(words) + 4,
        "config word 0xc8 outside the 7-bit range",
    )


# -- planted mutants --------------------------------------------------------------

#: (name, method of ``ConfigDecoder``, source fragment of it, its
#: mutant): the per-addressee decode and the whole-packet layout it
#: reads.
MUTANTS = (
    ("rotation by position + 1", "decode_addressed", "position,", "position + 1,"),
    ("rotation by position - 1", "decode_addressed", "position,", "position - 1,"),
    (
        "pair index off by one",
        "decode_addressed",
        "payload = words[start + 2 * position + 1]",
        "payload = words[start + 2 * position - 1]",
    ),
    (
        "own ID at no other pair unchecked",
        "decode_addressed",
        "or counts[self.element_id] != 1",
        "or False",
    ),
    (
        "range check dropped",
        "addressed_layout",
        "if not words or min(words) < 0 or max(words) >= self._word_limit:",
        "if not words:",
    ),
    (
        "field lookup dropped",
        "addressed_layout",
        "fields = [_FIELDS.get(word) for word in words[3::2]]",
        "fields = list(words[3::2])",
    ),
    (
        "mask padding dropped",
        "addressed_layout",
        "if bits >> self.slot_table_size:",
        "bits &= (1 << self.slot_table_size) - 1\n            if False:",
    ),
)


def all_disagreements() -> List[str]:
    """A seeded sweep of builder packets plus every irregular family."""
    found = []
    for builder, word_bits, kind, seed in product(
        BUILDERS, WORD_BITS, KINDS, range(12)
    ):
        found += builder_disagreements(
            random.Random(seed), builder, word_bits, kind
        )
    for family, cases in IRREGULAR.items():
        for element_id, kind, words, position in cases:
            problem = disagreement(element_id, kind, 8, 7, words, position)
            if problem is not None:
                found.append(f"{family}: {problem}")
    return found


def test_the_sweep_finds_nothing_on_the_real_decoder():
    assert all_disagreements() == []


@pytest.mark.parametrize(
    "method, original, mutant",
    [mutant[1:] for mutant in MUTANTS],
    ids=[mutant[0] for mutant in MUTANTS],
)
def test_planted_mutant_is_killed(monkeypatch, method, original, mutant):
    plant(monkeypatch, original, mutant, owner=ConfigDecoder, method=method)
    assert all_disagreements() != []


def test_planting_an_identity_mutant_kills_nothing(monkeypatch):
    """The harness itself does not make the decode disagree."""
    plant(
        monkeypatch,
        "position,",
        "position,",
        owner=ConfigDecoder,
        method="decode_addressed",
    )
    assert all_disagreements() == []


def test_the_word_level_decoder_is_the_reference():
    """The reference itself: the Fig. 6 router decodes its own pair
    with the mask rotated once."""
    (action,) = word_level(ConfigDecoder(3, ElementKind.ROUTER, 8), FIG6.words)
    assert action.mask == SlotMask.of(8, {6, 3})
    assert FIG6.words[0] == int(Opcode.PATH_SETUP)
