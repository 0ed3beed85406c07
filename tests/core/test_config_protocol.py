"""Unit tests for the configuration protocol words, packets, decoder."""

from __future__ import annotations

import pytest

from repro.core import (
    ChannelField,
    ConfigDecoder,
    Direction,
    DISCONNECT_PORT_WORD,
    NiPathAction,
    Opcode,
    PathHop,
    RouterPathAction,
    SlotMask,
    build_bus_config_packet,
    build_channel_config_packet,
    build_channel_read_packet,
    build_path_packet,
    decode_ni_channel_word,
    decode_router_port_word,
    element_word,
    ni_channel_word,
    router_port_word,
)
from repro.core.config_protocol import (
    BusConfigAction,
    ChannelReadAction,
    ChannelWriteAction,
)
from repro.errors import ProtocolError
from repro.topology import ElementKind


class TestWords:
    def test_router_port_word_roundtrip(self):
        word = router_port_word(2, 5)
        assert decode_router_port_word(word) == (2, 5)

    def test_port_range(self):
        with pytest.raises(ProtocolError):
            router_port_word(7, 0)

    def test_disconnect_word(self):
        assert decode_router_port_word(DISCONNECT_PORT_WORD) is None

    def test_ni_channel_word_roundtrip(self):
        word = ni_channel_word(Direction.ARRIVE, 37)
        assert decode_ni_channel_word(word) == (Direction.ARRIVE, 37)

    def test_channel_range(self):
        with pytest.raises(ProtocolError):
            ni_channel_word(Direction.INJECT, 64)

    def test_element_word_limit(self):
        assert element_word(63) == 63
        with pytest.raises(ProtocolError):
            element_word(64)

    def test_words_fit_seven_bits(self):
        assert router_port_word(6, 6) < 128
        assert ni_channel_word(Direction.ARRIVE, 63) < 128
        assert DISCONNECT_PORT_WORD < 128


class TestPacketBuilders:
    def test_path_packet_layout(self):
        mask = SlotMask.of(8, {7, 4})
        packet = build_path_packet(
            mask,
            [
                PathHop(11, ni_channel_word(Direction.ARRIVE, 0)),
                PathHop(3, router_port_word(1, 2)),
                PathHop(2, router_port_word(2, 1)),
                PathHop(10, ni_channel_word(Direction.INJECT, 0)),
            ],
        )
        # Header + 2 mask words + 4 pairs.
        assert len(packet.words) == 1 + 2 + 8
        assert packet.words[0] == int(Opcode.PATH_SETUP)

    def test_duplicate_element_rejected(self):
        mask = SlotMask.of(8, {0})
        with pytest.raises(ProtocolError, match="once per path packet"):
            build_path_packet(
                mask,
                [
                    PathHop(1, router_port_word(0, 1)),
                    PathHop(1, router_port_word(1, 0)),
                ],
            )

    def test_port_word_wider_than_the_config_word_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds 7 bits"):
            build_path_packet(SlotMask.of(8, {0}), [PathHop(1, 1 << 7)])

    def test_empty_path_rejected(self):
        with pytest.raises(ProtocolError):
            build_path_packet(SlotMask.of(8, {0}), [])

    def test_channel_config_layout(self):
        packet = build_channel_config_packet(
            element_id=5,
            direction=Direction.INJECT,
            channel=2,
            fields=[
                (ChannelField.CREDIT, 8),
                (ChannelField.FLAGS, 3),
            ],
        )
        assert len(packet.words) == 3 + 4
        assert packet.opcode is Opcode.CHANNEL_CONFIG

    def test_channel_config_value_range(self):
        with pytest.raises(ProtocolError):
            build_channel_config_packet(
                5, Direction.INJECT, 0, [(ChannelField.CREDIT, 128)]
            )

    def test_read_packet(self):
        packet = build_channel_read_packet(
            5, Direction.ARRIVE, 1, ChannelField.CREDIT
        )
        assert len(packet.words) == 4

    def test_bus_config_packet(self):
        packet = build_bus_config_packet(5, [1, 2, 3])
        assert len(packet.words) == 5
        with pytest.raises(ProtocolError):
            build_bus_config_packet(5, [200])


    @pytest.mark.parametrize("word_bits", [7, 9, 10])
    def test_builders_record_width_and_addressees(self, word_bits):
        """What the configuration module needs to deliver a packet
        without parsing it: whom it addresses, in packet order."""
        path = build_path_packet(
            SlotMask.of(8, {3}),
            [PathHop(9, 0), PathHop(4, 0o12), PathHop(2, 1)],
            word_bits=word_bits,
        )
        config = build_channel_config_packet(
            5, Direction.INJECT, 1, [(ChannelField.FLAGS, 1)], word_bits
        )
        read = build_channel_read_packet(
            6, Direction.ARRIVE, 0, ChannelField.CREDIT, word_bits
        )
        bus = build_bus_config_packet(7, [1, 2], word_bits)
        assert path.addressees == (9, 4, 2)
        assert config.addressees == (5,)
        assert read.addressees == (6,)
        assert bus.addressees == (7,)
        for packet in (path, config, read, bus):
            assert packet.word_bits == word_bits


def feed_packet(decoder, words):
    """Feed all words then the terminating gap; return the actions."""
    for word in words:
        assert decoder.feed(word) == []
    return decoder.feed(None)


class TestDecoder:
    def make(self, element_id, kind=ElementKind.ROUTER, size=8):
        return ConfigDecoder(
            element_id=element_id, kind=kind, slot_table_size=size
        )

    def test_non_addressed_element_does_nothing(self):
        packet = build_path_packet(
            SlotMask.of(8, {4}),
            [PathHop(3, router_port_word(0, 1))],
        )
        decoder = self.make(9)
        assert feed_packet(decoder, packet.words) == []

    def test_rotation_per_preceding_pair(self):
        packet = build_path_packet(
            SlotMask.of(8, {7, 4}),
            [
                PathHop(11, ni_channel_word(Direction.ARRIVE, 0)),
                PathHop(3, router_port_word(1, 2)),
                PathHop(2, router_port_word(2, 1)),
            ],
        )
        first = feed_packet(self.make(3), packet.words)
        assert first == [
            RouterPathAction(
                mask=SlotMask.of(8, {6, 3}),
                output=2,
                input_port=1,
                teardown=False,
            )
        ]
        second = feed_packet(self.make(2), packet.words)
        assert second[0].mask.slots == frozenset({5, 2})

    def test_ni_action_decoded(self):
        packet = build_path_packet(
            SlotMask.of(8, {4}),
            [PathHop(11, ni_channel_word(Direction.ARRIVE, 6))],
        )
        actions = feed_packet(
            self.make(11, kind=ElementKind.NI), packet.words
        )
        assert actions == [
            NiPathAction(
                mask=SlotMask.of(8, {4}),
                direction=Direction.ARRIVE,
                channel=6,
                teardown=False,
            )
        ]

    def test_teardown_decoded(self):
        packet = build_path_packet(
            SlotMask.of(8, {4}),
            [PathHop(3, router_port_word(1, 2))],
            teardown=True,
        )
        actions = feed_packet(self.make(3), packet.words)
        assert actions[0].teardown
        assert actions[0].input_port is None
        assert actions[0].output == 2

    def test_disconnect_word_in_setup_rejected(self):
        words = [
            int(Opcode.PATH_SETUP),
            0,
            0,
            3,
            DISCONNECT_PORT_WORD,
        ]
        decoder = self.make(3)
        with pytest.raises(ProtocolError, match="TEARDOWN"):
            for word in words:
                decoder.feed(word)

    def test_channel_write_decoded(self):
        packet = build_channel_config_packet(
            5,
            Direction.INJECT,
            2,
            [(ChannelField.CREDIT, 8), (ChannelField.PAIRED, 3)],
        )
        actions = feed_packet(
            self.make(5, kind=ElementKind.NI), packet.words
        )
        assert actions == [
            ChannelWriteAction(
                Direction.INJECT, 2, ChannelField.CREDIT, 8
            ),
            ChannelWriteAction(
                Direction.INJECT, 2, ChannelField.PAIRED, 3
            ),
        ]

    def test_channel_read_decoded(self):
        packet = build_channel_read_packet(
            5, Direction.ARRIVE, 1, ChannelField.FLAGS
        )
        actions = feed_packet(
            self.make(5, kind=ElementKind.NI), packet.words
        )
        assert actions == [
            ChannelReadAction(Direction.ARRIVE, 1, ChannelField.FLAGS)
        ]

    def test_bus_config_only_for_match(self):
        packet = build_bus_config_packet(5, [10, 20])
        match = feed_packet(self.make(5, kind=ElementKind.NI), packet.words)
        assert match == [BusConfigAction(payload=(10, 20))]
        other = feed_packet(self.make(6, kind=ElementKind.NI), packet.words)
        assert other == []

    def test_unknown_opcode_rejected(self):
        decoder = self.make(1)
        with pytest.raises(ProtocolError, match="opcode"):
            decoder.feed(0)

    def test_truncated_pair_rejected(self):
        decoder = self.make(3)
        decoder.feed(int(Opcode.PATH_SETUP))
        decoder.feed(0)
        decoder.feed(0)
        decoder.feed(3)  # element id without data word
        with pytest.raises(ProtocolError, match="ended between"):
            decoder.feed(None)

    def test_truncated_mask_rejected(self):
        decoder = self.make(3)
        decoder.feed(int(Opcode.PATH_SETUP))
        decoder.feed(0)
        with pytest.raises(ProtocolError, match="inside the slot mask"):
            decoder.feed(None)

    def test_unknown_field_rejected(self):
        decoder = self.make(5, kind=ElementKind.NI)
        decoder.feed(int(Opcode.CHANNEL_CONFIG))
        decoder.feed(5)
        decoder.feed(ni_channel_word(Direction.INJECT, 0))
        with pytest.raises(ProtocolError, match="field"):
            decoder.feed(99)

    def test_decoder_reusable_across_packets(self):
        decoder = self.make(3)
        packet = build_path_packet(
            SlotMask.of(8, {4}), [PathHop(3, router_port_word(0, 1))]
        )
        assert feed_packet(decoder, packet.words)
        assert feed_packet(decoder, packet.words)
        assert decoder.feed(None) == []

    def test_busy_flag(self):
        decoder = self.make(3)
        assert not decoder.busy
        decoder.feed(int(Opcode.PATH_SETUP))
        assert decoder.busy
