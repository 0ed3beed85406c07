"""The daelite network interface (paper Fig. 5).

"The NI contains a slot table governing both packet departures and
arrivals.  This is because NIs have to know both when they are allowed to
insert packets into the network, and into which channel queue they have to
deposit the arriving packets."

The injection side is registered (one output stage), so the injection
table is indexed with the plain global slot counter while the word reaches
the NI-router link one slot later; the arrival side uses the same
one-cycle-lagged counter as the routers.  Together this realises the
"+1 table index per element" numbering visible in the paper's Fig. 6
example (NI10 slots {4,1} -> R10 {5,2} -> R11 {6,3} -> NI11 {7,4}).

End-to-end flow control is credit based (see :mod:`repro.core.credits`);
credit values ride the credit wires of the paired opposite-direction
channel and are transferred once per slot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import FlowControlError, SimulationError
from ..params import NetworkParameters
from ..sim.flit import Phit, Word, parity_of
from ..sim.kernel import Component, Register
from ..sim.link import Link
from ..sim.stats import FAULT_DETECTED, StatsCollector
from ..sim.trace import NULL_TRACER
from ..topology import Element, ElementKind
from .changes import ChangeRecord, ReportingElement
from .config_port import ConfigPort
from .config_protocol import (
    Action,
    BusConfigAction,
    ChannelField,
    ChannelReadAction,
    ChannelWriteAction,
    Direction,
    NiPathAction,
)
from .credits import DestChannel, SourceChannel
from .slot_table import NiArrivalTable, NiInjectionTable


class ChannelInjector:
    """Callable bound to one NI source channel.

    Traffic generators hold one of these as their ``inject`` function.
    Keeping the binding introspectable (``ni``/``channel``/``connection``
    attributes rather than a closure) lets the compiled engine map a
    generator onto the flat schedule it belongs to.
    """

    __slots__ = ("ni", "channel", "connection")

    def __init__(
        self,
        ni: "NetworkInterface",
        channel: int,
        connection: str = "",
    ) -> None:
        self.ni = ni
        self.channel = channel
        self.connection = connection

    def __call__(self, payload: int) -> Word:
        return self.ni.submit(self.channel, payload, self.connection)


class ChannelReceiver:
    """Callable bound to one NI destination channel (see
    :class:`ChannelInjector`); sinks hold one as their ``receive``
    function, and the compiled engine lowers a sink holding one."""

    __slots__ = ("ni", "channel")

    def __init__(self, ni: "NetworkInterface", channel: int) -> None:
        self.ni = ni
        self.channel = channel

    def __call__(self, max_words: Optional[int] = None) -> List[Word]:
        return self.ni.receive(self.channel, max_words)


class NetworkInterface(Component, ReportingElement):
    """A daelite NI: slot tables, channel queues, credits, config port.

    Attributes:
        injection_table: Which source channel may inject in each slot.
        arrival_table: Which destination queue receives in each slot.
        source_channels: Sending channel endpoints, by channel index.
        dest_channels: Receiving channel endpoints, by channel index.
        bus_config_words: Raw 7-bit words received via BUS_CONFIG packets.
        changes: The network's change record (one of its own when
            built alone): the tables count writes there, and a set
            tracer or collector, a decoded packet, a first source
            channel, a channel endpoint created, dropped or re-paired
            and a submitted word note the NI there.
    """

    def __init__(
        self,
        element: Element,
        params: NetworkParameters,
        stats: Optional[StatsCollector] = None,
        strict: bool = False,
        changes: Optional[ChangeRecord] = None,
    ) -> None:
        super().__init__(element.name)
        if element.kind is not ElementKind.NI:
            raise SimulationError(f"{element.name!r} is not an NI")
        self.changes = changes if changes is not None else ChangeRecord()
        self.element = element
        self.params = params
        self.stats = stats
        self.strict = strict
        self.injection_table = NiInjectionTable(
            params.slot_table_size, self.changes
        )
        self.arrival_table = NiArrivalTable(
            params.slot_table_size, self.changes
        )
        self.source_channels: Dict[int, SourceChannel] = {}
        self.dest_channels: Dict[int, DestChannel] = {}
        #: Link towards the router (wired by the network builder).
        self.out_link: Optional[Link] = None
        #: Link from the router.
        self.in_link: Optional[Link] = None
        # Two-stage output pipeline: the injection decision made during
        # injection-table slot t reaches the NI-router link during slot
        # t+1, giving the uniform "+1 table index per element" numbering
        # of Fig. 6 (and keeping both words of a slot in the same slot).
        self._stage_reg: Register = self.make_register("inj_stage")
        self._out_reg: Register = self.make_register("out")
        self.config = ConfigPort(
            owner=self,
            element_id=element.element_id,
            kind=ElementKind.NI,
            slot_table_size=params.slot_table_size,
            word_bits=params.config_word_bits,
            changes=self.changes,
        )
        self.bus_config_words: List[int] = []
        #: Optional event tracer (set by the network builder).
        self.tracer = NULL_TRACER
        self.dropped_words = 0
        self._sequence_counters: Dict[int, int] = {}
        #: Config actions applied.
        self.config_applied = 0

    # -- channel access (used by shells, traffic generators, the host) -------

    def source_channel(self, channel: int) -> SourceChannel:
        """Get (creating lazily) a source channel endpoint."""
        if channel not in self.source_channels:
            self.changes.sourcing[self] = None
            self.changes.endpoints[self] = None
            self.source_channels[channel] = SourceChannel(
                channel=channel,
                max_credit=self.params.max_credit_value,
            )
        return self.source_channels[channel]

    def dest_channel(self, channel: int) -> DestChannel:
        """Get (creating lazily) a destination channel endpoint."""
        if channel not in self.dest_channels:
            self.changes.endpoints[self] = None
            self.dest_channels[channel] = DestChannel(
                channel=channel,
                capacity=self.params.channel_buffer_words,
            )
        return self.dest_channels[channel]

    def submit(
        self,
        channel: int,
        payload: int,
        connection: str = "",
    ) -> Word:
        """Queue one word for injection on ``channel``.

        The word is stamped with a per-channel sequence number so the
        statistics collector can verify ordered, exactly-once delivery.
        """
        sequence = self._sequence_counters.get(channel, 0)
        self._sequence_counters[channel] = sequence + 1
        word = Word(
            payload=payload,
            connection=connection or f"{self.name}.ch{channel}",
            sequence=sequence,
            parity=parity_of(payload),
        )
        self.source_channel(channel).queue.append(word)
        self.changes.queued[self] = None
        return word

    def submit_words(
        self,
        channel: int,
        payloads: Sequence[int],
        connection: str = "",
    ) -> List[Word]:
        """Queue several words for injection on ``channel``."""
        return [
            self.submit(channel, payload, connection)
            for payload in payloads
        ]

    def receive(
        self, channel: int, max_words: Optional[int] = None
    ) -> List[Word]:
        """Drain delivered words from a destination queue (IP side).

        Draining is what generates credits back to the source.  A
        channel with no endpoint has nothing to drain: the receive
        returns ``[]`` and creates none, so polling a torn-down channel
        does not bring back the endpoint ``quiesce_channel`` dropped.
        """
        dest = self.dest_channels.get(channel)
        return [] if dest is None else dest.drain(max_words)

    def injector(
        self, channel: int, connection: str = ""
    ) -> ChannelInjector:
        """Bound injection callable for traffic generators."""
        return ChannelInjector(self, channel, connection)

    def receiver(self, channel: int) -> ChannelReceiver:
        """Bound drain callable for traffic sinks."""
        return ChannelReceiver(self, channel)

    def pending_injections(self, channel: int) -> int:
        """Words queued but not yet injected on ``channel``."""
        source = self.source_channels.get(channel)
        return len(source.queue) if source else 0

    def quiesce_channel(self, channel: int) -> None:
        """Forget the driver-side state of one channel index.

        The tear-down packets already cleared the hardware registers;
        this drops what only software holds — words queued but never
        injected, arrivals never drained, pending credits, and the
        injection sequence counter — so a later connection reusing the
        recycled index starts from a clean slate (sequence numbering
        restarts at 0, exactly as if the index were fresh)."""
        self.changes.endpoints[self] = None
        self.source_channels.pop(channel, None)
        self.dest_channels.pop(channel, None)
        self._sequence_counters.pop(channel, None)

    # -- cycle behaviour -------------------------------------------------------

    def evaluate(self, cycle: int) -> None:
        self._handle_arrival(cycle)
        self._handle_injection(cycle)
        actions = self.config.evaluate(cycle)
        if actions:
            self.config.apply_guarded(cycle, actions, self._apply)

    def _handle_arrival(self, cycle: int) -> None:
        if self.in_link is None:
            return
        phit = self.in_link.incoming
        if phit.is_idle:
            return
        slot = self.params.lagged_slot_of_cycle(cycle)
        channel = self.arrival_table.channel(slot)
        if channel is None:
            if phit.word is not None:
                self.dropped_words += 1
                if self.stats is not None:
                    self.stats.record_fault(
                        cycle,
                        FAULT_DETECTED,
                        "misroute_drop",
                        self.name,
                        f"slot {slot}: {phit.word!r}",
                    )
                if self.strict:
                    raise SimulationError(
                        f"{self.name}: word {phit.word!r} arrived in "
                        f"unmapped slot {slot}"
                    )
            return
        dest = self.dest_channel(channel)
        if phit.word is not None and not phit.word.parity_ok:
            # The parity wire contradicts the payload: a transient or
            # stuck-at fault corrupted the word in flight.  Drop it —
            # the end-to-end sequence check will also flag the gap.
            self.dropped_words += 1
            if self.stats is not None:
                self.stats.record_fault(
                    cycle,
                    FAULT_DETECTED,
                    "parity_error",
                    self.name,
                    f"ch{channel}: {phit.word!r}",
                )
            if phit.credit_bits:
                self._credit_paired_source(dest, phit.credit_bits)
            return
        if phit.word is not None:
            dest.deliver(phit.word)
            if self.tracer.enabled:
                self.tracer.emit(
                    cycle,
                    self.name,
                    "eject",
                    f"slot {slot} ch{channel}: {phit.word!r}",
                )
            if self.stats is not None:
                self.stats.record_ejection(
                    phit.word, cycle, destination=self.name
                )
        if phit.credit_bits:
            self._credit_paired_source(dest, phit.credit_bits)

    def _credit_paired_source(
        self, dest: DestChannel, credit_bits: int
    ) -> None:
        if dest.paired_source is None:
            raise FlowControlError(
                f"{self.name}: credits arrived on channel "
                f"{dest.channel} which has no paired source channel"
            )
        self.source_channel(dest.paired_source).add_credits(credit_bits)

    def _handle_injection(self, cycle: int) -> None:
        # Output stage: drive the link from the final register.
        staged: Optional[Phit] = self._out_reg.q
        if staged is not None and not staged.is_idle and (
            self.out_link is not None
        ):
            # Stamped before the link sees it: a fault hook that swaps
            # the word for a corrupted copy copies the stamp.
            if staged.word is not None and self.stats is not None:
                self.stats.record_injection(staged.word, cycle)
            self.out_link.send(staged)
            if staged.word is not None and self.tracer.enabled:
                self.tracer.emit(
                    cycle,
                    self.name,
                    "inject",
                    f"{staged.word!r}",
                )
        # Middle stage: move the staged decision towards the output.
        pending: Optional[Phit] = self._stage_reg.q
        if pending is not None and not pending.is_idle:
            self._out_reg.drive(pending)
        # Decision stage: injection decision for this cycle's slot.
        slot = self.params.slot_of_cycle(cycle)
        channel = self.injection_table.channel(slot)
        if channel is None:
            return
        source = self.source_channels.get(channel)
        if source is None:
            return
        word = source.take_word() if source.can_send() else None
        credit_bits = None
        if cycle % self.params.words_per_slot == 0:
            credit_bits = self._collect_credits(source)
        if word is not None or credit_bits:
            self._stage_reg.drive(Phit(word=word, credit_bits=credit_bits))

    def _collect_credits(self, source: SourceChannel) -> Optional[int]:
        """Credits to piggyback: pending credits of the paired arrival
        channel, transferred once per slot, bounded by the credit-wire
        capacity."""
        if source.paired_arrival is None:
            return None
        dest = self.dest_channels.get(source.paired_arrival)
        if dest is None or dest.pending_credits == 0:
            return None
        capacity = (1 << self.params.credit_bits_per_slot) - 1
        granted = dest.take_pending_credits(
            min(capacity, self.params.max_credit_value)
        )
        return granted or None

    # -- configuration ----------------------------------------------------------

    def reset(self) -> None:
        super().reset()
        self.config.discard_deposit()

    def _apply(self, action: Action) -> None:
        self.config_applied += 1
        self.changes.writes += 1
        if isinstance(action, NiPathAction):
            self._apply_path(action)
        elif isinstance(action, ChannelWriteAction):
            self._apply_write(action)
        elif isinstance(action, ChannelReadAction):
            self._apply_read(action)
        elif isinstance(action, BusConfigAction):
            self.bus_config_words.extend(action.payload)
        else:
            raise SimulationError(
                f"{self.name}: NI received non-NI config action {action!r}"
            )

    def _apply_path(self, action: NiPathAction) -> None:
        table = (
            self.injection_table
            if action.direction is Direction.INJECT
            else self.arrival_table
        )
        table.apply_mask(
            action.mask, None if action.teardown else action.channel
        )

    def _apply_write(self, action: ChannelWriteAction) -> None:
        if action.direction is Direction.INJECT:
            source = self.source_channel(action.channel)
            if action.register is ChannelField.CREDIT:
                source.credit_counter = action.value
            elif action.register is ChannelField.FLAGS:
                source.flags = action.value
            else:
                source.paired_arrival = action.value
                self.changes.endpoints[self] = None
        else:
            dest = self.dest_channel(action.channel)
            if action.register is ChannelField.CREDIT:
                dest.pending_credits = action.value
            elif action.register is ChannelField.FLAGS:
                dest.flags = action.value
            else:
                dest.paired_source = action.value

    def _apply_read(self, action: ChannelReadAction) -> None:
        if action.direction is Direction.INJECT:
            source = self.source_channel(action.channel)
            values = {
                ChannelField.CREDIT: source.credit_counter,
                ChannelField.FLAGS: source.flags,
                ChannelField.PAIRED: source.paired_arrival or 0,
            }
        else:
            dest = self.dest_channel(action.channel)
            values = {
                ChannelField.CREDIT: dest.pending_credits,
                ChannelField.FLAGS: dest.flags,
                ChannelField.PAIRED: dest.paired_source or 0,
            }
        self.config.response_queue.append(values[action.register])
