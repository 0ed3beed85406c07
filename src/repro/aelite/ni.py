"""The aelite network interface: source routing and header packets.

Differences from the daelite NI:

* only an **injection** slot table exists — arriving packets are demuxed
  by the queue id in their header, not by arrival time;
* each source connection stores its **path** (the output-port string the
  header carries) in an NI register;
* every packet starts with a header word, so at most 2 of the 3 words of
  a first slot are payload; packets may extend over up to 3 consecutive
  slots of the same connection, amortizing the header (11-33 % overhead);
* end-to-end credits are piggybacked **in the header** of reverse-channel
  packets (Table I); an NI with credits to return but no data sends a
  header-only packet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from collections import deque

from ..errors import FlowControlError, SimulationError
from ..params import NetworkParameters
from ..sim.flit import Phit, Word
from ..sim.kernel import Component, Register
from ..sim.link import Link
from ..sim.stats import StatsCollector
from ..topology import Element, ElementKind
from ..core.credits import DestChannel
from .packets import AeliteHeader, MAX_PACKET_SLOTS
from ..core.slot_table import NiInjectionTable


@dataclass
class AeliteSourceConnection:
    """Sending endpoint of an aelite connection inside the source NI.

    Attributes:
        connection: Local connection index (slot-table entries name it).
        path_ports: Output port per router hop, source to destination.
        dest_queue: Queue index at the destination NI.
        credit_counter: Space known free in the destination queue.
        paired_arrival: Local arrival queue whose pending credits are
            returned in this connection's packet headers.
        label: Statistics label carried by every word.
    """

    connection: int
    path_ports: tuple = ()
    dest_queue: int = 0
    credit_counter: int = 0
    max_credit: int = 63
    enabled: bool = False
    flow_controlled: bool = True
    paired_arrival: Optional[int] = None
    label: str = ""
    queue: Deque[Word] = field(default_factory=deque)

    def sendable_words(self) -> int:
        """Payload words that could be sent right now."""
        if not self.enabled:
            return 0
        if not self.flow_controlled:
            return len(self.queue)
        return min(len(self.queue), self.credit_counter)

    def add_credits(self, amount: int) -> None:
        if self.credit_counter + amount > self.max_credit:
            raise FlowControlError(
                f"aelite credit overflow on connection {self.connection}"
            )
        self.credit_counter += amount


class AeliteNetworkInterface(Component):
    """An aelite NI with injection slot table and header-based demux."""

    def __init__(
        self,
        element: Element,
        params: NetworkParameters,
        stats: Optional[StatsCollector] = None,
        strict: bool = False,
    ) -> None:
        super().__init__(element.name)
        if element.kind is not ElementKind.NI:
            raise SimulationError(f"{element.name!r} is not an NI")
        self.element = element
        self.params = params
        self.stats = stats
        self.strict = strict
        self.injection_table = NiInjectionTable(params.slot_table_size)
        self.sources: Dict[int, AeliteSourceConnection] = {}
        self.queues: Dict[int, DestChannel] = {}
        self.out_link: Optional[Link] = None
        self.in_link: Optional[Link] = None
        # Output pipeline of depth words_per_slot (3) so the decision
        # made in slot t reaches the link in slot t+1, matching the
        # "+1 per element" slot numbering shared with daelite.
        self._pipeline: List[Register] = [
            self.make_register(f"out{i}")
            for i in range(params.words_per_slot)
        ]
        self._emit_queue: Deque[object] = deque()
        self._packet_slots_left = 0
        self._packet_connection: Optional[int] = None
        self._arrival_queue: Optional[int] = None
        self._arrival_remaining = 0
        self.dropped_words = 0
        self._sequence_counters: Dict[int, int] = {}

    # -- endpoint management -----------------------------------------------------

    def source(self, connection: int) -> AeliteSourceConnection:
        if connection not in self.sources:
            self.sources[connection] = AeliteSourceConnection(
                connection=connection,
                max_credit=self.params.max_credit_value,
            )
        return self.sources[connection]

    def queue_endpoint(self, queue: int) -> DestChannel:
        if queue not in self.queues:
            self.queues[queue] = DestChannel(
                channel=queue,
                capacity=self.params.channel_buffer_words,
            )
        return self.queues[queue]

    def submit(
        self, connection: int, payload: int, label: str = ""
    ) -> Word:
        """Queue one payload word for a source connection."""
        source = self.source(connection)
        sequence = self._sequence_counters.get(connection, 0)
        self._sequence_counters[connection] = sequence + 1
        word = Word(
            payload=payload,
            connection=label or source.label or f"{self.name}.c{connection}",
            sequence=sequence,
        )
        source.queue.append(word)
        return word

    def submit_words(
        self, connection: int, payloads, label: str = ""
    ) -> List[Word]:
        return [
            self.submit(connection, payload, label) for payload in payloads
        ]

    def receive(
        self, queue: int, max_words: Optional[int] = None
    ) -> List[Word]:
        """Drain a destination queue (generates credits)."""
        return self.queue_endpoint(queue).drain(max_words)

    # -- cycle behaviour ------------------------------------------------------------

    def evaluate(self, cycle: int) -> None:
        self._handle_arrival(cycle)
        self._drive_pipeline(cycle)
        if cycle % self.params.words_per_slot == 0:
            self._slot_decision(cycle)
        self._emit_word(cycle)

    def _drive_pipeline(self, cycle: int) -> None:
        last = self._pipeline[-1].q
        if last is not None and self.out_link is not None:
            # Stamped before the link sees it (see the daelite NI).
            if isinstance(last.word, Word) and self.stats is not None:
                self.stats.record_injection(last.word, cycle)
            self.out_link.send(last)
        for index in range(len(self._pipeline) - 1, 0, -1):
            previous = self._pipeline[index - 1].q
            if previous is not None:
                self._pipeline[index].drive(previous)

    def _emit_word(self, cycle: int) -> None:
        if self._emit_queue:
            item = self._emit_queue.popleft()
            self._pipeline[0].drive(Phit(word=item))

    # -- injection: packetization ------------------------------------------------------

    def _slot_run_length(self, slot: int, connection: int) -> int:
        """Consecutive slots starting at ``slot`` owned by ``connection``
        (capped at the packet maximum)."""
        size = self.params.slot_table_size
        length = 0
        for offset in range(MAX_PACKET_SLOTS):
            if self.injection_table.channel((slot + offset) % size) == (
                connection
            ):
                length += 1
            else:
                break
        return length

    def _slot_decision(self, cycle: int) -> None:
        slot = self.params.slot_of_cycle(cycle)
        connection = self.injection_table.channel(slot)
        if connection is None:
            self._packet_slots_left = 0
            self._packet_connection = None
            return
        if (
            self._packet_connection == connection
            and self._packet_slots_left > 0
        ):
            # A multi-slot packet committed earlier keeps streaming; its
            # words are already in the emission queue.
            self._packet_slots_left -= 1
            return
        source = self.sources.get(connection)
        if source is None or not source.enabled:
            self._packet_slots_left = 0
            self._packet_connection = None
            return
        credits = self._collect_credits(source)
        sendable = source.sendable_words()
        if sendable == 0 and credits == 0:
            self._packet_connection = None
            self._packet_slots_left = 0
            return
        words_per_slot = self.params.words_per_slot
        run = self._slot_run_length(slot, connection)
        payload = min(sendable, run * words_per_slot - 1)
        packet_slots = max(1, -(-(payload + 1) // words_per_slot))
        header = AeliteHeader(
            path=source.path_ports,
            queue=source.dest_queue,
            length_words=1 + payload,
            credits=credits,
            connection=source.label,
        )
        self._emit_queue.append(header)
        for _ in range(payload):
            if source.flow_controlled:
                source.credit_counter -= 1
            self._emit_queue.append(source.queue.popleft())
        self._packet_connection = connection
        self._packet_slots_left = packet_slots - 1

    def _collect_credits(self, source: AeliteSourceConnection) -> int:
        if source.paired_arrival is None:
            return 0
        queue = self.queues.get(source.paired_arrival)
        if queue is None:
            return 0
        return queue.take_pending_credits(self.params.max_credit_value)

    # -- arrival ---------------------------------------------------------------------

    def _handle_arrival(self, cycle: int) -> None:
        if self.in_link is None:
            return
        phit = self.in_link.incoming
        if phit.is_idle or phit.word is None:
            return
        word = phit.word
        if self._arrival_remaining == 0:
            if not isinstance(word, AeliteHeader):
                self.dropped_words += 1
                if self.strict:
                    raise SimulationError(
                        f"{self.name}: stray payload word {word!r}"
                    )
                return
            if word.path:
                raise SimulationError(
                    f"{self.name}: header arrived with unconsumed path "
                    f"{word.path}"
                )
            self._arrival_queue = word.queue
            self._arrival_remaining = word.length_words - 1
            if word.credits:
                self._apply_header_credits(word)
            return
        self._arrival_remaining -= 1
        assert self._arrival_queue is not None
        queue = self.queue_endpoint(self._arrival_queue)
        if isinstance(word, Word):
            queue.deliver(word)
            if self.stats is not None:
                self.stats.record_ejection(
                    word, cycle, destination=self.name
                )

    def _apply_header_credits(self, header: AeliteHeader) -> None:
        queue = self.queue_endpoint(header.queue)
        if queue.paired_source is None:
            raise FlowControlError(
                f"{self.name}: credits for queue {header.queue} which "
                f"has no paired source connection"
            )
        self.source(queue.paired_source).add_credits(header.credits)
