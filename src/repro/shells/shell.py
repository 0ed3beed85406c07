"""Protocol shells: transaction (de)serialization at the NI boundary.

An :class:`InitiatorShell` sits between a master IP (or local bus) and a
pair of NI channels: it serializes write/read transactions into request
messages on the outgoing channel and reassembles read responses from the
incoming channel.  A :class:`TargetShell` does the inverse in front of a
slave IP (:class:`~repro.shells.memory.MemorySlave`).

Shells are clocked components that move at most ``width`` words per cycle
in each direction — one word per cycle matches the NI's line rate.  They
are network-agnostic: they talk to the NI through two callables, so the
same shell works on daelite and aelite interfaces (see
:func:`daelite_ports` / :func:`aelite_ports`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from ..errors import TrafficError
from ..sim.flit import Word
from ..sim.kernel import Component
from .memory import MemorySlave
from .messages import (
    ReadResult,
    TAG_MODULO,
    Transaction,
    TransactionKind,
    decode_command,
    decode_response_header,
    encode_request,
    encode_response,
)

SendWord = Callable[[int], None]
ReceiveWords = Callable[[int], List[Word]]


@dataclass
class ChannelPorts:
    """The two NI-facing callables a shell needs."""

    send: SendWord
    receive: ReceiveWords


def daelite_ports(ni, inject_channel: int, arrive_channel: int, label: str = "") -> ChannelPorts:
    """Bind shell ports to a daelite NI's channels."""
    return ChannelPorts(
        send=lambda payload: ni.submit(inject_channel, payload, label),
        receive=lambda max_words: ni.receive(arrive_channel, max_words),
    )


def aelite_ports(ni, source_connection: int, arrive_queue: int, label: str = "") -> ChannelPorts:
    """Bind shell ports to an aelite NI's connection/queue."""
    return ChannelPorts(
        send=lambda payload: ni.submit(source_connection, payload, label),
        receive=lambda max_words: ni.receive(arrive_queue, max_words),
    )


class InitiatorShell(Component):
    """Master-side shell: transactions out, read responses in."""

    def __init__(
        self, name: str, ports: ChannelPorts, width: int = 1
    ) -> None:
        super().__init__(name)
        if width < 1:
            raise TrafficError("shell width must be >= 1 word/cycle")
        self.ports = ports
        self.width = width
        self._outgoing: Deque[int] = deque()
        self._next_tag = 0
        self._pending_reads: Dict[int, ReadResult] = {}
        self._response_state: Optional[ReadResult] = None
        self._response_remaining = 0

    # -- IP-facing API -----------------------------------------------------------

    def write(self, address: int, data: List[int]) -> Transaction:
        """Issue a posted write burst."""
        transaction = Transaction(
            kind=TransactionKind.WRITE,
            address=address,
            data=tuple(data),
        )
        self._outgoing.extend(encode_request(transaction))
        return transaction

    def read(self, address: int, length: int) -> ReadResult:
        """Issue a read burst; returns a handle completed later.

        Raises:
            TrafficError: if 256 reads are already outstanding.
        """
        tag = self._allocate_tag()
        transaction = Transaction(
            kind=TransactionKind.READ,
            address=address,
            length=length,
            tag=tag,
        )
        result = ReadResult(tag=tag, length=length)
        self._pending_reads[tag] = result
        self._outgoing.extend(encode_request(transaction))
        return result

    def _allocate_tag(self) -> int:
        for _ in range(TAG_MODULO):
            tag = self._next_tag
            self._next_tag = (self._next_tag + 1) % TAG_MODULO
            if tag not in self._pending_reads:
                return tag
        raise TrafficError(f"{self.name}: no free read tags")

    @property
    def idle(self) -> bool:
        """No words waiting and no reads outstanding."""
        return not self._outgoing and not self._pending_reads

    # -- cycle behaviour ------------------------------------------------------------

    def evaluate(self, cycle: int) -> None:
        for _ in range(min(self.width, len(self._outgoing))):
            self.ports.send(self._outgoing.popleft())
        for word in self.ports.receive(self.width):
            self._consume_response(word.payload, cycle)

    def _consume_response(self, payload: int, cycle: int) -> None:
        if self._response_state is None:
            length, tag = decode_response_header(payload)
            result = self._pending_reads.get(tag)
            if result is None:
                raise TrafficError(
                    f"{self.name}: response for unknown tag {tag}"
                )
            self._response_state = result
            self._response_remaining = length
            if length == 0:
                self._finish_response(cycle)
            return
        self._response_state.data.append(payload)
        self._response_remaining -= 1
        if self._response_remaining == 0:
            self._finish_response(cycle)

    def _finish_response(self, cycle: int) -> None:
        assert self._response_state is not None
        self._response_state.completed_at = cycle
        del self._pending_reads[self._response_state.tag]
        self._response_state = None


class TargetShell(Component):
    """Slave-side shell: requests in, read responses out."""

    def __init__(
        self,
        name: str,
        ports: ChannelPorts,
        memory: MemorySlave,
        width: int = 1,
    ) -> None:
        super().__init__(name)
        if width < 1:
            raise TrafficError("shell width must be >= 1 word/cycle")
        self.ports = ports
        self.memory = memory
        self.width = width
        self._outgoing: Deque[int] = deque()
        self._kind: Optional[TransactionKind] = None
        self._length = 0
        self._tag = 0
        self._address: Optional[int] = None
        self._data: List[int] = []

    def evaluate(self, cycle: int) -> None:
        for word in self.ports.receive(self.width):
            self._consume_request(word.payload)
        for _ in range(min(self.width, len(self._outgoing))):
            self.ports.send(self._outgoing.popleft())

    def _consume_request(self, payload: int) -> None:
        if self._kind is None:
            self._kind, self._length, self._tag = decode_command(payload)
            self._address = None
            self._data = []
            return
        if self._address is None:
            self._address = payload
            if self._kind is TransactionKind.READ:
                self._serve_read()
            return
        self._data.append(payload)
        if len(self._data) == self._length:
            self.memory.write(self._address, self._data)
            self._kind = None

    def _serve_read(self) -> None:
        assert self._address is not None
        data = self.memory.read(self._address, self._length)
        self._outgoing.extend(encode_response(self._tag, data))
        self._kind = None
