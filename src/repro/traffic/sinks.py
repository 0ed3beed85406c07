"""Traffic sinks: the consuming side of a channel.

Draining a daelite destination queue is what releases end-to-end credits,
so sinks model the consumption *rate* of the destination IP.  A sink that
cannot keep up exposes exactly the failure mode the paper warns about for
multicast: "it is necessary to ensure that the destinations can process
data at the same rate as it is delivered".  A sink therefore keeps what
a rate and its end-to-end checks need — a word count, the last sequence
number per connection, its findings — and no history of what it consumed.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..errors import TrafficError
from ..sim.flit import Word
from ..sim.kernel import Component
from ..sim.stats import FAULT_DETECTED, StatsCollector

ReceiveWords = Callable[[int], List[Word]]


class CheckingSink(Component):
    """Drains a destination queue at a fixed rate and verifies every word
    end to end as it consumes it.

    Two checks, mirroring the fault model (DESIGN.md §9):

    * **parity** — the parity wire stamped by the source NI must still
      match the payload.  The destination NI already drops mismatching
      words on arrival, so a sink-level parity failure means corruption
      *inside* the NI queue path — it should never fire, and the chaos
      suite asserts it does not.
    * **sequence** — per connection, sequence numbers must be exactly
      consecutive.  A gap is the end-to-end signature of a dropped word
      (link down, slot-table upset, parity drop); a decrease is
      misdelivery.

    Findings are appended to :attr:`findings` and, when a collector is
    given, recorded as ``detect`` fault events at the sink's site —
    faults are *observations* here, never exceptions, because a lossy
    network is exactly what this sink exists to survive.

    Attributes:
        words_received: words consumed so far.
    """

    def __init__(
        self,
        name: str,
        receive: ReceiveWords,
        words_per_cycle: int = 1,
        start_cycle: int = 0,
        stats: Optional[StatsCollector] = None,
    ) -> None:
        super().__init__(name)
        if words_per_cycle < 1:
            raise TrafficError("sink rate must be >= 1 word/cycle")
        self.receive = receive
        self.words_per_cycle = words_per_cycle
        self.start_cycle = start_cycle
        self.stats = stats
        self.words_received = 0
        #: Human-readable check failures, in detection order.
        self.findings: List[str] = []
        self._last_seq: dict = {}

    @property
    def clean(self) -> bool:
        """True while every received word has checked out."""
        return not self.findings

    def evaluate(self, cycle: int) -> None:
        if cycle < self.start_cycle:
            return
        for word in self.receive(self.words_per_cycle):
            self.consume(cycle, word)

    def consume(self, cycle: int, word: Word) -> None:
        """Take one drained word.  The compiled engine drains the queue
        itself; it counts a word that checks out inline and hands every
        other word here, so what a sink *finds* is written once."""
        self.words_received += 1
        if not word.parity_ok:
            self._record(cycle, "sink_parity_error", f"{word!r}")
        if word.sequence >= 0 and word.connection:
            self._check_sequence(cycle, word.connection, word.sequence)

    def _record(self, cycle: int, kind: str, detail: str) -> None:
        self.findings.append(f"[{cycle}] {kind}: {detail}")
        if self.stats is not None:
            self.stats.record_fault(
                cycle, FAULT_DETECTED, kind, self.name, detail
            )

    def _check_sequence(
        self, cycle: int, connection: str, sequence: int
    ) -> None:
        """The per-connection consecutive-sequence check (epoch replay
        walks it directly when it cannot prove a stream clean)."""
        last = self._last_seq.get(connection)
        expected = 0 if last is None else last + 1
        if sequence != expected:
            self._record(
                cycle,
                "e2e_gap" if sequence > expected else "e2e_out_of_order",
                f"{connection}: expected seq {expected}, got {sequence}",
            )
        self._last_seq[connection] = sequence


class ThrottledSink(CheckingSink):
    """A sink that only drains every ``period`` cycles — a slow consumer.

    Used to demonstrate back-pressure through credits (flow-controlled
    channels slow the source down; multicast channels overflow instead).
    """

    def __init__(
        self,
        name: str,
        receive: ReceiveWords,
        period: int,
        words_per_drain: int = 1,
    ) -> None:
        super().__init__(name, receive, words_per_cycle=words_per_drain)
        if period < 1:
            raise TrafficError("period must be >= 1")
        self.period = period

    def evaluate(self, cycle: int) -> None:
        if cycle % self.period == 0:
            super().evaluate(cycle)
