"""End-to-end statistics collection.

The statistics collector is fed by the network interfaces: injection events
when a word is driven onto the source link, ejection events when the word is
deposited into the destination channel queue.  From those it derives the
latency distribution and delivered bandwidth per connection — the quantities
behind the paper's latency (33 % reduction) and bandwidth (header overhead,
config-slot loss) claims.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from operator import sub
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import SimulationError, StatsIntegrityError
from .flit import Word


#: FaultEvent.category for a fault being *applied* by an injector.
FAULT_INJECTED = "inject"
#: FaultEvent.category for a fault being *observed* by a detector.
FAULT_DETECTED = "detect"

#: One absent ledger entry; ``_ABSENT * n`` pads ``n`` of them.
_ABSENT = array("q", (-1,))


def _column() -> array[int]:
    return array("q")


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One injected or detected fault, as recorded by the collector.

    Events are totally ordered by recording order, which is
    deterministic for a fixed seed and fault plan regardless of the
    kernel mode (see DESIGN.md §9); :meth:`format` renders a stable
    one-line representation so whole logs can be compared bytewise.

    Attributes:
        cycle: Simulation cycle at which the fault fired / was seen.
        category: ``"inject"`` or ``"detect"``.
        kind: Fault kind tag (``"bitflip"``, ``"link_down"``,
            ``"stuck_at"``, ``"table_upset"``, ``"cfg_word_drop"``,
            ``"cfg_word_corrupt"``, ``"parity_error"``,
            ``"sequence_gap"``, ``"protocol_error"``,
            ``"config_timeout"``, ``"config_retry"``,
            ``"config_failed"``, ``"readback_mismatch"``, ...).
        site: Element or link name where it happened.
        detail: Free-form (but deterministic) description.
    """

    cycle: int
    category: str
    kind: str
    site: str
    detail: str = ""

    def format(self) -> str:
        """Stable single-line rendering for bytewise log comparison."""
        return (
            f"[{self.cycle:>8}] {self.category:<6} {self.kind:<16} "
            f"{self.site:<24} {self.detail}"
        ).rstrip()


@dataclass(slots=True)
class ConnectionStats:
    """Aggregated per-connection statistics and the connection's ledger.

    The ledger is two parallel ``array('q')`` columns indexed by
    ``sequence - first_sequence``: the cycle each word was injected and
    the cycle of its *first* delivery, ``-1`` meaning absent (kernel
    time starts at 0).  A contention-free schedule delivers a
    connection's words densely and in order, so a word costs two
    integers and no object; a sparse or out-of-order sequence pads or
    prepends the columns.
    """

    connection: str
    injected: int = 0
    ejected: int = 0
    latencies: List[int] = field(default_factory=list)
    first_sequence: int = 0
    injected_at: array[int] = field(default_factory=_column, repr=False)
    ejected_at: array[int] = field(default_factory=_column, repr=False)

    @property
    def in_flight(self) -> int:
        """Words injected but not yet delivered."""
        return self.injected - self.ejected

    @property
    def min_latency(self) -> Optional[int]:
        return min(self.latencies) if self.latencies else None

    @property
    def max_latency(self) -> Optional[int]:
        return max(self.latencies) if self.latencies else None

    @property
    def mean_latency(self) -> Optional[float]:
        if not self.latencies:
            return None
        return sum(self.latencies) / len(self.latencies)

    def _words(self) -> Iterator[Tuple[int, int, int]]:
        """(sequence, injected_at, first ejected_at or -1) per word."""
        for sequence, (injected, ejected) in enumerate(
            zip(self.injected_at, self.ejected_at), self.first_sequence
        ):
            if injected >= 0:
                yield sequence, injected, ejected


class StatsCollector:
    """Records injection/ejection of every word and checks delivery order.

    The collector enforces two invariants of a correctly configured TDM
    network: words of a connection arrive *in order* and *exactly once*.
    Multicast connections deliver each word once per destination, so
    ejections are tracked per (connection, destination).
    """

    def __init__(self) -> None:
        self.connections: Dict[str, ConnectionStats] = {}
        self._last_ejected: Dict[tuple, int] = {}
        self._undelivered = 0
        #: Injected and detected faults, in recording order.
        self.faults: List[FaultEvent] = []

    # -- fault events ---------------------------------------------------------

    def record_fault(
        self,
        cycle: int,
        category: str,
        kind: str,
        site: str,
        detail: str = "",
    ) -> FaultEvent:
        """Append one :class:`FaultEvent` and return it."""
        event = FaultEvent(
            cycle=cycle,
            category=category,
            kind=kind,
            site=site,
            detail=detail,
        )
        self.faults.append(event)
        return event

    def fault_log(self) -> str:
        """All fault events, one stable line each (bytewise comparable)."""
        return "\n".join(event.format() for event in self.faults)

    def fault_counts(self) -> Dict[str, int]:
        """Events per kind — the quick chaos-run scoreboard."""
        counts: Dict[str, int] = {}
        for event in self.faults:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # -- the word ledger --------------------------------------------------------

    def _stats_for(self, connection: str) -> ConnectionStats:
        stats = self.connections.get(connection)
        if stats is None:
            stats = self.connections[connection] = ConnectionStats(
                connection
            )
        return stats

    def record_injection(self, word: Word, cycle: int) -> None:
        """Note that ``word`` was driven onto its source link at ``cycle``."""
        self._inject(word.connection, word.sequence, cycle)

    def record_ejection(
        self, word: Word, cycle: int, destination: str = ""
    ) -> None:
        """Note delivery of ``word`` at ``destination`` at ``cycle``.

        Raises:
            StatsIntegrityError: on duplicate, unknown, or out-of-order
                delivery — all impossible in a contention-free schedule.
                The collector state is not modified when this is raised,
                so a misdelivered word can never masquerade as (or
                overwrite) a legitimate record.
        """
        self._eject(word.connection, destination, word.sequence, cycle)

    def _inject(self, connection: str, sequence: int, cycle: int) -> None:
        stats = self._stats_for(connection)
        column = stats.injected_at
        if not column:
            stats.first_sequence = sequence
        index = sequence - stats.first_sequence
        if index < 0:  # before the first word seen so far: prepend
            pad = _ABSENT * -index
            column[:0] = pad
            stats.ejected_at[:0] = pad
            stats.first_sequence = sequence
            index = 0
        elif index >= len(column):  # the next word, or a gap to pad
            pad = _ABSENT * (index + 1 - len(column))
            column.extend(pad)
            stats.ejected_at.extend(pad)
        elif column[index] >= 0:
            raise StatsIntegrityError(
                f"word {(connection, sequence)} injected twice "
                f"(cycles {column[index]} and {cycle})"
            )
        column[index] = cycle
        stats.injected += 1
        self._undelivered += 1

    def _eject(
        self, connection: str, destination: str, sequence: int, cycle: int
    ) -> None:
        stats = self.connections.get(connection)
        injected = -1
        if stats is not None:
            index = sequence - stats.first_sequence
            if 0 <= index < len(stats.injected_at):
                injected = stats.injected_at[index]
        if injected < 0:
            known = sorted(self.connections)
            raise StatsIntegrityError(
                f"word {(connection, sequence)} ejected at "
                f"{destination!r} at cycle {cycle} but was never "
                f"injected — a misrouted or fabricated word (known "
                f"connections: {known})"
            )
        flow = (connection, destination)
        last = self._last_ejected.get(flow)
        if last is not None and sequence <= last:
            raise StatsIntegrityError(
                f"out-of-order delivery on {flow}: sequence {sequence} "
                f"after {last}"
            )
        # A *gap* (unlike a duplicate or reorder) is how a dropped word
        # manifests at the destination: record it as a detected fault
        # rather than raising, so lossy fault campaigns keep running.
        expected = 0 if last is None else last + 1
        if sequence > expected:
            self.record_fault(
                cycle,
                FAULT_DETECTED,
                "sequence_gap",
                destination or connection,
                f"{connection}: expected seq {expected}, got {sequence}",
            )
        self._last_ejected[flow] = sequence
        if stats.ejected_at[index] < 0:
            stats.ejected_at[index] = cycle
            self._undelivered -= 1
        stats.ejected += 1
        stats.latencies.append(cycle - injected)

    # -- runs (epoch replay) ------------------------------------------------------

    def record_injections(
        self, connection: str, first_sequence: int, cycles: Sequence[int]
    ) -> None:
        """Record the run ``first_sequence, first_sequence + 1, ...``.

        Defined as exactly :meth:`record_injection` for each word of the
        run at its cycle, in order — same duplicate-injection error,
        raised after the words before the duplicate were recorded.  A
        run that continues the connection's column is one slice
        extension.
        """
        if not cycles:
            return
        stats = self._stats_for(connection)
        column = stats.injected_at
        if not column:
            stats.first_sequence = first_sequence
        if first_sequence - stats.first_sequence == len(column):
            column.extend(cycles)
            stats.ejected_at.extend(_ABSENT * len(cycles))
            stats.injected += len(cycles)
            self._undelivered += len(cycles)
            return
        for sequence, cycle in enumerate(cycles, first_sequence):
            self._inject(connection, sequence, cycle)

    def record_ejections(
        self,
        connection: str,
        destination: str,
        first_sequence: int,
        cycles: Sequence[int],
    ) -> None:
        """Record deliveries of a run at one destination.

        Defined as exactly :meth:`record_ejection` for each word of the
        run at its cycle, in order — same unknown-word and out-of-order
        errors, same sequence-gap fault events, same latency order.  A
        run that starts at the stream's expected next word and covers
        only injected words no destination has received yet can raise
        nothing and record no gap, so it is written as one slice.
        """
        if not cycles:
            return
        stats = self.connections.get(connection)
        flow = (connection, destination)
        last = self._last_ejected.get(flow)
        if stats is not None and first_sequence == (
            0 if last is None else last + 1
        ):
            low = first_sequence - stats.first_sequence
            high = low + len(cycles)
            if 0 <= low and high <= len(stats.injected_at):
                injected = stats.injected_at[low:high]
                if (
                    min(injected) >= 0
                    and max(stats.ejected_at[low:high]) < 0
                ):
                    stats.ejected_at[low:high] = array("q", cycles)
                    stats.latencies.extend(map(sub, cycles, injected))
                    stats.ejected += len(cycles)
                    self._undelivered -= len(cycles)
                    self._last_ejected[flow] = first_sequence + len(cycles) - 1
                    return
        for sequence, cycle in enumerate(cycles, first_sequence):
            self._eject(connection, destination, sequence, cycle)

    def record_fanout(
        self,
        connection: str,
        destinations: Sequence[str],
        sequences: Sequence[int],
        cycles: Sequence[int],
    ) -> None:
        """Record a multicast tree's deliveries, interleaved.

        Delivery ``i`` is word ``sequences[i]`` at ``destinations[i]``
        at ``cycles[i]``.  Defined as exactly :meth:`record_ejection`
        for each delivery, in order — same unknown-word and out-of-order
        errors, same sequence-gap fault events, same latency order
        across destinations.  A run in which every destination's
        deliveries start at its expected next word and are consecutive,
        and which covers only injected words, can raise nothing and
        record no gap, so it is written in one pass: a word's first
        delivery sets its column entry unless an earlier one already
        did.
        """
        if not cycles:
            return
        stats = self.connections.get(connection)
        nexts = self._consecutive_per_destination(
            connection, destinations, sequences
        )
        if stats is not None and nexts is not None:
            first = stats.first_sequence
            column = stats.injected_at
            if (
                0 <= min(sequences) - first
                and max(sequences) - first < len(column)
            ):
                injected = [column[s - first] for s in sequences]
                if min(injected) >= 0:
                    column = stats.ejected_at
                    delivered = 0
                    # Reversed, the earliest delivery of a word wins.
                    for sequence, cycle in dict(
                        zip(reversed(sequences), reversed(cycles))
                    ).items():
                        if column[sequence - first] < 0:
                            column[sequence - first] = cycle
                            delivered += 1
                    self._undelivered -= delivered
                    stats.ejected += len(cycles)
                    stats.latencies.extend(map(sub, cycles, injected))
                    for destination, expected in nexts.items():
                        self._last_ejected[(connection, destination)] = (
                            expected - 1
                        )
                    return
        for destination, sequence, cycle in zip(
            destinations, sequences, cycles
        ):
            self._eject(connection, destination, sequence, cycle)

    def _consecutive_per_destination(
        self,
        connection: str,
        destinations: Sequence[str],
        sequences: Sequence[int],
    ) -> Optional[Dict[str, int]]:
        """Each destination's next expected word after the deliveries,
        in first-appearance order — or ``None`` unless every
        destination's deliveries start at its expected next word and
        are consecutive."""
        nexts: Dict[str, int] = {}
        for destination, sequence in zip(destinations, sequences):
            expected = nexts.get(destination)
            if expected is None:
                last = self._last_ejected.get((connection, destination))
                expected = 0 if last is None else last + 1
            if sequence != expected:
                return None
            nexts[destination] = sequence + 1
        return nexts

    # -- queries --------------------------------------------------------------

    def word_times(self) -> Dict[tuple, Tuple[int, Optional[int]]]:
        """``{(connection, sequence): (injected_at, first ejected_at)}``
        for every recorded word; ``None`` while undelivered."""
        return {
            (label, sequence): (injected, None if ejected < 0 else ejected)
            for label, stats in self.connections.items()
            for sequence, injected, ejected in stats._words()
        }

    def latency(self, connection: str, sequence: int) -> Optional[int]:
        """First-delivery latency of one word, ``None`` if undelivered."""
        stats = self.connections.get(connection)
        if stats is None:
            return None
        index = sequence - stats.first_sequence
        if not 0 <= index < len(stats.ejected_at):
            return None
        ejected = stats.ejected_at[index]
        return None if ejected < 0 else ejected - stats.injected_at[index]

    def delivered_words(self, connection: str) -> int:
        """Total delivery events for a connection (per destination)."""
        stats = self.connections.get(connection)
        return stats.ejected if stats else 0

    def injected_words(self, connection: str) -> int:
        stats = self.connections.get(connection)
        return stats.injected if stats else 0

    @property
    def all_delivered(self) -> bool:
        """True when every injected word has reached a destination."""
        return not self._undelivered

    def undelivered(self) -> List[tuple]:
        """Keys of words still in flight (should drain to empty)."""
        return [
            (label, sequence)
            for label, stats in self.connections.items()
            for sequence, _injected, ejected in stats._words()
            if ejected < 0
        ]

    def throughput_words_per_cycle(
        self, connection: str, cycles: int
    ) -> float:
        """Delivered words per cycle over an observation window."""
        if cycles <= 0:
            raise SimulationError("observation window must be positive")
        return self.delivered_words(connection) / cycles
