"""End-to-end statistics collection.

The statistics collector is fed by the network interfaces: injection events
when a word is driven onto the source link (the word is stamped with the
cycle), ejection events when the word is deposited into the destination
channel queue.  From those it counts the latency histogram and delivered
bandwidth per connection — the quantities behind the paper's latency (33 %
reduction) and bandwidth (header overhead, config-slot loss) claims — and
keeps no per-word history: only the words still in flight are listed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..errors import SimulationError, StatsIntegrityError
from .flit import Word, stamp_injected


#: FaultEvent.category for a fault being *applied* by an injector.
FAULT_INJECTED = "inject"
#: FaultEvent.category for a fault being *observed* by a detector.
FAULT_DETECTED = "detect"

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


class LatencyHistogram:
    """``min_/max_/mean_latency`` of a ``{latency: count}`` histogram.

    Contention-free TDM gives a connection a handful of fixed
    latencies, so the histogram stays a few entries long however many
    words are counted.  Mixed into :class:`ConnectionStats` and
    :class:`repro.ext.channel_trees.FlowStats`, each of which keeps its
    histogram in ``latency_histogram``.
    """

    __slots__ = ()
    latency_histogram: Dict[int, int]

    def count_latency(self, latency: int) -> None:
        histogram = self.latency_histogram
        histogram[latency] = histogram.get(latency, 0) + 1

    @property
    def min_latency(self) -> Optional[int]:
        return min(self.latency_histogram, default=None)

    @property
    def max_latency(self) -> Optional[int]:
        return max(self.latency_histogram, default=None)

    @property
    def mean_latency(self) -> Optional[float]:
        histogram = self.latency_histogram
        if not histogram:
            return None
        return sum(
            latency * count for latency, count in histogram.items()
        ) / sum(histogram.values())


@dataclass(slots=True)
class ConnectionStats(LatencyHistogram):
    """Aggregated per-connection statistics: counts, not history.

    A word carries its own injection cycle (``Word.injected_at``), so
    the ledger keeps no per-word record of a delivered word: counts, the
    latency histogram, the last injected sequence number, and the
    sequence numbers injected but not yet delivered anywhere (the words
    in flight, plus any a fault lost).
    """

    connection: str
    injected: int = 0
    ejected: int = 0
    latency_histogram: Dict[int, int] = field(default_factory=dict)
    #: Sequence number of the last injected word (``-1`` until the first).
    last_sequence: int = -1
    #: Sequence numbers injected and not yet delivered to any destination.
    undelivered: Set[int] = field(default_factory=set)

    @property
    def in_flight(self) -> int:
        """Words injected but not yet delivered."""
        return self.injected - self.ejected


def counter_deltas(
    before: Dict[tuple, int], after: Dict[tuple, int]
) -> Optional[Dict[tuple, int]]:
    """The non-zero changes from one set of counts (such as
    :meth:`StatsCollector.counters`) to a later one — or ``None`` when a
    count opened in between (a connection, a flow, a sequence counter):
    it has no earlier value to extrapolate from.  (A latency first seen
    in between counts from zero.)"""
    deltas: Dict[tuple, int] = {}
    for key, value in after.items():
        old = before.get(key)
        if old is None:
            if key[0] != "latency":
                return None
            old = 0
        if value != old:
            deltas[key] = value - old
    return deltas


class StatsCollector:
    """Records injection/ejection of every word and checks delivery order.

    The collector enforces two invariants of a correctly configured TDM
    network: words of a connection arrive *in order* and *exactly once*.
    Multicast connections deliver each word once per destination, so
    ejections are tracked per (connection, destination).
    """

    def __init__(self) -> None:
        self.connections: Dict[str, ConnectionStats] = {}
        #: (connection, destination) -> last sequence delivered there.
        self._last_ejected: Dict[tuple, int] = {}
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

    # -- the ledger -------------------------------------------------------------

    def record_injection(self, word: Word, cycle: int) -> None:
        """Stamp ``word`` as driven onto its source link at ``cycle``.

        Raises:
            StatsIntegrityError: if the word is injected twice — it is
                already stamped, or its sequence number is not above the
                last one its connection injected.  The collector state
                and the word are not modified when this is raised.
        """
        connection = word.connection
        sequence = word.sequence
        stats = self.connections.get(connection)
        last = None if stats is None else stats.last_sequence
        if word.injected_at >= 0 or (last is not None and sequence <= last):
            raise StatsIntegrityError(
                f"word {(connection, sequence)} injected twice (at cycle "
                f"{cycle}; stamped {word.injected_at}, last injected "
                f"sequence {last})"
            )
        if stats is None:
            stats = self.connections[connection] = ConnectionStats(
                connection
            )
        stamp_injected(word, cycle)
        stats.injected += 1
        stats.last_sequence = sequence
        stats.undelivered.add(sequence)

    def record_ejection(
        self, word: Word, cycle: int, destination: str = ""
    ) -> None:
        """Note delivery of ``word`` at ``destination`` at ``cycle``.

        Raises:
            StatsIntegrityError: on an unstamped (never injected) word or
                an out-of-order delivery — both impossible in a
                contention-free schedule.  The collector state is not
                modified when this is raised, so a misdelivered word can
                never masquerade as (or overwrite) a legitimate record.
        """
        connection = word.connection
        sequence = word.sequence
        stats = self.connections.get(connection)
        injected = word.injected_at
        if stats is None or injected < 0:
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
        stats.undelivered.discard(sequence)
        stats.ejected += 1
        stats.count_latency(cycle - injected)

    def counters(self) -> Dict[tuple, int]:
        """Every ledger count, flat: ``("injected" | "ejected" |
        "last_sequence", connection)``, ``("latency", connection,
        latency)`` (histogram counts) and ``("cursor", connection,
        destination)`` (the per-flow last delivered sequence).  What epoch
        replay snapshots at a boundary and credits by per-epoch deltas."""
        counters: Dict[tuple, int] = {}
        for label, stats in self.connections.items():
            counters["injected", label] = stats.injected
            counters["ejected", label] = stats.ejected
            counters["last_sequence", label] = stats.last_sequence
            for latency, count in stats.latency_histogram.items():
                counters["latency", label, latency] = count
        for (label, destination), sequence in self._last_ejected.items():
            counters["cursor", label, destination] = sequence
        return counters

    def credit(
        self,
        epochs: int,
        counters: Dict[tuple, int],
        deltas: Dict[tuple, int],
    ) -> None:
        """Land ``epochs`` more epochs of a steady run: each count in
        ``deltas`` (one epoch's :func:`counter_deltas`) at its value in
        ``counters`` plus ``epochs`` times its delta.  The undelivered
        sets are the caller's: only it knows which words are in flight."""
        connections = self.connections
        for key, delta in deltas.items():
            value = counters[key] + epochs * delta
            kind, label, *rest = key
            if kind == "cursor":
                self._last_ejected[label, rest[0]] = value
            elif kind == "latency":
                connections[label].latency_histogram[rest[0]] = value
            else:
                setattr(connections[label], kind, value)

    # -- queries --------------------------------------------------------------

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
        return not any(
            stats.undelivered for stats in self.connections.values()
        )

    def undelivered(self) -> List[tuple]:
        """Keys of words still in flight (should drain to empty)."""
        return [
            (label, sequence)
            for label, stats in self.connections.items()
            for sequence in sorted(stats.undelivered)
        ]

    def throughput_words_per_cycle(
        self, connection: str, cycles: int
    ) -> float:
        """Delivered words per cycle over an observation window."""
        if cycles <= 0:
            raise SimulationError("observation window must be positive")
        return self.delivered_words(connection) / cycles
