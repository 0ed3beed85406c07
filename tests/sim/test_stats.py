"""Unit tests for the statistics collector's delivery invariants, and
the differential that holds its counts to a per-word reference ledger
kept here, in the tests (the collector keeps no per-word history)."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError, StatsIntegrityError
from repro.sim import ConnectionStats, StatsCollector, Word
from repro.sim.stats import counter_deltas

from ..differential import plant


def w(seq, conn="c"):
    return Word(payload=seq, connection=conn, sequence=seq)


def injected(stats, seq, cycle, conn="c"):
    """A fresh word of ``conn`` recorded as injected at ``cycle``: the
    stamped word, which its ejections must carry."""
    word = w(seq, conn)
    stats.record_injection(word, cycle)
    return word


class TestStatsCollector:
    def test_latency_recorded(self):
        stats = StatsCollector()
        word = injected(stats, 0, 10)
        assert word.injected_at == 10
        stats.record_ejection(word, cycle=17, destination="NI1")
        assert stats.connections["c"].latency_histogram == {7: 1}

    def test_stamp_is_set_once_and_not_part_of_equality(self):
        stats = StatsCollector()
        word = w(0)
        assert word.injected_at == -1
        stats.record_injection(word, 4)
        assert word == w(0) and hash(word) == hash(w(0))
        with pytest.raises(StatsIntegrityError, match="injected twice"):
            stats.record_injection(word, 5)
        with pytest.raises(FrozenInstanceError):
            word.injected_at = 6
        assert word.injected_at == 4

    def test_double_injection_rejected(self):
        stats = StatsCollector()
        word = injected(stats, 0, 1)
        with pytest.raises(SimulationError, match="injected twice"):
            stats.record_injection(word, 2)
        with pytest.raises(SimulationError, match="injected twice"):
            stats.record_injection(w(0), 2)

    def test_ejection_without_injection_rejected(self):
        stats = StatsCollector()
        with pytest.raises(SimulationError, match="never injected"):
            stats.record_ejection(w(0), 5, destination="NI1")

    def test_out_of_order_delivery_rejected(self):
        stats = StatsCollector()
        first = injected(stats, 0, 0)
        second = injected(stats, 1, 1)
        stats.record_ejection(second, 8, destination="NI1")
        with pytest.raises(SimulationError, match="out-of-order"):
            stats.record_ejection(first, 9, destination="NI1")

    def test_multicast_counts_each_destination(self):
        stats = StatsCollector()
        word = injected(stats, 0, 0)
        stats.record_ejection(word, 7, destination="NI1")
        stats.record_ejection(word, 9, destination="NI2")
        assert stats.delivered_words("c") == 2
        assert stats.connections["c"].latency_histogram == {7: 1, 9: 1}

    def test_undelivered_tracking(self):
        stats = StatsCollector()
        word = injected(stats, 0, 0)
        injected(stats, 1, 2)
        stats.record_ejection(word, 7, destination="NI1")
        assert stats.undelivered() == [("c", 1)]

    def test_connection_aggregates(self):
        stats = StatsCollector()
        for seq in range(3):
            word = injected(stats, seq, seq)
            stats.record_ejection(word, seq + 5 + seq, destination="d")
        info = stats.connections["c"]
        assert info.injected == 3
        assert info.ejected == 3
        assert info.in_flight == 0
        assert info.min_latency == 5
        assert info.max_latency == 7
        assert info.mean_latency == pytest.approx(6.0)

    def test_throughput(self):
        stats = StatsCollector()
        stats.record_ejection(injected(stats, 0, 0), 4, destination="d")
        assert stats.throughput_words_per_cycle("c", 8) == pytest.approx(
            0.125
        )

    def test_throughput_requires_window(self):
        stats = StatsCollector()
        with pytest.raises(SimulationError):
            stats.throughput_words_per_cycle("c", 0)

    def test_empty_connection_defaults(self):
        stats = StatsCollector()
        assert stats.delivered_words("missing") == 0
        assert stats.injected_words("missing") == 0
        empty = ConnectionStats("missing")
        assert empty.min_latency is None and empty.mean_latency is None


def ledger_state(stats):
    """Everything the collector keeps, for before/after comparisons."""
    return stats.counters(), stats.undelivered(), stats.fault_log()


class TestIntegrityViolations:
    """Impossible word lifecycles raise the dedicated error type and
    leave the collector state untouched — a misdelivered word must never
    overwrite or fabricate a record.  One test per check."""

    def test_violations_raise_the_dedicated_error_type(self):
        stats = StatsCollector()
        with pytest.raises(StatsIntegrityError):
            stats.record_ejection(w(0), 5, destination="NI1")
        word = injected(stats, 0, 1)
        with pytest.raises(StatsIntegrityError):
            stats.record_injection(word, 2)

    @pytest.mark.parametrize(
        "again",
        [
            pytest.param(lambda word: word, id="already-stamped"),
            pytest.param(lambda word: w(word.sequence), id="same-sequence"),
            pytest.param(lambda word: w(word.sequence - 1), id="below-last"),
            pytest.param(
                lambda word: Word(payload=0, connection="new", injected_at=3),
                id="stamped-elsewhere",
            ),
        ],
    )
    def test_injected_twice_leaves_state_unchanged(self, again):
        stats = StatsCollector()
        stats.record_ejection(injected(stats, 4, 0), 6, destination="NI1")
        word = injected(stats, 5, 7)
        before = ledger_state(stats)
        repeat = again(word)
        stamp = repeat.injected_at
        with pytest.raises(StatsIntegrityError, match="injected twice"):
            stats.record_injection(repeat, 9)
        assert ledger_state(stats) == before
        assert repeat.injected_at == stamp
        assert "new" not in stats.connections

    def test_never_injected_ejection_message_is_actionable(self):
        stats = StatsCollector()
        injected(stats, 0, 0, conn="live")
        with pytest.raises(
            StatsIntegrityError,
            match=r"never injected.*known connections.*live",
        ):
            stats.record_ejection(
                w(3, conn="ghost"), 9, destination="NI2"
            )

    def test_never_injected_ejection_leaves_state_unchanged(self):
        """An unstamped word of a known connection, the very sequence
        number its destination expects next."""
        stats = StatsCollector()
        stats.record_ejection(injected(stats, 0, 0), 6, destination="NI1")
        injected(stats, 1, 1)
        before = ledger_state(stats)
        with pytest.raises(StatsIntegrityError, match="never injected"):
            stats.record_ejection(w(1), 9, destination="NI1")
        assert ledger_state(stats) == before
        # The legitimate record survives intact.
        assert stats.connections["c"].latency_histogram == {6: 1}

    def test_out_of_order_rejection_leaves_order_marker_unchanged(self):
        stats = StatsCollector()
        first = injected(stats, 0, 0)
        second = injected(stats, 1, 1)
        stats.record_ejection(second, 8, destination="NI1")
        before = ledger_state(stats)
        with pytest.raises(StatsIntegrityError, match="out-of-order"):
            stats.record_ejection(first, 9, destination="NI1")
        assert ledger_state(stats) == before
        assert stats._last_ejected[("c", "NI1")] == 1
        assert stats.connections["c"].ejected == 1

    def test_sequence_gap_is_a_fault_not_an_error(self):
        stats = StatsCollector()
        injected(stats, 0, 0)
        word = injected(stats, 1, 1)
        stats.record_ejection(word, 8, destination="NI1")
        assert stats.fault_counts() == {"sequence_gap": 1}
        assert stats.faults[0].detail == "c: expected seq 0, got 1"
        assert stats.undelivered() == [("c", 0)]

    def test_integrity_error_is_a_simulation_error(self):
        # Existing except-clauses catching SimulationError keep working.
        assert issubclass(StatsIntegrityError, SimulationError)


class TestWordLedger:
    """What the ledger keeps per connection: counts, not words."""

    def test_sparse_injections_and_an_earlier_one_refused(self):
        stats = StatsCollector()
        for seq, cycle in ((5, 50), (8, 80)):
            injected(stats, seq, cycle)
        assert stats.undelivered() == [("c", 5), ("c", 8)]
        assert stats.connections["c"].injected == 2
        assert stats.connections["c"].last_sequence == 8
        # The skipped sequence numbers are absent, not words.
        with pytest.raises(StatsIntegrityError, match="never injected"):
            stats.record_ejection(w(6), 90, destination="d")
        # Below the last injected word: refused.
        with pytest.raises(StatsIntegrityError, match="injected twice"):
            stats.record_injection(w(3), 30)

    def test_first_delivery_takes_the_word_out_of_flight(self):
        stats = StatsCollector()
        word = injected(stats, 0, 1)
        stats.record_ejection(word, 7, destination="NI1")
        assert stats.undelivered() == [] and stats.all_delivered
        stats.record_ejection(word, 9, destination="NI2")
        assert stats.connections["c"].latency_histogram == {6: 1, 8: 1}

    def test_all_delivered_counts_first_deliveries_only(self):
        stats = StatsCollector()
        assert stats.all_delivered
        words = [injected(stats, seq, seq) for seq in (0, 1)]
        assert not stats.all_delivered
        for cycle, word in enumerate(words, 5):
            stats.record_ejection(word, cycle, "NI1")
        assert stats.all_delivered and stats.undelivered() == []
        for cycle, word in enumerate(words, 7):
            stats.record_ejection(word, cycle, "NI2")
        assert stats.all_delivered
        injected(stats, 2, 9)
        assert not stats.all_delivered
        assert stats.undelivered() == [("c", 2)]

    def test_counts_do_not_grow_with_the_words(self):
        stats = StatsCollector()
        for seq in range(1_000):
            word = injected(stats, seq, 3 * seq)
            stats.record_ejection(word, 3 * seq + 11, destination="d")
        ledger = stats.connections["c"]
        assert ledger.latency_histogram == {11: 1_000}
        assert ledger.undelivered == set()
        assert len(stats.counters()) == 5


# -- the counts are the per-word ledger's, summed ------------------------------

CONNECTIONS = ("a", "b")
DESTINATIONS = ("d1", "d2", "d3")


class Refused(Exception):
    """The reference ledger's integrity error."""


class PerWordLedger:
    """The oracle: a ledger that keeps every word — its injection cycle
    and first delivery — and every latency in delivery order, with the
    collector's rules (an injection must be above its connection's last
    one; a delivery must be of an injected word, in order per
    destination; a gap is a fault).  What the collector counts has to be
    what this one keeps, summed."""

    def __init__(self):
        self.words = {}  # (conn, seq) -> [injected at, first delivery]
        self.latencies = {}  # conn -> [latency, ...]
        self.last_injected = {}
        self.cursors = {}
        self.faults = []

    def inject(self, conn, seq, cycle):
        last = self.last_injected.get(conn)
        if last is not None and seq <= last:
            raise Refused("injected twice")
        self.words[conn, seq] = [cycle, None]
        self.last_injected[conn] = seq
        self.latencies.setdefault(conn, [])

    def eject(self, conn, dest, seq, cycle):
        record = self.words.get((conn, seq))
        if record is None:
            raise Refused("never injected")
        last = self.cursors.get((conn, dest))
        if last is not None and seq <= last:
            raise Refused("out-of-order")
        expected = 0 if last is None else last + 1
        if seq > expected:
            self.faults.append(
                (cycle, "sequence_gap", dest,
                 f"{conn}: expected seq {expected}, got {seq}")
            )
        self.cursors[conn, dest] = seq
        if record[1] is None:
            record[1] = cycle
        self.latencies[conn].append(cycle - record[0])


class Wire:
    """Drives one op stream word by word into a collector and into the
    reference.  An ejection carries the word object its injection
    stamped, or a fresh (unstamped) one if it never was injected."""

    def __init__(self):
        self.stats = StatsCollector()
        self.reference = PerWordLedger()
        self.sent = {}

    def inject(self, conn, seq, cycle):
        word = w(seq, conn)
        self.stats.record_injection(word, cycle)
        self.sent[conn, seq] = word

    def eject(self, conn, dest, seq, cycle):
        word = self.sent.get((conn, seq), w(seq, conn))
        self.stats.record_ejection(word, cycle, dest)

    def apply(self, op):
        """Apply ``op`` to both; the check each refused it with."""
        outcomes = []
        for target in (self, self.reference):
            try:
                apply_word_by_word(target, op)
            except (StatsIntegrityError, Refused) as exc:
                outcomes.append(
                    next(
                        check
                        for check in (
                            "injected twice", "never injected", "out-of-order"
                        )
                        if check in str(exc)
                    )
                )
            else:
                outcomes.append(None)
        return outcomes


def observe(stats):
    return (
        {
            label: (
                s.injected,
                s.ejected,
                s.last_sequence,
                dict(sorted(s.latency_histogram.items())),
            )
            for label, s in stats.connections.items()
        },
        dict(stats._last_ejected),
        [(e.cycle, e.kind, e.site, e.detail) for e in stats.faults],
        sorted(stats.undelivered()),
        stats.all_delivered,
    )


def observe_reference(reference):
    histograms = {}
    for conn, latencies in reference.latencies.items():
        histogram = {}
        for latency in latencies:
            histogram[latency] = histogram.get(latency, 0) + 1
        histograms[conn] = dict(sorted(histogram.items()))
    undelivered = sorted(
        key for key, (_, first) in reference.words.items() if first is None
    )
    return (
        {
            conn: (
                sum(1 for c, _ in reference.words if c == conn),
                len(latencies),
                reference.last_injected[conn],
                histograms[conn],
            )
            for conn, latencies in reference.latencies.items()
        },
        dict(reference.cursors),
        reference.faults,
        undelivered,
        not undelivered,
    )


def apply_word_by_word(target, op):
    """``op`` is a run — ``("inject", conn, first, cycles)`` or
    ``("eject", conn, dest, first, cycles)`` — or a multicast tree's
    interleaved deliveries ``("fanout", conn, dests, seqs, cycles)``."""
    if op[0] == "fanout":
        _, conn, destinations, sequences, cycles = op
        for dest, seq, cycle in zip(destinations, sequences, cycles):
            target.eject(conn, dest, seq, cycle)
        return
    tag, conn, *dest, first, cycles = op
    for seq, cycle in enumerate(cycles, first):
        if tag == "inject":
            target.inject(conn, seq, cycle)
        else:
            target.eject(conn, *dest, seq, cycle)


def assert_matches_the_per_word_ledger(ops):
    """Drive ``ops`` word by word into a collector and into
    :class:`PerWordLedger`; after every op the two must agree on every
    count and on which check, if any, refused a word."""
    wire = Wire()
    for op in ops:
        refused, expected = wire.apply(op)
        assert refused == expected, op
        assert observe(wire.stats) == observe_reference(wire.reference), op
    return wire.stats


TWEAKS = ("keep",) * 6 + ("drop", "twice", "early", "late")


def fanout(draw, conn, dests, first, cycles):
    """``cycles``' run delivered at each of ``dests`` as one fan-out op:
    every destination gets the words in order, and a drawn merge
    interleaves the destinations (a destination listed twice is two
    streams, hence out-of-order deliveries)."""
    streams = [[dest, 0] for dest in dests]
    destinations, sequences, delivered = [], [], []
    while streams:
        stream = streams[draw(st.integers(0, len(streams) - 1))]
        dest, index = stream
        destinations.append(dest)
        sequences.append(first + index)
        delivered.append(cycles[index] + 1 + DESTINATIONS.index(dest))
        stream[1] += 1
        if stream[1] == len(cycles):
            streams.remove(stream)
    return ("fanout", conn, destinations, sequences, delivered)


@st.composite
def run_ops(draw):
    """A well-formed stream per connection — runs injected densely from
    a first sequence of 0, 7 or 2**62, each delivered at some of the
    destinations, one by one or as one interleaved fan-out — with four
    in ten of the ops then dropped, doubled or moved by one word, which
    is where gaps, duplicates, unknown words and runs off the expected
    word come from."""
    ops = []
    for conn in CONNECTIONS:
        first = draw(st.sampled_from((0, 7, 2**62)))
        for _ in range(draw(st.integers(0, 6))):
            cycles = draw(
                st.lists(st.integers(0, 10**6), min_size=1, max_size=4)
            )
            dests = draw(st.lists(st.sampled_from(DESTINATIONS), max_size=3))
            tree = dests and draw(st.booleans())
            for op in [("inject", conn)] + (
                [None] if tree else [("eject", conn, dest) for dest in dests]
            ):
                tweak = draw(st.sampled_from(TWEAKS))
                copies = {"drop": 0, "twice": 2}.get(tweak, 1)
                shift = {"early": -1, "late": 1}.get(tweak, 0)
                if op is None:
                    op = fanout(draw, conn, dests, first + shift, cycles)
                else:
                    op += (first + shift, cycles)
                ops += [op] * copies
            first += len(cycles)
    return ops


@pytest.mark.differential
@settings(max_examples=300, deadline=None)
@given(ops=run_ops())
def test_runs_match_scalar_calls(ops):
    """Runs applied as scalar calls: the collector's counts are the
    per-word reference's, summed."""
    assert_matches_the_per_word_ledger(ops)


HUGE = 2**62

#: One epoch of a 3-leaf tree carrying two words: ``(destination,
#: sequence, cycle)`` in delivery order, the leaves interleaved.
TREE_EPOCH = (
    ("d1", 0, 10),
    ("d2", 0, 11),
    ("d1", 1, 12),
    ("d3", 0, 13),
    ("d2", 1, 14),
    ("d3", 1, 15),
)


def k_major(conn, epoch, epochs, delta=2, period=10):
    """``epoch`` repeated for each ``k`` in ``epochs`` as one fan-out op,
    flattened k-major the way epoch replay builds it (sequences shifted
    by ``k * delta``, cycles by ``k * period``)."""
    return (
        "fanout",
        conn,
        [dest for _ in epochs for dest, _, _ in epoch],
        [seq + k * delta for k in epochs for _, seq, _ in epoch],
        [cycle + k * period for k in epochs for _, _, cycle in epoch],
    )


#: One stream per situation the run entry points must get right.
NAMED_STREAMS = {
    "dense": [
        ("inject", "a", 0, [1, 2, 3, 4]),
        ("eject", "a", "d1", 0, [8, 9]),
        ("eject", "a", "d1", 2, [10, 11]),
    ],
    "nonzero-first-sequence": [
        ("inject", "a", 7, [1, 2, 3]),
        ("eject", "a", "d1", 7, [8]),  # gap fault: expected 0
        ("eject", "a", "d1", 8, [9, 10]),
    ],
    "huge-first-sequence": [
        ("inject", "a", HUGE, [1, 2, 3]),
        ("eject", "a", "d1", HUGE, [8]),
        ("eject", "a", "d1", HUGE + 1, [9, 10]),
    ],
    "gaps": [
        ("inject", "a", 0, [1, 2]),
        ("inject", "a", 4, [5, 6]),
        ("inject", "a", 2, [3]),  # below the last: injected twice
        ("eject", "a", "d1", 0, [8, 9, 10]),  # 0 and 1 land, 2 raises
        ("eject", "a", "d1", 4, [12, 13]),  # gap fault: 2 and 3 skipped
    ],
    "prepend": [
        ("inject", "a", 5, [50, 60]),
        ("inject", "a", 2, [20, 30, 40]),  # below the last: injected twice
        ("eject", "a", "d1", 2, [70, 71, 72, 73, 74]),
    ],
    "second-multicast-destination": [
        ("inject", "a", 0, [1, 2, 3]),
        ("eject", "a", "d1", 0, [8, 9, 10]),
        ("eject", "a", "d2", 0, [11, 12, 13]),
    ],
    "run-not-at-the-expected-word": [
        ("inject", "a", 0, [1, 2, 3, 4]),
        ("eject", "a", "d1", 1, [8, 9]),  # gap fault
        ("eject", "a", "d1", 1, [10]),  # out of order
        ("eject", "a", "d1", 3, [11]),
    ],
    "duplicate-inside-a-run": [
        ("inject", "a", 2, [1]),
        ("inject", "a", 0, [5, 6, 7, 8]),  # 0 is below 2: raises
        ("inject", "a", 3, [9]),
    ],
    "unknown-word-inside-a-run": [
        ("inject", "a", 0, [1, 2]),
        ("inject", "a", 3, [4]),
        ("eject", "a", "d1", 0, [8, 9, 10, 11]),  # 0 and 1 land, 2 raises
        ("eject", "a", "d1", 3, [12]),
    ],
    "unknown-connection": [
        ("eject", "ghost", "d1", 0, [8]),
        ("inject", "a", 0, [1]),
        ("eject", "ghost", "d1", 0, [9]),
    ],
    "empty-runs": [
        ("inject", "a", 0, []),
        ("eject", "a", "d1", 0, []),
        ("fanout", "a", [], [], []),
    ],
    # Fan-out runs: one multicast tree's deliveries, interleaved.
    "fanout-steady-tree": [
        ("inject", "a", 0, [1, 2, 3, 4, 5, 6, 7, 8]),
        k_major("a", TREE_EPOCH, epochs=range(0, 2)),
        k_major("a", TREE_EPOCH, epochs=range(2, 4)),
    ],
    "fanout-leaf-off-its-expected-word": [
        ("inject", "a", 0, [1, 2, 3]),
        # gap fault at d2's first delivery: expected 0
        ("fanout", "a", ["d1", "d2", "d1", "d2"], [0, 1, 1, 2], [8, 9, 10, 11]),
    ],
    "fanout-never-injected-word": [
        ("inject", "a", 0, [1, 2]),
        ("inject", "a", 3, [4]),
        # the first four deliveries land, word 2 at d1 raises
        (
            "fanout",
            "a",
            ["d1", "d2", "d1", "d2", "d1", "d2"],
            [0, 0, 1, 1, 2, 2],
            [8, 9, 10, 11, 12, 13],
        ),
    ],
    "fanout-past-the-column": [
        ("inject", "a", 0, [1, 2]),
        ("fanout", "a", ["d1", "d2", "d1", "d1"], [0, 0, 1, 2], [8, 9, 10, 11]),
    ],
    "fanout-words-already-delivered": [
        ("inject", "a", 0, [1, 2, 3, 4]),
        ("eject", "a", "d1", 0, [5, 6]),
        # words 0 and 1 keep their first delivery at d1
        (
            "fanout",
            "a",
            ["d2", "d1", "d2", "d2", "d1", "d2"],
            [0, 2, 1, 2, 3, 3],
            [20, 21, 22, 23, 24, 25],
        ),
    ],
    "fanout-destination-repeated": [
        ("inject", "a", 0, [1, 2]),
        # out of order at the third delivery
        ("fanout", "a", ["d1", "d2", "d1", "d2"], [0, 0, 0, 1], [8, 9, 10, 11]),
    ],
}


@pytest.mark.differential
@pytest.mark.parametrize("name", sorted(NAMED_STREAMS))
def test_named_streams_match_scalar_calls(name):
    assert_matches_the_per_word_ledger(NAMED_STREAMS[name])


def test_a_steady_tree_lands_without_a_scalar_call(monkeypatch):
    """Epoch replay's arithmetic on the steady tree: two epochs recorded
    word by word, then two more credited from the second one's counter
    deltas with no ``record_*`` call, land exactly where four epochs of
    scalar calls do."""

    def epoch(wire, k):
        """Epoch ``k``: the tree's two words injected, then delivered."""
        apply_word_by_word(wire, ("inject", "a", 2 * k, [10 * k + 1, 10 * k + 2]))
        apply_word_by_word(wire, k_major("a", TREE_EPOCH, epochs=[k]))

    stepped = Wire()
    for k in range(4):
        epoch(stepped, k)

    wire = Wire()
    epoch(wire, 0)
    before = wire.stats.counters()
    epoch(wire, 1)
    after = wire.stats.counters()

    def refuse(*args):
        raise AssertionError(f"scalar call: {args}")

    monkeypatch.setattr(StatsCollector, "record_ejection", refuse)
    monkeypatch.setattr(StatsCollector, "record_injection", refuse)
    wire.stats.credit(2, after, counter_deltas(before, after))
    # The undelivered sets are replay's to move (only it knows which
    # words are in flight); every word of this tree has landed.
    assert wire.stats.all_delivered
    assert observe(wire.stats) == observe(stepped.stats)
    ledger = wire.stats.connections["a"]
    assert ledger.ejected == 24
    assert ledger.latency_histogram == {9: 4, 10: 8, 12: 8, 13: 4}
    assert list(wire.stats._last_ejected.items()) == [
        (("a", "d1"), 7),
        (("a", "d2"), 7),
        (("a", "d3"), 7),
    ]


def test_a_connection_opened_in_the_epoch_is_not_extrapolated():
    """``counter_deltas`` refuses an epoch that opened a connection or a
    flow (nothing to extrapolate from) and counts a first-seen latency
    from zero."""
    wire = Wire()
    apply_word_by_word(wire, ("inject", "a", 0, [1, 2]))
    before = wire.stats.counters()
    apply_word_by_word(wire, ("eject", "a", "d1", 0, [5]))
    assert counter_deltas(before, wire.stats.counters()) is None
    before = wire.stats.counters()
    apply_word_by_word(wire, ("eject", "a", "d1", 1, [9]))
    assert counter_deltas(before, wire.stats.counters()) == {
        ("ejected", "a"): 1,
        ("latency", "a", 7): 1,
        ("cursor", "a", "d1"): 1,
    }
    apply_word_by_word(wire, ("inject", "b", 0, [3]))
    assert counter_deltas(before, wire.stats.counters()) is None


class TestPlantedLedgerMutantsAreKilled:
    """Each check of the collector, dropped, makes a named stream
    diverge from the per-word reference."""

    @staticmethod
    def survives(name):
        """A kill is the differential diverging, or crashing where the
        reference did not."""
        try:
            assert_matches_the_per_word_ledger(NAMED_STREAMS[name])
        except Exception:
            return False
        return True

    def test_skipping_the_all_injected_check(self, monkeypatch):
        assert self.survives("unknown-word-inside-a-run")
        assert self.survives("fanout-never-injected-word")
        plant(
            monkeypatch,
            "if stats is None or injected < 0:",
            "if stats is None:",
            owner=StatsCollector,
            method="record_ejection",
        )
        assert not self.survives("unknown-word-inside-a-run")
        assert not self.survives("fanout-never-injected-word")

    def test_per_destination_consecutiveness_dropped(self, monkeypatch):
        assert self.survives("fanout-leaf-off-its-expected-word")
        assert self.survives("fanout-destination-repeated")
        plant(
            monkeypatch,
            "last = self._last_ejected.get(flow)",
            "last = None",
            owner=StatsCollector,
            method="record_ejection",
        )
        assert not self.survives("fanout-leaf-off-its-expected-word")
        assert not self.survives("fanout-destination-repeated")

    def test_injection_at_or_below_the_last_accepted(self, monkeypatch):
        assert self.survives("duplicate-inside-a-run")
        plant(
            monkeypatch,
            "or (last is not None and sequence <= last)",
            "",
            owner=StatsCollector,
            method="record_injection",
        )
        assert not self.survives("duplicate-inside-a-run")
        assert not self.survives("prepend")

    def test_skipping_the_not_yet_delivered_check(self, monkeypatch):
        """The not-yet-delivered set: a word's first delivery, at any
        destination, has to take it out."""
        plant(
            monkeypatch,
            "stats.undelivered.discard(sequence)",
            "pass",
            owner=StatsCollector,
            method="record_ejection",
        )
        assert not self.survives("dense")
        assert not self.survives("second-multicast-destination")

    def test_latency_counted_from_the_ejection_cycle_only(
        self, monkeypatch
    ):
        plant(
            monkeypatch,
            "stats.count_latency(cycle - injected)",
            "stats.count_latency(cycle)",
            owner=StatsCollector,
            method="record_ejection",
        )
        assert not self.survives("fanout-steady-tree")
