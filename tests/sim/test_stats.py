"""Unit tests for the statistics collector's delivery invariants, and
the differential that defines its run entry points as the scalar calls
in order."""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError, StatsIntegrityError
from repro.sim import StatsCollector, Word
from repro.sim import stats as stats_module


def w(seq, conn="c"):
    return Word(payload=seq, connection=conn, sequence=seq)


class TestStatsCollector:
    def test_latency_recorded(self):
        stats = StatsCollector()
        stats.record_injection(w(0), cycle=10)
        stats.record_ejection(w(0), cycle=17, destination="NI1")
        assert stats.latency("c", 0) == 7

    def test_double_injection_rejected(self):
        stats = StatsCollector()
        stats.record_injection(w(0), 1)
        with pytest.raises(SimulationError, match="injected twice"):
            stats.record_injection(w(0), 2)

    def test_ejection_without_injection_rejected(self):
        stats = StatsCollector()
        with pytest.raises(SimulationError, match="never injected"):
            stats.record_ejection(w(0), 5, destination="NI1")

    def test_out_of_order_delivery_rejected(self):
        stats = StatsCollector()
        stats.record_injection(w(0), 0)
        stats.record_injection(w(1), 1)
        stats.record_ejection(w(1), 8, destination="NI1")
        with pytest.raises(SimulationError, match="out-of-order"):
            stats.record_ejection(w(0), 9, destination="NI1")

    def test_multicast_counts_each_destination(self):
        stats = StatsCollector()
        stats.record_injection(w(0), 0)
        stats.record_ejection(w(0), 7, destination="NI1")
        stats.record_ejection(w(0), 9, destination="NI2")
        assert stats.delivered_words("c") == 2
        assert stats.connections["c"].latencies == [7, 9]

    def test_undelivered_tracking(self):
        stats = StatsCollector()
        stats.record_injection(w(0), 0)
        stats.record_injection(w(1), 2)
        stats.record_ejection(w(0), 7, destination="NI1")
        assert stats.undelivered() == [("c", 1)]

    def test_connection_aggregates(self):
        stats = StatsCollector()
        for seq in range(3):
            stats.record_injection(w(seq), seq)
            stats.record_ejection(w(seq), seq + 5 + seq, destination="d")
        info = stats.connections["c"]
        assert info.injected == 3
        assert info.ejected == 3
        assert info.in_flight == 0
        assert info.min_latency == 5
        assert info.max_latency == 7
        assert info.mean_latency == pytest.approx(6.0)

    def test_throughput(self):
        stats = StatsCollector()
        stats.record_injection(w(0), 0)
        stats.record_ejection(w(0), 4, destination="d")
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
        assert stats.latency("missing", 0) is None


class TestIntegrityViolations:
    """Impossible word lifecycles raise the dedicated error type and
    leave the collector state untouched — a misdelivered word must never
    overwrite or fabricate a record."""

    def test_violations_raise_the_dedicated_error_type(self):
        stats = StatsCollector()
        with pytest.raises(StatsIntegrityError):
            stats.record_ejection(w(0), 5, destination="NI1")
        stats.record_injection(w(0), 1)
        with pytest.raises(StatsIntegrityError):
            stats.record_injection(w(0), 2)

    def test_never_injected_ejection_message_is_actionable(self):
        stats = StatsCollector()
        stats.record_injection(w(0, conn="live"), 0)
        with pytest.raises(
            StatsIntegrityError,
            match=r"never injected.*known connections.*live",
        ):
            stats.record_ejection(
                w(3, conn="ghost"), 9, destination="NI2"
            )

    def test_never_injected_ejection_leaves_state_unchanged(self):
        stats = StatsCollector()
        stats.record_injection(w(0), 0)
        stats.record_ejection(w(0), 6, destination="NI1")
        before = (
            stats.word_times(),
            dict(stats._last_ejected),
            {
                label: (s.injected, s.ejected, list(s.latencies))
                for label, s in stats.connections.items()
            },
        )
        with pytest.raises(StatsIntegrityError):
            stats.record_ejection(w(7), 9, destination="NI1")
        after = (
            stats.word_times(),
            dict(stats._last_ejected),
            {
                label: (s.injected, s.ejected, list(s.latencies))
                for label, s in stats.connections.items()
            },
        )
        assert before == after
        # The legitimate record survives intact.
        assert stats.latency("c", 0) == 6

    def test_out_of_order_rejection_leaves_order_marker_unchanged(self):
        stats = StatsCollector()
        stats.record_injection(w(0), 0)
        stats.record_injection(w(1), 1)
        stats.record_ejection(w(1), 8, destination="NI1")
        with pytest.raises(StatsIntegrityError):
            stats.record_ejection(w(0), 9, destination="NI1")
        assert stats._last_ejected[("c", "NI1")] == 1
        assert stats.connections["c"].ejected == 1

    def test_integrity_error_is_a_simulation_error(self):
        # Existing except-clauses catching SimulationError keep working.
        assert issubclass(StatsIntegrityError, SimulationError)


class TestWordLedger:
    """The per-connection columns behind ``word_times()``."""

    def test_sparse_and_out_of_order_injections_pad_and_prepend(self):
        stats = StatsCollector()
        for seq, cycle in ((5, 50), (8, 80), (3, 30)):
            stats.record_injection(w(seq), cycle)
        assert stats.word_times() == {
            ("c", 3): (30, None),
            ("c", 5): (50, None),
            ("c", 8): (80, None),
        }
        assert stats.connections["c"].injected == 3
        # The padded positions are absent, not words.
        with pytest.raises(StatsIntegrityError, match="never injected"):
            stats.record_ejection(w(4), 90, destination="d")
        stats.record_injection(w(4), 40)
        with pytest.raises(StatsIntegrityError, match="injected twice"):
            stats.record_injection(w(4), 41)

    def test_word_times_keeps_the_first_delivery(self):
        stats = StatsCollector()
        stats.record_injection(w(0), 1)
        stats.record_ejection(w(0), 7, destination="NI1")
        stats.record_ejection(w(0), 9, destination="NI2")
        assert stats.word_times() == {("c", 0): (1, 7)}
        assert stats.latency("c", 0) == 6

    def test_all_delivered_counts_first_deliveries_only(self):
        stats = StatsCollector()
        assert stats.all_delivered
        stats.record_injections("c", 0, [0, 1])
        assert not stats.all_delivered
        stats.record_ejections("c", "NI1", 0, [5, 6])
        assert stats.all_delivered and stats.undelivered() == []
        stats.record_ejections("c", "NI2", 0, [7, 8])
        assert stats.all_delivered
        stats.record_injection(w(2), 9)
        assert not stats.all_delivered
        assert stats.undelivered() == [("c", 2)]


# -- runs are the scalar calls, in order ---------------------------------------

CONNECTIONS = ("a", "b")
DESTINATIONS = ("d1", "d2", "d3")


def observe(stats):
    return (
        stats.word_times(),
        {label: list(s.latencies) for label, s in stats.connections.items()},
        {label: (s.injected, s.ejected) for label, s in stats.connections.items()},
        list(stats._last_ejected.items()),
        stats.fault_log(),
        stats.undelivered(),
        stats.all_delivered,
    )


def apply_as_run(stats, op):
    tag, *args = op
    if tag == "inject":
        stats.record_injections(*args)
    elif tag == "eject":
        stats.record_ejections(*args)
    else:
        stats.record_fanout(*args)


def apply_word_by_word(stats, op):
    if op[0] == "fanout":
        _, conn, destinations, sequences, cycles = op
        for dest, seq, cycle in zip(destinations, sequences, cycles):
            stats.record_ejection(w(seq, conn), cycle, dest)
        return
    tag, conn, *dest, first, cycles = op
    for seq, cycle in enumerate(cycles, first):
        if tag == "inject":
            stats.record_injection(w(seq, conn), cycle)
        else:
            stats.record_ejection(w(seq, conn), cycle, *dest)


def integrity_error(apply, stats, op):
    try:
        apply(stats, op)
    except StatsIntegrityError as exc:
        return str(exc)
    return None


def assert_runs_match_scalar_calls(ops):
    """Drive ``ops`` through the run entry points on one collector and
    word by word through the scalar ones on another; after every op the
    two must agree on every observable and on what was raised."""
    by_run, by_word = StatsCollector(), StatsCollector()
    for op in ops:
        assert integrity_error(apply_as_run, by_run, op) == integrity_error(
            apply_word_by_word, by_word, op
        ), op
        assert observe(by_run) == observe(by_word), op
    return by_run


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
    assert_runs_match_scalar_calls(ops)


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
        ("inject", "a", 2, [3]),
        ("eject", "a", "d1", 0, [8, 9, 10]),
        ("eject", "a", "d1", 4, [12, 13]),  # gap fault: 3 was skipped
    ],
    "prepend": [
        ("inject", "a", 5, [50, 60]),
        ("inject", "a", 2, [20, 30, 40]),
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
        ("inject", "a", 0, [5, 6, 7, 8]),  # 0 and 1 land, 2 raises
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
    assert_runs_match_scalar_calls(NAMED_STREAMS[name])


def test_the_named_streams_reach_the_slice_paths():
    """The comparison above is only worth something if the run side took
    its slice path where one applies: a dense stream ends with every
    word delivered and no fault, through three calls."""
    stats = assert_runs_match_scalar_calls(NAMED_STREAMS["dense"])
    assert stats.all_delivered and not stats.faults
    assert stats.connections["a"].latencies == [7, 7, 7, 7]


def test_a_steady_tree_lands_without_a_scalar_call(monkeypatch):
    """The steady tree's two fan-out runs take the slice path: no
    ``_eject`` call, every word delivered, the leaves' latencies
    interleaved in delivery order."""
    stats = StatsCollector()

    def refuse(*args):
        raise AssertionError(f"scalar walk: {args}")

    monkeypatch.setattr(StatsCollector, "_eject", refuse)
    for op in NAMED_STREAMS["fanout-steady-tree"]:
        apply_as_run(stats, op)
    ledger = stats.connections["a"]
    assert stats.all_delivered and not stats.faults
    assert ledger.ejected == 24
    assert list(ledger.ejected_at) == [10, 12, 20, 22, 30, 32, 40, 42]
    assert ledger.latencies[:6] == [9, 10, 10, 12, 12, 13]
    assert list(stats._last_ejected.items()) == [
        (("a", "d1"), 7),
        (("a", "d2"), 7),
        (("a", "d3"), 7),
    ]


def plant(monkeypatch, original, mutant):
    """Run the fan-out methods with the one source fragment ``original``
    of ``stats.py`` rewritten to ``mutant``."""
    source = inspect.getsource(stats_module)
    assert source.count(original) == 1, original
    namespace = {
        "__name__": stats_module.__name__,
        "__package__": stats_module.__package__,
    }
    exec(
        compile(
            source.replace(original, mutant), stats_module.__file__, "exec"
        ),
        namespace,
    )
    for method in ("record_fanout", "_consecutive_per_destination"):
        monkeypatch.setattr(
            StatsCollector, method, getattr(namespace["StatsCollector"], method)
        )


class TestPlantedLedgerMutantsAreKilled:
    """Each slice path is guarded by one condition per way the scalar
    walk could behave differently; drop one and a named stream diverges.
    The run paths' guards are the ``min`` / ``max`` over the run's
    columns, so shadowing that builtin in the module's namespace removes
    exactly the guard; the fan-out path's own rules are planted as
    source mutants."""

    @staticmethod
    def survives(name):
        """A kill is the differential diverging, or crashing where the
        scalar calls did not."""
        try:
            assert_runs_match_scalar_calls(NAMED_STREAMS[name])
        except Exception:
            return False
        return True

    def test_skipping_the_all_injected_check(self, monkeypatch):
        assert self.survives("unknown-word-inside-a-run")
        assert self.survives("fanout-never-injected-word")
        monkeypatch.setattr(
            stats_module, "min", lambda column: 0, raising=False
        )
        assert not self.survives("unknown-word-inside-a-run")
        assert not self.survives("fanout-never-injected-word")

    def test_skipping_the_not_yet_delivered_check(self, monkeypatch):
        assert self.survives("second-multicast-destination")
        assert self.survives("fanout-past-the-column")
        monkeypatch.setattr(
            stats_module, "max", lambda column: -1, raising=False
        )
        assert not self.survives("second-multicast-destination")
        assert not self.survives("fanout-past-the-column")

    def test_first_delivery_taken_from_the_last_occurrence(
        self, monkeypatch
    ):
        assert self.survives("fanout-steady-tree")
        plant(
            monkeypatch,
            "zip(reversed(sequences), reversed(cycles))",
            "zip(sequences, cycles)",
        )
        assert not self.survives("fanout-steady-tree")
        assert not self.survives("fanout-words-already-delivered")

    def test_per_destination_consecutiveness_dropped(self, monkeypatch):
        assert self.survives("fanout-leaf-off-its-expected-word")
        assert self.survives("fanout-destination-repeated")
        plant(monkeypatch, "if sequence != expected:", "if False:")
        assert not self.survives("fanout-leaf-off-its-expected-word")
        assert not self.survives("fanout-destination-repeated")

    def test_fanout_injected_check_dropped(self, monkeypatch):
        plant(monkeypatch, "if min(injected) >= 0:", "if True:")
        assert not self.survives("fanout-never-injected-word")
        # The run paths keep their own guard.
        assert self.survives("unknown-word-inside-a-run")

    def test_undelivered_decremented_per_delivery(self, monkeypatch):
        plant(
            monkeypatch,
            "self._undelivered -= delivered",
            "self._undelivered -= len(cycles)",
        )
        assert not self.survives("fanout-steady-tree")
