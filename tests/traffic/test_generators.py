"""Unit tests for traffic generators and sinks."""

from __future__ import annotations

import pytest

from repro.errors import TrafficError
from repro.sim import Kernel, Word
from repro.sim.kernel import NAIVE_MODE, VECTOR_MODE
from repro.traffic import (
    BurstGenerator,
    CbrGenerator,
    CheckingSink,
    Lcg,
    RandomGenerator,
    ThrottledSink,
    TraceGenerator,
)


def collect(generator_factory, cycles):
    """Run a generator on a fresh kernel; return (cycle, payload) list."""
    events = []

    def inject(payload):
        events.append(payload)

    kernel = Kernel()
    kernel.add(generator_factory(inject))
    kernel.step(cycles)
    return events


class TestCbr:
    def test_rate(self):
        events = collect(
            lambda inject: CbrGenerator("g", inject, period=4), 40
        )
        assert len(events) == 10

    def test_total_words_cap(self):
        events = collect(
            lambda inject: CbrGenerator(
                "g", inject, period=1, total_words=5
            ),
            50,
        )
        assert len(events) == 5

    def test_start_cycle(self):
        events = collect(
            lambda inject: CbrGenerator(
                "g", inject, period=1, start_cycle=10, total_words=3
            ),
            12,
        )
        assert len(events) == 2

    def test_payloads_sequential(self):
        events = collect(
            lambda inject: CbrGenerator("g", inject, period=1), 5
        )
        assert events == [0, 1, 2, 3, 4]

    def test_invalid_period(self):
        with pytest.raises(TrafficError):
            CbrGenerator("g", lambda p: None, period=0)


class TestBurst:
    def test_burst_shape(self):
        events = collect(
            lambda inject: BurstGenerator(
                "g", inject, burst_words=4, period=10, total_bursts=3
            ),
            35,
        )
        assert len(events) == 12

    def test_validation(self):
        with pytest.raises(TrafficError):
            BurstGenerator("g", lambda p: None, burst_words=0, period=1)


class TestRandom:
    def test_deterministic_for_seed(self):
        first = collect(
            lambda inject: RandomGenerator("g", inject, 0.5, seed=7), 100
        )
        second = collect(
            lambda inject: RandomGenerator("g", inject, 0.5, seed=7), 100
        )
        assert first == second

    def test_rate_roughly_respected(self):
        events = collect(
            lambda inject: RandomGenerator("g", inject, 0.25, seed=3),
            2000,
        )
        assert 350 < len(events) < 650

    def test_rate_bounds(self):
        with pytest.raises(TrafficError):
            RandomGenerator("g", lambda p: None, rate=0.0)
        with pytest.raises(TrafficError):
            RandomGenerator("g", lambda p: None, rate=1.5)


class TestTrace:
    def test_replay(self):
        events = collect(
            lambda inject: TraceGenerator(
                "g", inject, [(0, 9), (3, 8), (3, 7)]
            ),
            5,
        )
        assert events == [9, 8, 7]

    def test_unsorted_rejected(self):
        with pytest.raises(TrafficError):
            TraceGenerator("g", lambda p: None, [(3, 1), (0, 2)])

    def test_done_flag(self):
        generator = TraceGenerator("g", lambda p: None, [(0, 1)])
        kernel = Kernel()
        kernel.add(generator)
        kernel.step(2)
        assert generator.done

    @pytest.mark.parametrize("mode", [NAIVE_MODE, VECTOR_MODE])
    def test_added_after_its_first_entry(self, mode):
        """An entry before the cycle the generator joins never fires;
        the later ones still fire at their cycles."""
        fired = []
        kernel = Kernel(mode=mode)
        generator = TraceGenerator(
            "g",
            lambda payload: fired.append((kernel.cycle, payload)),
            [(5, 1), (100, 2), (120, 3)],
        )
        kernel.step(50)
        kernel.add(generator)
        kernel.step(100)
        assert fired == [(100, 2), (120, 3)]
        assert generator.done


class TestLcg:
    def test_bounded(self):
        lcg = Lcg(1)
        for _ in range(100):
            assert 0 <= lcg.next_below(10) < 10
            assert 0.0 <= lcg.next_float() < 1.0

    def test_bound_validation(self):
        with pytest.raises(TrafficError):
            Lcg(1).next_below(0)

    def test_seeds_differ(self):
        a = [Lcg(1).next_u32() for _ in range(1)]
        b = [Lcg(2).next_u32() for _ in range(1)]
        assert a != b


class TestSinks:
    def make_queue(self, payloads):
        words = [
            Word(payload=p, connection="c", sequence=i)
            for i, p in enumerate(payloads)
        ]

        def receive(max_words):
            taken, words[:] = (
                words[:max_words],
                words[max_words:],
            )
            return taken

        return receive

    def test_sink_counts_and_checks(self):
        receive = self.make_queue([1, 2, 3])
        sink = CheckingSink("s", receive, words_per_cycle=2)
        kernel = Kernel()
        kernel.add(sink)
        kernel.step(2)
        assert sink.words_received == 3
        assert sink.clean
        assert sink._last_seq == {"c": 2}

    def test_throttled_sink_slower(self):
        receive = self.make_queue(list(range(10)))
        sink = ThrottledSink("s", receive, period=5)
        kernel = Kernel()
        kernel.add(sink)
        kernel.step(10)
        assert sink.words_received == 2  # cycles 0 and 5

    def test_rate_validation(self):
        with pytest.raises(TrafficError):
            CheckingSink("s", lambda n: [], words_per_cycle=0)
        with pytest.raises(TrafficError):
            ThrottledSink("s", lambda n: [], period=0)
