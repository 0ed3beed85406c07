"""Clocked traffic generators feeding NI channels.

Generators call an injection callable (e.g. a bound
``ni.submit(channel, ...)``) at model-defined instants; they are network
agnostic, like the shells.  All randomness is driven by an explicit seed
through a linear congruential generator, so every experiment is exactly
reproducible.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from ..errors import TrafficError
from ..sim.kernel import Component

InjectWord = Callable[[int], None]

_LCG_MULTIPLIER = 6364136223846793005
_LCG_INCREMENT = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class Lcg:
    """A tiny 64-bit linear congruential generator (deterministic)."""

    def __init__(self, seed: int) -> None:
        self._state = (seed ^ 0x9E3779B97F4A7C15) & _LCG_MASK

    def next_u32(self) -> int:
        self._state = (
            self._state * _LCG_MULTIPLIER + _LCG_INCREMENT
        ) & _LCG_MASK
        return self._state >> 32

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if bound <= 0:
            raise TrafficError("bound must be positive")
        return self.next_u32() % bound

    def next_float(self) -> float:
        """Uniform float in [0, 1)."""
        return self.next_u32() / (1 << 32)


class CbrGenerator(Component):
    """Constant-bit-rate source: one word every ``period`` cycles.

    The workload of the paper's motivation ("high throughput for video").
    """

    def __init__(
        self,
        name: str,
        inject: InjectWord,
        period: int,
        total_words: Optional[int] = None,
        start_cycle: int = 0,
    ) -> None:
        super().__init__(name)
        if period < 1:
            raise TrafficError("period must be >= 1 cycle")
        self.inject = inject
        self.period = period
        self.total_words = total_words
        self.start_cycle = start_cycle
        self.words_generated = 0

    @property
    def done(self) -> bool:
        return (
            self.total_words is not None
            and self.words_generated >= self.total_words
        )

    def next_evaluation(self, cycle: int) -> Optional[int]:
        return _periodic_next(cycle, self.start_cycle, self.period, self.done)

    def evaluate(self, cycle: int) -> None:
        if self.done or cycle < self.start_cycle:
            return
        if (cycle - self.start_cycle) % self.period == 0:
            self.inject(self.words_generated & 0xFFFF_FFFF)
            self.words_generated += 1


def _periodic_next(
    cycle: int, start_cycle: int, period: int, done: bool
) -> Optional[int]:
    """Next firing cycle of a ``(cycle - start) % period == 0`` source."""
    if done:
        return None
    if cycle <= start_cycle:
        return start_cycle
    offset = (cycle - start_cycle) % period
    return cycle if offset == 0 else cycle + period - offset


class BurstGenerator(Component):
    """Bursty source: ``burst_words`` back-to-back every ``period``."""

    def __init__(
        self,
        name: str,
        inject: InjectWord,
        burst_words: int,
        period: int,
        total_bursts: Optional[int] = None,
        start_cycle: int = 0,
    ) -> None:
        super().__init__(name)
        if burst_words < 1 or period < 1:
            raise TrafficError("burst size and period must be >= 1")
        self.inject = inject
        self.burst_words = burst_words
        self.period = period
        self.total_bursts = total_bursts
        self.start_cycle = start_cycle
        self.bursts_generated = 0
        self.words_generated = 0

    @property
    def done(self) -> bool:
        return (
            self.total_bursts is not None
            and self.bursts_generated >= self.total_bursts
        )

    def next_evaluation(self, cycle: int) -> Optional[int]:
        return _periodic_next(cycle, self.start_cycle, self.period, self.done)

    def evaluate(self, cycle: int) -> None:
        if self.done or cycle < self.start_cycle:
            return
        if (cycle - self.start_cycle) % self.period == 0:
            for _ in range(self.burst_words):
                self.inject(self.words_generated & 0xFFFF_FFFF)
                self.words_generated += 1
            self.bursts_generated += 1


class RandomGenerator(Component):
    """Bernoulli source: injects with probability ``rate`` each cycle."""

    def __init__(
        self,
        name: str,
        inject: InjectWord,
        rate: float,
        seed: int = 1,
        total_words: Optional[int] = None,
    ) -> None:
        super().__init__(name)
        if not 0.0 < rate <= 1.0:
            raise TrafficError("rate must be in (0, 1]")
        self.inject = inject
        self.rate = rate
        self.total_words = total_words
        self._lcg = Lcg(seed)
        self.words_generated = 0

    @property
    def done(self) -> bool:
        return (
            self.total_words is not None
            and self.words_generated >= self.total_words
        )

    def evaluate(self, cycle: int) -> None:
        if self.done:
            return
        if self._lcg.next_float() < self.rate:
            self.inject(self.words_generated & 0xFFFF_FFFF)
            self.words_generated += 1


class TraceGenerator(Component):
    """Replays an explicit (cycle, payload) trace."""

    def __init__(
        self,
        name: str,
        inject: InjectWord,
        trace: Sequence[Tuple[int, int]],
    ) -> None:
        super().__init__(name)
        ordered = list(trace)
        if ordered != sorted(ordered, key=lambda item: item[0]):
            raise TrafficError("trace must be sorted by cycle")
        self.inject = inject
        self.trace = ordered
        self._index = 0
        self.words_generated = 0

    @property
    def done(self) -> bool:
        return self._index >= len(self.trace)

    def _skip_past(self, cycle: int) -> None:
        """Step over the entries before ``cycle``: a generator added
        after an entry's cycle never fires it, and fires the later ones
        at their cycles."""
        trace = self.trace
        while self._index < len(trace) and trace[self._index][0] < cycle:
            self._index += 1

    def next_evaluation(self, cycle: int) -> Optional[int]:
        self._skip_past(cycle)
        return None if self.done else self.trace[self._index][0]

    def evaluate(self, cycle: int) -> None:
        self._skip_past(cycle)
        while not self.done and self.trace[self._index][0] == cycle:
            self.inject(self.trace[self._index][1])
            self.words_generated += 1
            self._index += 1
