"""Resilience policies: bounded retry, seeded backoff, circuit breaking.

Three small, independently testable machines the broker composes:

* :class:`BackoffPolicy` — exponential backoff with deterministic
  jitter.  All randomness comes from one seeded
  :class:`~repro.traffic.generators.Lcg` stream consumed in call
  order, so a whole campaign's backoff schedule replays bit-identically
  from the seed (the determinism contract of the chaos suite).
* :class:`RetryPolicy` — a bounded attempt counter wrapping a backoff
  policy; it decides *whether* to retry, the broker decides *what*.
* :class:`CircuitBreaker` — the classic CLOSED → OPEN → HALF_OPEN
  machine, one per mesh region.  While open, the broker sheds load as
  typed ``admit_deferred`` outcomes instead of hammering a region that
  is failing; after a cooldown a single half-open probe decides
  between closing and re-opening.

Time is kernel cycles everywhere — the policies never look at a wall
clock (staticcheck rule DT002 applies to this module).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import ServiceConfigError
from ..traffic.generators import Lcg

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class BackoffPolicy:
    """Exponential backoff with seeded, deterministic jitter.

    Delay for attempt ``k`` (0-based) is
    ``min(cap, base << k) + jitter_k`` with ``jitter_k`` drawn
    uniformly from ``[0, jitter]`` off the policy's own Lcg stream.
    """

    def __init__(
        self,
        base_cycles: int,
        cap_cycles: int,
        jitter_cycles: int,
        seed: int,
    ) -> None:
        if base_cycles < 1:
            raise ServiceConfigError(
                f"backoff base must be >= 1, got {base_cycles}"
            )
        if cap_cycles < base_cycles:
            raise ServiceConfigError(
                f"backoff cap {cap_cycles} below base {base_cycles}"
            )
        if jitter_cycles < 0:
            raise ServiceConfigError(
                f"jitter must be >= 0, got {jitter_cycles}"
            )
        self.base_cycles = base_cycles
        self.cap_cycles = cap_cycles
        self.jitter_cycles = jitter_cycles
        self._rng = Lcg(seed)
        #: Every delay ever handed out, in order (audit trail for the
        #: determinism suite).
        self.history: List[int] = []

    def delay(self, attempt: int) -> int:
        """Cycles to wait before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ServiceConfigError(
                f"attempt must be >= 0, got {attempt}"
            )
        shift = min(attempt, 32)
        backoff = min(self.cap_cycles, self.base_cycles << shift)
        if self.jitter_cycles:
            backoff += self._rng.next_below(self.jitter_cycles + 1)
        self.history.append(backoff)
        return backoff


@dataclass
class RetryPolicy:
    """Bounded retries around one backoff policy.

    ``max_retries`` counts *re*-tries: an operation runs at most
    ``max_retries + 1`` times.
    """

    max_retries: int
    backoff: BackoffPolicy

    def should_retry(self, attempt: int) -> bool:
        """True when attempt number ``attempt`` (0-based) may be
        followed by another."""
        return attempt < self.max_retries


@dataclass
class BreakerStats:
    """Lifetime counters of one circuit breaker."""

    failures: int = 0
    successes: int = 0
    opened: int = 0
    shed: int = 0
    probes: int = 0


class CircuitBreaker:
    """CLOSED → OPEN → HALF_OPEN breaker for one mesh region.

    ``threshold`` *consecutive* failures open the circuit for
    ``cooldown_cycles``.  The first ``allow`` after the cooldown
    admits exactly one half-open probe; its success closes the
    circuit, its failure re-opens it for another full cooldown.
    """

    def __init__(
        self, region: str, threshold: int, cooldown_cycles: int
    ) -> None:
        if threshold < 1:
            raise ServiceConfigError(
                f"breaker threshold must be >= 1, got {threshold}"
            )
        if cooldown_cycles < 1:
            raise ServiceConfigError(
                f"breaker cooldown must be >= 1, got {cooldown_cycles}"
            )
        self.region = region
        self.threshold = threshold
        self.cooldown_cycles = cooldown_cycles
        self.state = CLOSED
        self.stats = BreakerStats()
        self._consecutive_failures = 0
        self._opened_at = -1
        self._probe_outstanding = False

    def allow(self, now: int) -> bool:
        """May the region accept a request at cycle ``now``?

        False means the broker must shed this request (typed
        ``admit_deferred``).  The method is state-advancing: an open
        circuit whose cooldown elapsed transitions to half-open and
        grants the one probe slot.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self._opened_at < self.cooldown_cycles:
                self.stats.shed += 1
                return False
            self.state = HALF_OPEN
            self._probe_outstanding = True
            self.stats.probes += 1
            return True
        # Half-open: exactly one probe in flight at a time.
        if self._probe_outstanding:
            self.stats.shed += 1
            return False
        self._probe_outstanding = True
        self.stats.probes += 1
        return True

    def record_success(self, now: int) -> None:
        """A region operation completed; closes a half-open circuit."""
        self.stats.successes += 1
        self._consecutive_failures = 0
        if self.state == HALF_OPEN:
            self.state = CLOSED
            self._probe_outstanding = False

    def record_failure(self, now: int) -> None:
        """A region operation failed; may open the circuit."""
        self.stats.failures += 1
        self._consecutive_failures += 1
        if self.state == HALF_OPEN or (
            self.state == CLOSED
            and self._consecutive_failures >= self.threshold
        ):
            self.state = OPEN
            self._opened_at = now
            self._probe_outstanding = False
            self._consecutive_failures = 0
            self.stats.opened += 1
