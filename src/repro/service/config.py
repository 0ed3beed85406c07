"""Service knobs: one validated dataclass, never silent truncation.

The operating parameters of the connection service are the fields of
:class:`ServiceConfig`, set by the caller's code — a bad one is a bug,
so it raises :class:`~repro.errors.ServiceConfigError` immediately.

All knobs are integers in *cycles* (the simulated clock is the only
clock the service knows) and go through :func:`operator.index`, so a
float that ``int()`` would silently truncate is refused instead.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Tuple

from ..errors import ServiceConfigError

#: (field name, lo, hi) for every knob.
_RANGES: Tuple[Tuple[str, int, int], ...] = (
    ("shards", 1, 64),
    ("timeout_cycles", 1_000, 10_000_000),
    ("max_retries", 0, 16),
    ("backoff_base_cycles", 1, 1_000_000),
    ("backoff_cap_cycles", 1, 10_000_000),
    ("jitter_cycles", 0, 100_000),
    ("lease_cycles", 100, 1_000_000_000),
    ("breaker_threshold", 1, 1_024),
    ("breaker_cooldown_cycles", 1, 1_000_000_000),
)


@dataclass(frozen=True)
class ServiceConfig:
    """Validated operating parameters of the service.

    Attributes:
        shards: Independent mesh regions (allocator shards).
        timeout_cycles: Per-operation simulation budget.
        max_retries: Transient-failure retries per operation.
        backoff_base_cycles: First retry delay (doubles per attempt).
        backoff_cap_cycles: Ceiling on any single backoff delay.
        jitter_cycles: Seeded uniform jitter added to each delay.
        lease_cycles: Default lease duration for admitted connections.
        breaker_threshold: Consecutive failures that open a region's
            circuit breaker.
        breaker_cooldown_cycles: Open time before a half-open probe.
    """

    shards: int = 1
    timeout_cycles: int = 50_000
    max_retries: int = 3
    backoff_base_cycles: int = 64
    backoff_cap_cycles: int = 4_096
    jitter_cycles: int = 16
    lease_cycles: int = 40_000
    breaker_threshold: int = 4
    breaker_cooldown_cycles: int = 10_000

    def __post_init__(self) -> None:
        for name, lo, hi in _RANGES:
            value = getattr(self, name)
            try:
                indexed = operator.index(value)
            except TypeError as exc:
                raise ServiceConfigError(
                    f"service knob {name}={value!r} is not an integer"
                ) from exc
            if indexed != value:
                object.__setattr__(self, name, indexed)
            if not lo <= indexed <= hi:
                raise ServiceConfigError(
                    f"service knob {name}={indexed} outside [{lo}, {hi}]"
                )
        if self.backoff_cap_cycles < self.backoff_base_cycles:
            raise ServiceConfigError(
                f"backoff cap {self.backoff_cap_cycles} below base "
                f"{self.backoff_base_cycles}"
            )
