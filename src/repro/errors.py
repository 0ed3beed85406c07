"""Exception hierarchy for the daelite reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch any failure of the toolflow or the simulator with a single clause
while still being able to discriminate the precise cause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ParameterError(ReproError):
    """A network or component parameter is out of its legal range."""


class TopologyError(ReproError):
    """The requested topology is malformed or an element does not exist."""


class AllocationError(ReproError):
    """The slot allocator could not satisfy a connection request."""


class RoutingError(AllocationError):
    """No admissible path exists between two network interfaces."""


class SlotConflictError(AllocationError):
    """Two connections claim the same (link, slot) pair."""


class ScheduleError(ReproError):
    """A computed schedule violates the contention-free invariant."""


class ConfigurationError(ReproError):
    """The configuration network rejected or corrupted a request."""


class ConfigBusyError(ConfigurationError):
    """A configuration request was issued while another is outstanding."""


class ProtocolError(ConfigurationError):
    """A configuration packet is malformed or cannot be decoded."""


class ConfigTimeoutError(ConfigurationError):
    """A configuration request exhausted its bounded retries without
    completing — the config tree (or the addressed element) is unable
    to answer."""


class FaultInjectionError(ReproError):
    """A fault plan or injector was misused (unknown target element,
    out-of-range bit position, schedule in the past)."""


class SimulationError(ReproError):
    """The cycle simulator detected an inconsistency (e.g. word collision)."""


class StaticCheckError(ReproError):
    """The static-analysis driver itself was misused (unknown rule id,
    unreadable path, malformed suppression) — distinct from the findings
    it reports, which are data, not exceptions."""


class FlowControlError(SimulationError):
    """End-to-end credit accounting was violated."""


class StatsIntegrityError(SimulationError):
    """The statistics collector observed an impossible word lifecycle
    (ejection without injection, duplicate injection, out-of-order
    delivery) — the collector state is left untouched when raised."""


class TrafficError(ReproError):
    """A traffic generator or sink was misused."""


class ServiceError(ReproError):
    """Base class for the multi-tenant connection service
    (:mod:`repro.service`).  Request-path failures never surface as
    exceptions — they end in typed :class:`~repro.service.broker.
    ServiceOutcome` records — so a raised ``ServiceError`` always means
    the service API itself was misused."""


class LeaseError(ServiceError):
    """A lease operation targeted a label in an incompatible state
    (renewing an unknown, expired, or revoked lease; double release)."""


class CircuitOpenError(ServiceError):
    """An operation was forced through a region whose circuit breaker
    is open.  The broker's request path never raises this — open
    circuits shed to the typed ``admit_deferred`` outcome — so it only
    escapes from explicit ``force=True`` control-plane calls."""


class ServiceConfigError(ServiceError):
    """The service was constructed with a malformed knob (a
    non-positive shard count, a float where cycles are counted, a
    backoff cap below its base, a churn mix that sums to zero)."""

