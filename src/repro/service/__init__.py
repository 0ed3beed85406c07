"""NoC as a service: the multi-tenant connection control plane.

This package turns the repo's primitives — bitmask slot allocation,
the admission oracle, online set-up/teardown, fault recovery — into a
resilient service (DESIGN.md §13):

* :class:`ConnectionBroker` — sharded admission with an oracle fast
  path, typed degraded modes, bounded retry, circuit breaking.
* :class:`LeaseTable` — connection leases: expiry, renewal,
  revocation-on-failure.
* :class:`ChurnEngine` — seeded, deterministic tenant workload.
* :class:`AvailabilityHarness` — fault campaigns during live churn,
  scored as per-tenant SLOs.
"""

from .availability import (
    AvailabilityHarness,
    AvailabilityReport,
    FaultWave,
    LinkFailureEvent,
)
from .broker import (
    ALL_STATUSES,
    SUCCESS_STATUSES,
    ConnectionBroker,
    ServiceOutcome,
    ServiceShard,
    ServiceStats,
    TenantRequest,
    build_mesh_fleet,
)
from .churn import ChurnEngine, ChurnMix, ChurnRecord
from .config import ServiceConfig
from .leases import Lease, LeaseTable
from .policy import BackoffPolicy, CircuitBreaker, RetryPolicy

__all__ = [
    "ALL_STATUSES",
    "SUCCESS_STATUSES",
    "AvailabilityHarness",
    "AvailabilityReport",
    "BackoffPolicy",
    "ChurnEngine",
    "ChurnMix",
    "ChurnRecord",
    "CircuitBreaker",
    "ConnectionBroker",
    "FaultWave",
    "Lease",
    "LeaseTable",
    "LinkFailureEvent",
    "RetryPolicy",
    "ServiceConfig",
    "ServiceOutcome",
    "ServiceShard",
    "ServiceStats",
    "TenantRequest",
    "build_mesh_fleet",
]
