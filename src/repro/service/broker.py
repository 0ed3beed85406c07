"""The connection broker: multi-tenant admission over sharded meshes.

The broker turns the paper's fast connection set-up into a *service*:
tenants ask for connections, the broker answers with typed
:class:`ServiceOutcome` records — never exceptions.  Its request path
composes the repo's layers end to end:

1. **Sharding** — each :class:`ServiceShard` is an independent mesh
   region with its own allocator, config tree, and clock; a tenant maps
   to a shard by a stable CRC so placement replays from the tenant
   name alone.
2. **Oracle fast path** — admission is decided analytically by the
   shard's :class:`~repro.analysis.model.AdmissionOracle` *before* any
   packet moves; the oracle wraps the live allocator, so a "yes" is the
   exact plan the subsequent allocation realises.
3. **Degraded mode** — a rejected request retries admission at its
   declared slot floor (``served_degraded``); a region with an open
   circuit breaker sheds instead of queueing (``admit_deferred``).
4. **Resilience** — config-plane failures are retried under the seeded
   backoff policy; persistent failure feeds the region's breaker and
   ends in a typed refusal.

Leases tie it together: every admitted connection holds one, renewals
extend it, the sweep expires it, and unrecoverable faults revoke it
(the lease-violation SLO).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..alloc.spec import ConnectionRequest
from ..analysis.model import AdmissionOracle
from ..core.network import DaeliteNetwork
from ..core.online import OnlineConnectionManager, RecoveryReport
from ..errors import (
    AllocationError,
    CircuitOpenError,
    LeaseError,
    ReproError,
    ServiceError,
)
from ..params import NetworkParameters, daelite_parameters
from ..staticcheck import verify_network_state
from ..topology import build_mesh
from .config import ServiceConfig
from .leases import LeaseTable
from .policy import BackoffPolicy, CircuitBreaker, RetryPolicy

#: Outcome statuses that count as a served request for the SLO.
SUCCESS_STATUSES = frozenset(
    {
        "admitted",
        "served_degraded",
        "renewed",
        "released",
        "expired",
        "repaired",
    }
)
#: Every status a ServiceOutcome may carry (the degraded-mode taxonomy).
ALL_STATUSES = SUCCESS_STATUSES | {
    "admit_deferred",
    "rejected",
    "revoked",
}


@dataclass(frozen=True)
class TenantRequest:
    """One tenant's ask: a connection plus service parameters.

    Attributes:
        tenant: Stable tenant identifier (drives shard placement).
        request: The underlying connection request.
        lease_cycles: Lease duration override (service default if None).
        min_forward_slots: Slot floor the tenant will accept in
            degraded mode; equal to the requested slots means "full
            service or nothing".
    """

    tenant: str
    request: ConnectionRequest
    lease_cycles: Optional[int] = None
    min_forward_slots: int = 1

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ServiceError("tenant id must be non-empty")
        if not (
            1
            <= self.min_forward_slots
            <= self.request.forward_slots
        ):
            raise ServiceError(
                f"min_forward_slots {self.min_forward_slots} outside "
                f"[1, {self.request.forward_slots}]"
            )


@dataclass(frozen=True)
class ServiceOutcome:
    """The typed result of one service operation.

    Attributes:
        status: One of :data:`ALL_STATUSES`.
        label: Connection label the operation concerned.
        tenant: Owning tenant ("" for service-internal sweeps).
        region: Shard region that handled it.
        cycle: Shard-local cycle the outcome was decided.
        attempts: Execution attempts consumed (1 = no retry).
        op_cycles: Simulated cycles the operation itself took.
        reason: Refusal/degradation detail ("" on plain success).
    """

    status: str
    label: str
    tenant: str
    region: str
    cycle: int
    attempts: int = 1
    op_cycles: int = 0
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status in SUCCESS_STATUSES


@dataclass
class ServiceStats:
    """Aggregated service counters (the SLO numerators/denominators)."""

    requests: int = 0
    by_status: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    per_tenant_requests: Dict[str, int] = field(default_factory=dict)
    per_tenant_ok: Dict[str, int] = field(default_factory=dict)

    def record(self, outcome: ServiceOutcome) -> None:
        self.requests += 1
        self.by_status[outcome.status] = (
            self.by_status.get(outcome.status, 0) + 1
        )
        if outcome.tenant:
            self.per_tenant_requests[outcome.tenant] = (
                self.per_tenant_requests.get(outcome.tenant, 0) + 1
            )
            if outcome.ok:
                self.per_tenant_ok[outcome.tenant] = (
                    self.per_tenant_ok.get(outcome.tenant, 0) + 1
                )

    @property
    def ok_requests(self) -> int:
        return sum(
            count
            for status, count in self.by_status.items()
            if status in SUCCESS_STATUSES
        )

    def success_rate(self) -> float:
        """Fraction of requests that ended in a success status."""
        if self.requests == 0:
            return 1.0
        return self.ok_requests / self.requests

    def per_tenant_success(self) -> Dict[str, float]:
        """Success rate per tenant, tenants sorted."""
        return {
            tenant: (
                self.per_tenant_ok.get(tenant, 0)
                / self.per_tenant_requests[tenant]
            )
            for tenant in sorted(self.per_tenant_requests)
        }


class ServiceShard:
    """One mesh region: network, manager, oracle, breaker, leases."""

    def __init__(
        self,
        index: int,
        network: DaeliteNetwork,
        config: ServiceConfig,
        routing: str = "shortest",
        policy: str = "spread",
    ) -> None:
        self.index = index
        self.region = f"region{index}"
        self.network = network
        self.manager = OnlineConnectionManager(
            network,
            routing=routing,
            policy=policy,
            max_op_cycles=config.timeout_cycles,
        )
        self.oracle = AdmissionOracle(self.manager.allocator)
        self.breaker = CircuitBreaker(
            self.region,
            threshold=config.breaker_threshold,
            cooldown_cycles=config.breaker_cooldown_cycles,
        )
        self.leases = LeaseTable()
        #: NI names tenants may use as endpoints (host NI excluded —
        #: it owns the config module).
        self.endpoint_nis: Tuple[str, ...] = tuple(
            sorted(
                element.name
                for element in network.topology.nis
                if element.name != network.host_element
            )
        )

    @property
    def now(self) -> int:
        return self.network.kernel.cycle


def build_mesh_fleet(
    shards: int,
    rows: int = 2,
    cols: int = 2,
    params: Optional[NetworkParameters] = None,
    kernel_mode: Optional[str] = None,
) -> List[DaeliteNetwork]:
    """Construct ``shards`` identical mesh networks for a broker."""
    networks: List[DaeliteNetwork] = []
    for _ in range(shards):
        topology = build_mesh(rows, cols)
        networks.append(
            DaeliteNetwork(
                topology,
                params
                if params is not None
                else daelite_parameters(slot_table_size=8),
                host_ni="NI00",
                kernel_mode=kernel_mode,
            )
        )
    return networks


class ConnectionBroker:
    """Multi-tenant connection service over a fleet of mesh shards.

    The request path **never raises** for request-shaped failures:
    capacity, config-plane faults, open circuits, and lease conflicts
    all come back as typed :class:`ServiceOutcome` records.  Exceptions
    escape only for API misuse (unknown labels via :class:`LeaseError`
    surfaced as outcomes too, programmatic knob errors via
    :class:`~repro.errors.ServiceConfigError`).

    All randomness (backoff jitter) comes from one seeded Lcg stream
    per broker; all iteration is in sorted/submission order — a whole
    campaign replays bit-identically from ``(seed, op sequence)``.
    """

    def __init__(
        self,
        networks: Sequence[DaeliteNetwork],
        config: Optional[ServiceConfig] = None,
        seed: int = 0,
        routing: str = "shortest",
        policy: str = "spread",
    ) -> None:
        if not networks:
            raise ServiceError("broker needs at least one shard network")
        self.config = config if config is not None else ServiceConfig()
        self.seed = seed
        self.stats = ServiceStats()
        self.shards: List[ServiceShard] = [
            ServiceShard(
                index,
                network,
                self.config,
                routing=routing,
                policy=policy,
            )
            for index, network in enumerate(networks)
        ]
        self.backoff = BackoffPolicy(
            base_cycles=self.config.backoff_base_cycles,
            cap_cycles=self.config.backoff_cap_cycles,
            jitter_cycles=self.config.jitter_cycles,
            seed=seed,
        )
        self.retry = RetryPolicy(
            max_retries=self.config.max_retries, backoff=self.backoff
        )
        self._label_shard: Dict[str, ServiceShard] = {}
        self._label_tenant: Dict[str, str] = {}
        #: Labels whose set-up was interrupted and replayed (audit).
        self.replayed_labels: List[str] = []

    @classmethod
    def mesh_fleet(
        cls,
        config: Optional[ServiceConfig] = None,
        seed: int = 0,
        rows: int = 2,
        cols: int = 2,
        params: Optional[NetworkParameters] = None,
        kernel_mode: Optional[str] = None,
    ) -> "ConnectionBroker":
        """Build a broker over ``config.shards`` identical meshes."""
        resolved = config if config is not None else ServiceConfig()
        networks = build_mesh_fleet(
            resolved.shards,
            rows=rows,
            cols=cols,
            params=params,
            kernel_mode=kernel_mode,
        )
        return cls(networks, config=resolved, seed=seed)

    # -- placement ---------------------------------------------------------------

    def shard_for(self, tenant: str) -> ServiceShard:
        """Stable tenant → shard placement (CRC32, not ``hash()``, so
        placement is identical across interpreter runs)."""
        digest = zlib.crc32(tenant.encode("utf-8"))
        return self.shards[digest % len(self.shards)]

    def shard_of_label(self, label: str) -> ServiceShard:
        """The shard holding an admitted label.

        Raises:
            ServiceError: if the label was never admitted here.
        """
        shard = self._label_shard.get(label)
        if shard is None:
            raise ServiceError(f"label {label!r} is not service-managed")
        return shard

    # -- request path ------------------------------------------------------------

    def open(
        self, ask: TenantRequest, force: bool = False
    ) -> ServiceOutcome:
        """Admit, configure, and lease one connection.

        Returns a typed outcome: ``admitted``, ``served_degraded``
        (slot floor engaged), ``admit_deferred`` (circuit open), or
        ``rejected`` (no capacity / persistent config failure).

        Raises:
            CircuitOpenError: only when ``force=True`` pushes past an
                open breaker and the caller asked for strict semantics.
        """
        shard = self.shard_for(ask.tenant)
        now = shard.now
        if not shard.breaker.allow(now):
            if force:
                raise CircuitOpenError(
                    f"{shard.region} circuit is open"
                )
            outcome = ServiceOutcome(
                status="admit_deferred",
                label=ask.request.label,
                tenant=ask.tenant,
                region=shard.region,
                cycle=now,
                reason=f"{shard.region} circuit breaker is open",
            )
            self.stats.record(outcome)
            return outcome
        request = ask.request
        degraded_reason = ""
        verdict = shard.oracle.admit(request)
        if not verdict.admitted:
            fallback = self._degraded_request(ask)
            if fallback is not None:
                degraded_verdict = shard.oracle.admit(fallback)
                if degraded_verdict.admitted:
                    degraded_reason = (
                        f"degraded to {fallback.forward_slots} forward "
                        f"slot(s): {verdict.reason}"
                    )
                    request = fallback
                    verdict = degraded_verdict
        if not verdict.admitted:
            outcome = ServiceOutcome(
                status="rejected",
                label=ask.request.label,
                tenant=ask.tenant,
                region=shard.region,
                cycle=shard.now,
                reason=verdict.reason,
            )
            self.stats.record(outcome)
            return outcome
        outcome = self._execute_open(shard, ask, request, degraded_reason)
        self.stats.record(outcome)
        return outcome

    def _degraded_request(
        self, ask: TenantRequest
    ) -> Optional[ConnectionRequest]:
        """The slot-floor fallback, or None when the ask is already
        at its floor."""
        if ask.min_forward_slots >= ask.request.forward_slots:
            return None
        return ConnectionRequest(
            ask.request.label,
            ask.request.src_ni,
            ask.request.dst_ni,
            forward_slots=ask.min_forward_slots,
            reverse_slots=ask.request.reverse_slots,
        )

    def _execute_open(
        self,
        shard: ServiceShard,
        ask: TenantRequest,
        request: ConnectionRequest,
        degraded_reason: str,
    ) -> ServiceOutcome:
        """Run the admitted set-up with bounded retry + backoff."""
        attempt = 0
        while True:
            started = shard.now
            try:
                record = shard.manager.open_connection(request)
            except AllocationError as error:
                # The oracle probes the same allocator, so capacity
                # cannot have changed under us within one op — this is
                # a genuine refusal, not a transient.
                shard.breaker.record_failure(shard.now)
                return ServiceOutcome(
                    status="rejected",
                    label=request.label,
                    tenant=ask.tenant,
                    region=shard.region,
                    cycle=shard.now,
                    attempts=attempt + 1,
                    reason=f"{type(error).__name__}: {error}",
                )
            except ReproError as error:
                # Config-plane trouble (timeout, corrupted response,
                # simulation budget): transient — retry under backoff.
                if self.retry.should_retry(attempt):
                    self.stats.retries += 1
                    shard.network.run(self.backoff.delay(attempt))
                    attempt += 1
                    continue
                shard.breaker.record_failure(shard.now)
                return ServiceOutcome(
                    status="rejected",
                    label=request.label,
                    tenant=ask.tenant,
                    region=shard.region,
                    cycle=shard.now,
                    attempts=attempt + 1,
                    reason=f"{type(error).__name__}: {error}",
                )
            shard.breaker.record_success(shard.now)
            duration = (
                ask.lease_cycles
                if ask.lease_cycles is not None
                else self.config.lease_cycles
            )
            shard.leases.grant(
                request.label, ask.tenant, shard.now, duration
            )
            self._label_shard[request.label] = shard
            self._label_tenant[request.label] = ask.tenant
            return ServiceOutcome(
                status=(
                    "served_degraded" if degraded_reason else "admitted"
                ),
                label=request.label,
                tenant=ask.tenant,
                region=shard.region,
                cycle=shard.now,
                attempts=attempt + 1,
                op_cycles=shard.now - started,
                reason=degraded_reason,
            )

    def open_batch(
        self, asks: Sequence[TenantRequest]
    ) -> List[ServiceOutcome]:
        """Admit a same-shard batch in one config-tree pass.

        Every ask must map to the same shard (one config tree to
        batch on).  Oracle-rejected asks get individual ``rejected``
        outcomes; the remainder is set up via
        :meth:`~repro.core.online.OnlineConnectionManager.
        open_connections_batched`, falling back to per-request opens
        (with their full retry machinery) if the batch itself fails.

        Raises:
            ServiceError: if the batch is empty or spans shards.
        """
        if not asks:
            raise ServiceError("empty batch")
        shard = self.shard_for(asks[0].tenant)
        for ask in asks[1:]:
            if self.shard_for(ask.tenant) is not shard:
                raise ServiceError(
                    "batch spans shards; split it per region"
                )
        outcomes: List[ServiceOutcome] = []
        admitted: List[TenantRequest] = []
        if not shard.breaker.allow(shard.now):
            for ask in asks:
                outcome = ServiceOutcome(
                    status="admit_deferred",
                    label=ask.request.label,
                    tenant=ask.tenant,
                    region=shard.region,
                    cycle=shard.now,
                    reason=f"{shard.region} circuit breaker is open",
                )
                self.stats.record(outcome)
                outcomes.append(outcome)
            return outcomes
        for ask in asks:
            verdict = shard.oracle.admit(ask.request)
            if verdict.admitted:
                admitted.append(ask)
            else:
                outcome = ServiceOutcome(
                    status="rejected",
                    label=ask.request.label,
                    tenant=ask.tenant,
                    region=shard.region,
                    cycle=shard.now,
                    reason=verdict.reason,
                )
                self.stats.record(outcome)
                outcomes.append(outcome)
        if not admitted:
            return outcomes
        try:
            records = shard.manager.open_connections_batched(
                [ask.request for ask in admitted]
            )
        except ReproError:
            # Batch path failed as a unit; fall back to the per-request
            # path, which owns retry/backoff and typed refusals.
            outcomes.extend(self.open(ask) for ask in admitted)
            return outcomes
        shard.breaker.record_success(shard.now)
        for ask, record in zip(admitted, records):
            duration = (
                ask.lease_cycles
                if ask.lease_cycles is not None
                else self.config.lease_cycles
            )
            shard.leases.grant(
                record.request.label, ask.tenant, shard.now, duration
            )
            self._label_shard[record.request.label] = shard
            self._label_tenant[record.request.label] = ask.tenant
            outcome = ServiceOutcome(
                status="admitted",
                label=record.request.label,
                tenant=ask.tenant,
                region=shard.region,
                cycle=shard.now,
                op_cycles=record.setup_cycles,
            )
            self.stats.record(outcome)
            outcomes.append(outcome)
        return outcomes

    # -- lease lifecycle ---------------------------------------------------------

    def renew(self, label: str) -> ServiceOutcome:
        """Extend an active lease by the service default duration."""
        try:
            shard = self.shard_of_label(label)
        except ServiceError as error:
            outcome = ServiceOutcome(
                status="rejected",
                label=label,
                tenant="",
                region="",
                cycle=0,
                reason=str(error),
            )
            self.stats.record(outcome)
            return outcome
        tenant = self._label_tenant.get(label, "")
        try:
            shard.leases.renew(
                label, shard.now, self.config.lease_cycles
            )
        except LeaseError as error:
            outcome = ServiceOutcome(
                status="rejected",
                label=label,
                tenant=tenant,
                region=shard.region,
                cycle=shard.now,
                reason=f"LeaseError: {error}",
            )
            self.stats.record(outcome)
            return outcome
        outcome = ServiceOutcome(
            status="renewed",
            label=label,
            tenant=tenant,
            region=shard.region,
            cycle=shard.now,
        )
        self.stats.record(outcome)
        return outcome

    def release(self, label: str) -> ServiceOutcome:
        """Tenant-requested teardown of a leased connection."""
        return self._teardown(label, "released", "")

    def _teardown(
        self, label: str, status: str, reason: str
    ) -> ServiceOutcome:
        try:
            shard = self.shard_of_label(label)
        except ServiceError as error:
            outcome = ServiceOutcome(
                status="rejected",
                label=label,
                tenant="",
                region="",
                cycle=0,
                reason=str(error),
            )
            self.stats.record(outcome)
            return outcome
        tenant = self._label_tenant.get(label, "")
        try:
            op_cycles = shard.manager.close_connection(label)
            if status == "released":
                shard.leases.release(label)
            elif status == "expired":
                lease = shard.leases.get(label)
                if lease.state == "active":
                    lease.state = "expired"
        except (ReproError, LeaseError) as error:
            outcome = ServiceOutcome(
                status="rejected",
                label=label,
                tenant=tenant,
                region=shard.region,
                cycle=shard.now,
                reason=f"{type(error).__name__}: {error}",
            )
            self.stats.record(outcome)
            return outcome
        finally:
            self._label_shard.pop(label, None)
            self._label_tenant.pop(label, None)
        outcome = ServiceOutcome(
            status=status,
            label=label,
            tenant=tenant,
            region=shard.region,
            cycle=shard.now,
            op_cycles=op_cycles,
            reason=reason,
        )
        self.stats.record(outcome)
        return outcome

    def sweep_expired(self) -> List[ServiceOutcome]:
        """Expire overdue leases and tear their connections down.

        Shards are visited in index order, labels in sorted order —
        the sweep is deterministic.
        """
        outcomes: List[ServiceOutcome] = []
        for shard in self.shards:
            for lease in shard.leases.sweep_expired(shard.now):
                outcomes.append(
                    self._teardown(
                        lease.label,
                        "expired",
                        f"lease expired at {lease.expires_at}",
                    )
                )
        return outcomes

    # -- fault surface -----------------------------------------------------------

    def repair(self, label: str) -> ServiceOutcome:
        """Idempotently replay a connection's set-up (soft-fault heal)."""
        try:
            shard = self.shard_of_label(label)
        except ServiceError as error:
            outcome = ServiceOutcome(
                status="rejected",
                label=label,
                tenant="",
                region="",
                cycle=0,
                reason=str(error),
            )
            self.stats.record(outcome)
            return outcome
        tenant = self._label_tenant.get(label, "")
        try:
            op_cycles = shard.manager.repair_connection(label)
        except ReproError as error:
            shard.breaker.record_failure(shard.now)
            if label not in shard.manager.connections:
                # Repair lost the race to a concurrent teardown: the
                # connection is gone, so the lease must not outlive it.
                try:
                    shard.leases.revoke(label, shard.now, str(error))
                except LeaseError:
                    pass  # already terminal
                self._label_shard.pop(label, None)
                self._label_tenant.pop(label, None)
            outcome = ServiceOutcome(
                status="rejected",
                label=label,
                tenant=tenant,
                region=shard.region,
                cycle=shard.now,
                reason=f"{type(error).__name__}: {error}",
            )
            self.stats.record(outcome)
            return outcome
        shard.breaker.record_success(shard.now)
        self.replayed_labels.append(label)
        outcome = ServiceOutcome(
            status="repaired",
            label=label,
            tenant=tenant,
            region=shard.region,
            cycle=shard.now,
            op_cycles=op_cycles,
        )
        self.stats.record(outcome)
        return outcome

    def handle_link_failure(
        self, shard_index: int, edge: Tuple[str, str]
    ) -> Tuple[RecoveryReport, List[ServiceOutcome]]:
        """Recover a shard's connections off a dead link.

        Recovered labels become ``repaired`` outcomes; unrecoverable
        ones are **revoked** — their lease ends early (a lease
        violation) and their slots are already released by the
        manager's typed recovery path.
        """
        shard = self.shards[shard_index]
        report = shard.manager.handle_link_failure(edge)
        outcomes: List[ServiceOutcome] = []
        for recovery in report.outcomes:
            tenant = self._label_tenant.get(recovery.label, "")
            if recovery.recovered:
                shard.breaker.record_success(shard.now)
                outcome = ServiceOutcome(
                    status="repaired",
                    label=recovery.label,
                    tenant=tenant,
                    region=shard.region,
                    cycle=shard.now,
                    op_cycles=recovery.total_cycles,
                    reason=f"rerouted around {edge}",
                )
            else:
                shard.breaker.record_failure(shard.now)
                try:
                    shard.leases.revoke(
                        recovery.label, shard.now, recovery.error
                    )
                except LeaseError:
                    pass  # service-external label: nothing leased
                self._label_shard.pop(recovery.label, None)
                self._label_tenant.pop(recovery.label, None)
                outcome = ServiceOutcome(
                    status="revoked",
                    label=recovery.label,
                    tenant=tenant,
                    region=shard.region,
                    cycle=shard.now,
                    op_cycles=recovery.total_cycles,
                    reason=recovery.error,
                )
            self.stats.record(outcome)
            outcomes.append(outcome)
        return report, outcomes

    def scrub(self, shard_index: int) -> Tuple[int, List[ServiceOutcome]]:
        """Model-check one shard and heal any divergence by replay.

        Runs :func:`~repro.staticcheck.verify_network_state` (a pure
        model check — no simulation) against the shard's live handles;
        on findings, every live connection is idempotently replayed
        and the state re-verified.  Returns the finding count and the
        repair outcomes.
        """
        shard = self.shards[shard_index]
        findings = verify_network_state(
            shard.network,
            shard.manager.live_handles,
            raise_on_error=False,
        )
        outcomes: List[ServiceOutcome] = []
        if findings:
            for label in sorted(shard.manager.connections):
                outcomes.append(self.repair(label))
        return len(findings), outcomes

    # -- introspection -----------------------------------------------------------

    def lease_violations(self) -> Dict[str, int]:
        """Lease violations per tenant across all shards."""
        merged: Dict[str, int] = {}
        for shard in self.shards:
            for tenant, count in shard.leases.violations_by_tenant().items():
                merged[tenant] = merged.get(tenant, 0) + count
        return dict(sorted(merged.items()))

    def live_labels(self) -> List[str]:
        """All service-managed labels currently configured, sorted."""
        return sorted(self._label_shard)

    def claimed_slots(self) -> int:
        """Total (link, slot) claims across the fleet."""
        return sum(
            shard.manager.claimed_slots for shard in self.shards
        )

    def cache_telemetry(self) -> Dict[str, int]:
        """Fleet-wide compiler-cache counters from the kernels.

        Summed across shards under stable keys (dashboards and the
        benchmark harness map them one-to-one); the per-shard numbers
        stay available via ``kernel_stats()``.  A shard carries
        configuration traffic only — no generator, no sink, no data word
        — so nothing is ever replayed and the three regime counters read
        0 under churn.  The lowering counters do move: a shard's set-up
        waits run on the compiled engine, which lowers the traffic-free
        network (the harness's ``service_churn`` run reads lowering hits
        / misses 1 / 7).
        """
        merged = {
            "lowering_cache_hits": 0,
            "lowering_cache_misses": 0,
            "regime_cache_hits": 0,
            "regime_cache_stores": 0,
            "regimes_detected": 0,
        }
        for shard in self.shards:
            stats = shard.network.kernel.kernel_stats()
            for key in merged:
                merged[key] += stats[key]
        return merged
