"""Availability under fire: fault campaigns armed during live churn.

The harness interleaves a :class:`~repro.service.churn.ChurnEngine`
workload with seeded :class:`~repro.faults.FaultInjector` waves and
occasional hard link failures, then condenses what happened into the
per-tenant SLOs the ROADMAP's fleet-scale north star asks for:

* **request success rate** — typed-success outcomes over all requests;
* **time-to-repair distribution** — cycles from the end of each fault
  wave to a clean :func:`~repro.staticcheck.verify_network_state`
  (healing is idempotent set-up replay through the config tree);
* **lease violations** — leases the service revoked before expiry;
* **goodput retained** — success rate of ops landing inside fault
  windows relative to ops outside them.

Everything is seeded and cycle-clocked; a campaign digest is a pure
function of ``(seed, broker shape, schedule)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ServiceConfigError, ServiceError
from ..faults import FaultInjector, random_fault_plan
from ..traffic.generators import Lcg
from .broker import ConnectionBroker
from .churn import ChurnEngine


@dataclass
class FaultWave:
    """One injected fault wave and its repair accounting."""

    index: int
    shard_index: int
    armed_at: int
    horizon: int
    table_upsets: int
    config_corrupts: int
    findings: int = 0
    repair_outcomes: int = 0
    time_to_repair: int = 0
    clean: bool = False


@dataclass
class LinkFailureEvent:
    """One hard link failure pushed through the recovery path."""

    shard_index: int
    edge: Tuple[str, str]
    recovered: int
    revoked: int
    total_cycles: int


@dataclass
class AvailabilityReport:
    """The campaign's SLO summary (JSON-ready via :meth:`payload`)."""

    ops: int
    requests: int
    success_rate: float
    per_tenant_success: Dict[str, float]
    lease_violations: Dict[str, int]
    time_to_repair_cycles: List[int]
    goodput_retained: float
    status_counts: Dict[str, int]
    retries: int
    breaker_opens: int
    waves: List[FaultWave] = field(default_factory=list)
    link_failures: List[LinkFailureEvent] = field(default_factory=list)

    def repair_percentiles(self) -> Dict[str, int]:
        """p50/p90/max of the time-to-repair distribution (cycles)."""
        if not self.time_to_repair_cycles:
            return {"p50": 0, "p90": 0, "max": 0}
        ordered = sorted(self.time_to_repair_cycles)
        last = len(ordered) - 1
        return {
            "p50": ordered[last // 2],
            "p90": ordered[(last * 9) // 10],
            "max": ordered[-1],
        }

    def payload(self) -> Dict[str, object]:
        """A JSON-serialisable view for ``BENCH_availability.json``."""
        return {
            "ops": self.ops,
            "requests": self.requests,
            "success_rate": self.success_rate,
            "per_tenant_success": self.per_tenant_success,
            "lease_violations": self.lease_violations,
            "time_to_repair_cycles": self.time_to_repair_cycles,
            "time_to_repair_percentiles": self.repair_percentiles(),
            "goodput_retained": self.goodput_retained,
            "status_counts": self.status_counts,
            "retries": self.retries,
            "breaker_opens": self.breaker_opens,
            "fault_waves": len(self.waves),
            "link_failures": [
                {
                    "shard": event.shard_index,
                    "edge": list(event.edge),
                    "recovered": event.recovered,
                    "revoked": event.revoked,
                    "total_cycles": event.total_cycles,
                }
                for event in self.link_failures
            ],
        }


class AvailabilityHarness:
    """Runs churn with fault waves armed mid-flight, then scores SLOs."""

    def __init__(
        self,
        broker: ConnectionBroker,
        churn: ChurnEngine,
        seed: int = 0,
        fault_every_ops: int = 200,
        fault_horizon: int = 1_500,
        table_upsets: int = 2,
        config_corrupts: int = 1,
        link_failure_every_ops: Optional[int] = None,
    ) -> None:
        if churn.broker is not broker:
            raise ServiceError(
                "churn engine is bound to a different broker"
            )
        if fault_every_ops < 1:
            raise ServiceConfigError(
                f"fault_every_ops must be >= 1, got {fault_every_ops}"
            )
        if fault_horizon < 1:
            raise ServiceConfigError(
                f"fault_horizon must be >= 1, got {fault_horizon}"
            )
        if link_failure_every_ops is not None and (
            link_failure_every_ops < 1
        ):
            raise ServiceConfigError(
                "link_failure_every_ops must be >= 1, got "
                f"{link_failure_every_ops}"
            )
        self.broker = broker
        self.churn = churn
        self.seed = seed
        self.rng = Lcg(seed ^ 0x5EED_FA17)
        self.fault_every_ops = fault_every_ops
        self.fault_horizon = fault_horizon
        self.table_upsets = table_upsets
        self.config_corrupts = config_corrupts
        self.link_failure_every_ops = link_failure_every_ops
        self.waves: List[FaultWave] = []
        self.link_failures: List[LinkFailureEvent] = []
        #: Churn-op indices that executed inside a fault window.
        self._ops_in_waves: set[int] = set()

    # -- fault scheduling --------------------------------------------------------

    def _run_wave(self, wave_index: int) -> FaultWave:
        """Arm a seeded fault plan on one shard, churn through its
        window, heal by scrub-and-replay, and time the repair."""
        shard_index = wave_index % len(self.broker.shards)
        shard = self.broker.shards[shard_index]
        armed_at = shard.now
        plan = random_fault_plan(
            self.seed + 7_919 * (wave_index + 1),
            shard.network,
            horizon=self.fault_horizon,
            start_cycle=armed_at + 1,
            table_upsets=self.table_upsets,
            config_corrupts=self.config_corrupts,
        )
        wave = FaultWave(
            index=wave_index,
            shard_index=shard_index,
            armed_at=armed_at,
            horizon=self.fault_horizon,
            table_upsets=self.table_upsets,
            config_corrupts=self.config_corrupts,
        )
        injector = FaultInjector(shard.network, plan)
        injector.arm()
        try:
            # Live churn *during* the window: a half-interval of ops.
            for _ in range(max(1, self.fault_every_ops // 2)):
                self._ops_in_waves.add(self.churn.ops_run)
                self.churn.step()
            # Let every scheduled fault land before disarming.
            remaining = armed_at + 1 + self.fault_horizon - shard.now
            if remaining > 0:
                shard.network.run(remaining)
        finally:
            injector.disarm()
        repair_started = shard.now
        findings, outcomes = self.broker.scrub(shard_index)
        wave.findings = findings
        wave.repair_outcomes = len(outcomes)
        residual, _ = self.broker.scrub(shard_index)
        wave.clean = residual == 0
        wave.time_to_repair = shard.now - repair_started
        self.waves.append(wave)
        return wave

    def _run_link_failure(self) -> Optional[LinkFailureEvent]:
        """Fail one random router-router edge, recover through the
        broker, then restore the link (the fabric is repaired but the
        rerouted connections stay on their detours)."""
        shard_index = self.rng.next_below(len(self.broker.shards))
        shard = self.broker.shards[shard_index]
        topology = shard.network.topology
        candidates = sorted(
            {
                tuple(sorted((a, b)))
                for a, b in topology.links()
                if a.startswith("R")
                and b.startswith("R")
                and not topology.link_is_failed(a, b)
            }
        )
        if not candidates:
            return None
        a, b = candidates[self.rng.next_below(len(candidates))]
        report, outcomes = self.broker.handle_link_failure(
            shard_index, (a, b)
        )
        topology.restore_link(a, b)
        event = LinkFailureEvent(
            shard_index=shard_index,
            edge=(a, b),
            recovered=len(report.recovered),
            revoked=len(report.failed),
            total_cycles=report.total_cycles,
        )
        self.link_failures.append(event)
        return event

    # -- campaign ----------------------------------------------------------------

    def run_campaign(self, ops: int) -> AvailabilityReport:
        """Run ``ops`` churn operations with periodic fault waves.

        Every failure path ends in a typed outcome — the campaign
        itself never raises for request-shaped trouble; an exception
        escaping this method is a service bug by definition.
        """
        wave_index = 0
        while self.churn.ops_run < ops:
            self.churn.step()
            if self.churn.ops_run % self.fault_every_ops == 0 and (
                self.churn.ops_run < ops
            ):
                self._run_wave(wave_index)
                wave_index += 1
            if (
                self.link_failure_every_ops is not None
                and self.churn.ops_run % self.link_failure_every_ops
                == 0
            ):
                self._run_link_failure()
        return self.report()

    # -- scoring -----------------------------------------------------------------

    def _goodput_retained(self) -> float:
        """Success rate inside fault windows over the rate outside."""
        inside_ok = inside_total = 0
        outside_ok = outside_total = 0
        for record in self.churn.records:
            in_wave = record.index in self._ops_in_waves
            for outcome in record.outcomes:
                if in_wave:
                    inside_total += 1
                    inside_ok += int(outcome.ok)
                else:
                    outside_total += 1
                    outside_ok += int(outcome.ok)
        if inside_total == 0:
            return 1.0
        inside_rate = inside_ok / inside_total
        if outside_total == 0:
            return inside_rate
        outside_rate = outside_ok / outside_total
        if outside_rate == 0.0:
            return 1.0 if inside_rate == 0.0 else float("inf")
        return inside_rate / outside_rate

    def report(self) -> AvailabilityReport:
        """Condense the campaign into its SLO report."""
        stats = self.broker.stats
        return AvailabilityReport(
            ops=self.churn.ops_run,
            requests=stats.requests,
            success_rate=stats.success_rate(),
            per_tenant_success=stats.per_tenant_success(),
            lease_violations=self.broker.lease_violations(),
            time_to_repair_cycles=[
                wave.time_to_repair for wave in self.waves
            ],
            goodput_retained=self._goodput_retained(),
            status_counts=dict(sorted(stats.by_status.items())),
            retries=stats.retries,
            breaker_opens=sum(
                shard.breaker.stats.opened
                for shard in self.broker.shards
            ),
            waves=list(self.waves),
            link_failures=list(self.link_failures),
        )
