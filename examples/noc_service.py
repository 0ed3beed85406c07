"""The NoC as a service: tenants lease guaranteed-throughput connections.

A :class:`ConnectionBroker` fronts a fleet of TDM meshes.  Tenants ask
for connections and get *leases* — admission is decided by the
closed-form oracle before any config-tree cycle is spent, each set-up
streams through the config tree, a circuit breaker sheds load from a
misbehaving region, and faults injected mid-churn are scrubbed and
replayed without a single raw exception reaching the caller.

Run:  python examples/noc_service.py
"""

from __future__ import annotations

from repro.alloc import ConnectionRequest
from repro.service import (
    AvailabilityHarness,
    ChurnEngine,
    ConnectionBroker,
    ServiceConfig,
    TenantRequest,
)
from repro.staticcheck import verify_network_state


def main() -> None:
    config = ServiceConfig(shards=2, lease_cycles=8_000)
    broker = ConnectionBroker.mesh_fleet(config=config, seed=42)
    print(
        f"fleet: {config.shards} shards, lease {config.lease_cycles} "
        f"cycles, breaker threshold {config.breaker_threshold}"
    )

    # -- one tenant, end to end ------------------------------------------------
    ask = TenantRequest(
        tenant="video",
        request=ConnectionRequest(
            "video.stream", "NI01", "NI11", forward_slots=2
        ),
        min_forward_slots=1,
    )
    outcome = broker.open(ask)
    shard = broker.shard_of_label(outcome.label)
    lease = shard.leases.get(outcome.label)
    print(
        f"open  : {outcome.status} on {outcome.region} in "
        f"{outcome.op_cycles} cycles, lease expires @{lease.expires_at}"
    )

    shard.network.run(1_000)
    renewed = broker.renew("video.stream")
    print(
        f"renew : {renewed.status}, lease now expires "
        f"@{shard.leases.get('video.stream').expires_at}"
    )

    # The config module sends set-up packets one at a time, so opening
    # several connections is a loop: queuing them would start none sooner.
    more = [
        broker.open(
            TenantRequest(
                tenant="video",
                request=ConnectionRequest(
                    f"video.aux{index}", "NI11", "NI10"
                ),
            )
        )
        for index in range(2)
    ]
    print(
        f"more  : {[item.status for item in more]} in "
        f"{[item.op_cycles for item in more]} cycles"
    )

    # -- a seeded churn campaign with faults armed -----------------------------
    churn = ChurnEngine(broker, seed=42, tenants=6, max_live=5)
    harness = AvailabilityHarness(
        broker,
        churn,
        seed=42,
        fault_every_ops=120,
        fault_horizon=900,
        link_failure_every_ops=180,
    )
    harness.run_campaign(400)
    report = harness.report()
    print(
        f"churn : {report.requests} requests, success "
        f"{report.success_rate:.4f}, {len(report.waves)} fault waves, "
        f"{len(report.link_failures)} link failures"
    )
    print(
        f"repair: p90 {report.repair_percentiles()['p90']} cycles, "
        f"goodput retained {report.goodput_retained:.3f}, "
        f"lease violations {report.lease_violations or 'none'}"
    )

    # Every fault was healed: the ledger and the programmed hardware
    # agree on every shard, with zero findings.
    for member in broker.shards:
        findings = verify_network_state(
            member.network,
            member.manager.live_handles,
            raise_on_error=False,
        )
        assert findings == [], findings
    print(
        f"verify: {len(broker.shards)} shards clean "
        f"(0 findings) — service state is provably consistent"
    )


if __name__ == "__main__":
    main()
