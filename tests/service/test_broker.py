"""ConnectionBroker: admission, degraded modes, leases, recovery."""

from __future__ import annotations

import pytest

from repro.alloc import ConnectionRequest
from repro.errors import CircuitOpenError, ServiceError
from repro.service import (
    ConnectionBroker,
    ServiceConfig,
    TenantRequest,
    build_mesh_fleet,
)
from repro.staticcheck import verify_network_state


def make_broker(shards=1, **knobs):
    config = ServiceConfig(shards=shards, **knobs)
    return ConnectionBroker(
        build_mesh_fleet(shards), config=config, seed=1
    )


def ask(tenant, label, src="NI01", dst="NI11", slots=1, floor=1):
    return TenantRequest(
        tenant=tenant,
        request=ConnectionRequest(
            label, src, dst, forward_slots=slots
        ),
        min_forward_slots=floor,
    )


class TestAdmission:
    def test_open_admits_and_leases(self):
        broker = make_broker()
        outcome = broker.open(ask("tenantA", "c1"))
        assert outcome.status == "admitted"
        assert outcome.ok
        assert outcome.op_cycles > 0
        shard = broker.shard_of_label("c1")
        lease = shard.leases.get("c1")
        assert lease.tenant == "tenantA"
        assert lease.live(shard.now)
        assert broker.live_labels() == ["c1"]
        verify_network_state(
            shard.network, shard.manager.live_handles
        )

    def test_oracle_rejection_is_typed(self):
        broker = make_broker()
        # Saturate the NI01->NI11 direction, then ask again.
        outcomes = []
        for index in range(12):
            outcomes.append(
                broker.open(
                    ask("tenantA", f"c{index}", slots=2, floor=2)
                )
            )
        statuses = {outcome.status for outcome in outcomes}
        assert "rejected" in statuses
        rejected = [o for o in outcomes if o.status == "rejected"]
        assert all(outcome.reason for outcome in rejected)
        # Ledger stayed consistent: no claim leaked from a rejection.
        shard = broker.shards[0]
        verify_network_state(
            shard.network, shard.manager.live_handles
        )

    def test_degraded_fallback_engages_slot_floor(self):
        broker = make_broker()
        # Claim 7 of the 8 slots on the NI01->NI11 direction, then ask
        # for 2 with a floor of 1: only the degraded shape fits.
        for index in range(3):
            assert (
                broker.open(
                    ask("tenantA", f"fat{index}", slots=2, floor=2)
                ).status
                == "admitted"
            )
        assert broker.open(ask("tenantA", "pad")).status == "admitted"
        outcome = broker.open(ask("tenantA", "thin", slots=2, floor=1))
        assert outcome.status == "served_degraded"
        assert "degraded to 1 forward slot" in outcome.reason
        record = broker.shard_of_label(outcome.label).manager.connections[
            outcome.label
        ]
        assert record.request.forward_slots == 1

    def test_unroutable_pair_rejected_typed(self):
        broker = ConnectionBroker.mesh_fleet(ServiceConfig(shards=1))
        broker.shards[0].network.topology.fail_link("NI11", "R11")
        outcome = broker.open(ask("tenantA", "c1", src="NI00"))
        assert outcome.status == "rejected"
        assert outcome.reason == "no path 'NI00' -> 'NI11'"
        assert broker.stats.requests == 1
        assert broker.stats.by_status == {"rejected": 1}
        assert broker.live_labels() == []

    def test_duplicate_label_rejected_typed(self):
        broker = make_broker()
        assert broker.open(ask("tenantA", "dup")).status == "admitted"
        outcome = broker.open(ask("tenantA", "dup"))
        assert outcome.status == "rejected"
        assert "already open" in outcome.reason


class TestShardPlacement:
    def test_tenant_placement_is_stable(self):
        broker_a = make_broker(shards=4)
        broker_b = make_broker(shards=4)
        for tenant in ("alice", "bob", "carol", "mallory"):
            assert (
                broker_a.shard_for(tenant).index
                == broker_b.shard_for(tenant).index
            )

    def test_unknown_label_is_typed_outcome(self):
        broker = make_broker()
        outcome = broker.release("ghost")
        assert outcome.status == "rejected"
        assert "not service-managed" in outcome.reason
        with pytest.raises(ServiceError):
            broker.shard_of_label("ghost")


class TestLeaseLifecycle:
    def test_release_frees_capacity_and_lease(self):
        broker = make_broker()
        broker.open(ask("tenantA", "c1"))
        claims = broker.claimed_slots()
        outcome = broker.release("c1")
        assert outcome.status == "released"
        assert broker.claimed_slots() < claims
        assert broker.live_labels() == []
        shard = broker.shards[0]
        assert shard.leases.get("c1").state == "released"

    def test_renew_extends_lease(self):
        broker = make_broker()
        broker.open(ask("tenantA", "c1"))
        shard = broker.shard_of_label("c1")
        before = shard.leases.get("c1").expires_at
        shard.network.run(500)
        outcome = broker.renew("c1")
        assert outcome.status == "renewed"
        assert shard.leases.get("c1").expires_at > before

    def test_sweep_expires_overdue_and_tears_down(self):
        broker = make_broker(lease_cycles=1_000)
        broker.open(ask("tenantA", "c1"))
        shard = broker.shard_of_label("c1")
        shard.network.run(2_000)
        outcomes = broker.sweep_expired()
        assert [outcome.status for outcome in outcomes] == ["expired"]
        assert broker.live_labels() == []
        assert shard.leases.get("c1").state == "expired"
        verify_network_state(shard.network, [])

    def test_renew_expired_is_typed(self):
        broker = make_broker(lease_cycles=1_000)
        broker.open(ask("tenantA", "c1"))
        broker.shards[0].network.run(2_000)
        outcome = broker.renew("c1")
        assert outcome.status == "rejected"
        assert "LeaseError" in outcome.reason


class TestSequentialOpens:
    def test_back_to_back_opens_never_idle_the_tree(self):
        """Each ``open`` costs its set-up plus the one cycle its wait
        returns after, and the next starts there: N opens take
        ``sum(setup_cycles) + N`` shard cycles, the least any order of
        set-ups through the one-at-a-time config module can take."""
        broker = make_broker()
        shard = broker.shards[0]
        start = shard.now
        asks = [
            ask("tenantA", "s0", src="NI01", dst="NI11"),
            ask("tenantA", "s1", src="NI11", dst="NI10"),
            ask("tenantA", "s2", src="NI10", dst="NI01"),
            ask("tenantA", "s3", src="NI00", dst="NI11"),
        ]
        outcomes = [broker.open(item) for item in asks]
        assert [o.status for o in outcomes] == ["admitted"] * 4
        setups = [
            shard.manager.connections[o.label].setup_cycles
            for o in outcomes
        ]
        assert [o.op_cycles for o in outcomes] == [
            cycles + 1 for cycles in setups
        ]
        assert shard.now - start == sum(setups) + len(asks)
        verify_network_state(shard.network, shard.manager.live_handles)


class TestCircuitBreaker:
    def _trip(self, broker):
        shard = broker.shards[0]
        for _ in range(broker.config.breaker_threshold):
            shard.breaker.record_failure(shard.now)
        assert shard.breaker.state == "open"
        return shard

    def test_open_circuit_sheds_typed(self):
        broker = make_broker(breaker_cooldown_cycles=100_000)
        self._trip(broker)
        outcome = broker.open(ask("tenantA", "c1"))
        assert outcome.status == "admit_deferred"
        assert "circuit breaker is open" in outcome.reason
        assert broker.stats.by_status["admit_deferred"] == 1

    def test_force_raises_circuit_open(self):
        broker = make_broker(breaker_cooldown_cycles=100_000)
        self._trip(broker)
        with pytest.raises(CircuitOpenError):
            broker.open(ask("tenantA", "c1"), force=True)

    def test_half_open_probe_recovers_service(self):
        broker = make_broker(breaker_cooldown_cycles=50)
        shard = self._trip(broker)
        shard.network.run(60)
        outcome = broker.open(ask("tenantA", "c1"))
        assert outcome.status == "admitted"
        assert shard.breaker.state == "closed"


class TestRecoverySurface:
    def test_link_failure_recovers_and_keeps_lease(self):
        broker = make_broker(shards=1)
        broker.open(ask("tenantA", "c1", src="NI01", dst="NI10"))
        shard = broker.shard_of_label("c1")
        path = shard.manager.connections["c1"].allocation.forward.path
        edge = (path[1], path[2])
        report, outcomes = broker.handle_link_failure(0, edge)
        assert [outcome.status for outcome in outcomes] == ["repaired"]
        assert shard.leases.get("c1").state == "active"
        assert broker.live_labels() == ["c1"]

    def test_unrecoverable_revokes_lease(self):
        broker = make_broker(shards=1)
        broker.open(ask("tenantA", "c1", src="NI01", dst="NI10"))
        shard = broker.shard_of_label("c1")
        topology = shard.network.topology
        path = shard.manager.connections["c1"].allocation.forward.path
        on_path = (path[1], path[2])
        # Sever every router-router edge except the one we recover on.
        for a, b in {("R00", "R01"), ("R00", "R10"), ("R01", "R11"), ("R10", "R11")}:
            if {a, b} != {*on_path} and not topology.link_is_failed(a, b):
                topology.fail_link(a, b)
        report, outcomes = broker.handle_link_failure(0, on_path)
        assert [outcome.status for outcome in outcomes] == ["revoked"]
        assert outcomes[0].reason
        assert shard.leases.get("c1").state == "revoked"
        assert broker.lease_violations() == {"tenantA": 1}
        assert broker.live_labels() == []
        assert broker.claimed_slots() == 0

    def test_scrub_clean_network_finds_nothing(self):
        broker = make_broker()
        broker.open(ask("tenantA", "c1"))
        findings, outcomes = broker.scrub(0)
        assert findings == 0
        assert outcomes == []

    def test_repair_is_idempotent_replay(self):
        broker = make_broker()
        broker.open(ask("tenantA", "c1"))
        first = broker.repair("c1")
        second = broker.repair("c1")
        assert first.status == second.status == "repaired"
        assert "c1" in broker.replayed_labels
        shard = broker.shard_of_label("c1")
        verify_network_state(
            shard.network, shard.manager.live_handles
        )


class TestStats:
    def test_success_rate_counts_typed_failures(self):
        broker = make_broker()
        broker.open(ask("tenantA", "c1"))
        broker.release("ghost")  # typed rejected
        assert broker.stats.requests == 2
        assert broker.stats.success_rate() == 0.5

    def test_per_tenant_split(self):
        broker = make_broker()
        broker.open(ask("alice", "a1", src="NI01", dst="NI11"))
        broker.open(ask("bob", "b1", src="NI10", dst="NI01"))
        rates = broker.stats.per_tenant_success()
        assert rates == {"alice": 1.0, "bob": 1.0}

    def test_churn_hits_the_lowering_cache(self):
        """Open/release churn cycles a shard through a small set of
        schedule images.  A connection nobody sends on costs no
        recompile (the engine rides through its set-up); one that
        carries words makes the engine recompile for it, and with
        channel-index recycling re-opening the same endpoints reproduces
        an image the compiler has already lowered, so the lowering cache
        must convert those recompiles into lookups — the telemetry the
        availability harness watches."""
        config = ServiceConfig(shards=1)
        broker = ConnectionBroker(
            build_mesh_fleet(1, kernel_mode="vector"),
            config=config,
            seed=1,
        )
        shard = broker.shards[0]
        for lap in range(3):
            outcome = broker.open(ask("tenantA", "c1"))
            assert outcome.ok
            handle = shard.manager.connections["c1"].handle
            shard.network.ni("NI01").submit_words(
                handle.forward.src_channel, [1, 2, 3], f"c1.{lap}"
            )
            shard.network.run(600)
            assert broker.release("c1").status == "released"
            shard.network.run(600)
        telemetry = broker.cache_telemetry()
        assert telemetry["lowering_cache_misses"] >= 1
        assert telemetry["lowering_cache_hits"] >= 1, telemetry
