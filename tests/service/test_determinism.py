"""Seeded determinism of the service layer.

The contract: a full churn campaign — opens, releases, renewals,
repairs, sweeps, backoff delays, retry counts — is byte-identical
across two fresh processes with the same seed, and across the
``naive`` and ``vector`` kernels.  Idempotent replay must also
survive racing a concurrent teardown.
"""

from __future__ import annotations

import pytest

from repro.alloc import ConnectionRequest
from repro.errors import ConfigurationError
from repro.service import (
    AvailabilityHarness,
    ChurnEngine,
    ConnectionBroker,
    ServiceConfig,
    TenantRequest,
)
from repro.staticcheck import verify_network_state


def run_campaign(kernel_mode, seed=7, ops=120):
    broker = ConnectionBroker.mesh_fleet(
        config=ServiceConfig(shards=2, lease_cycles=5_000),
        seed=seed,
        kernel_mode=kernel_mode,
    )
    churn = ChurnEngine(broker, seed=seed, tenants=6, max_live=8)
    churn.run(ops)
    return churn.digest()


class TestChurnDeterminism:
    def test_two_fresh_runs_byte_identical(self):
        assert run_campaign("vector") == run_campaign("vector")

    def test_identical_across_kernel_modes(self):
        assert run_campaign("naive") == run_campaign("vector")

    def test_different_seed_diverges(self):
        assert run_campaign("vector", seed=7) != run_campaign(
            "vector", seed=8
        )


class TestFaultCampaignDeterminism:
    def run_faulted(self, kernel_mode):
        broker = ConnectionBroker.mesh_fleet(
            config=ServiceConfig(shards=2, lease_cycles=5_000),
            seed=7,
            kernel_mode=kernel_mode,
        )
        churn = ChurnEngine(broker, seed=7, tenants=6, max_live=8)
        harness = AvailabilityHarness(
            broker,
            churn,
            seed=7,
            fault_every_ops=60,
            fault_horizon=800,
            config_corrupts=2,
            link_failure_every_ops=90,
        )
        harness.run_campaign(150)
        report = harness.report()
        # The comparison is only worth something if planned config
        # faults caught packets in flight (``vector`` then stepped
        # exactly those): with this seed all four do.
        landed = [
            event
            for shard in broker.shards
            for event in shard.network.stats.faults
            if event.kind == "config_corrupt"
        ]
        assert len(landed) == 4
        return churn.digest(), report.payload()

    def test_fault_waves_byte_identical(self):
        digest_a, payload_a = self.run_faulted("vector")
        digest_b, payload_b = self.run_faulted("vector")
        assert digest_a == digest_b
        assert payload_a == payload_b

    def test_fault_waves_identical_across_kernels(self):
        digest_a, payload_a = self.run_faulted("naive")
        digest_b, payload_b = self.run_faulted("vector")
        assert digest_a == digest_b
        assert payload_a == payload_b


class TestReplayIdempotence:
    def make_broker(self):
        return ConnectionBroker.mesh_fleet(
            config=ServiceConfig(shards=1), seed=0
        )

    def open_one(self, broker, label="c1"):
        outcome = broker.open(
            TenantRequest(
                tenant="tenantA",
                request=ConnectionRequest(
                    label, "NI01", "NI11", forward_slots=1
                ),
            )
        )
        assert outcome.status == "admitted"

    def test_repair_racing_teardown_is_typed(self):
        """A repair that loses the race to a concurrent teardown must
        surface as a typed rejected outcome, not a raw exception."""
        broker = self.make_broker()
        self.open_one(broker)
        assert broker.release("c1").status == "released"
        outcome = broker.repair("c1")
        assert outcome.status == "rejected"
        assert "not service-managed" in outcome.reason

    def test_manager_repair_after_close_raises_typed(self):
        """One layer down: ``repair_connection`` on a closed label is a
        typed ConfigurationError, which the broker converts to
        rejected."""
        broker = self.make_broker()
        self.open_one(broker)
        shard = broker.shards[0]
        # Tear down behind the broker's back (the race).
        shard.manager.close_connection("c1")
        with pytest.raises(ConfigurationError):
            shard.manager.repair_connection("c1")
        outcome = broker.repair("c1")
        assert outcome.status == "rejected"
        assert "ConfigurationError" in outcome.reason
        # The lease was revoked, not leaked.
        assert broker.live_labels() == []

    def test_double_repair_converges(self):
        broker = self.make_broker()
        self.open_one(broker)
        first = broker.repair("c1")
        second = broker.repair("c1")
        assert first.status == second.status == "repaired"
        assert broker.replayed_labels == ["c1", "c1"]
        shard = broker.shards[0]
        # Replay re-landed the same programming: the ledger and the
        # hardware tables still agree.
        verify_network_state(shard.network, shard.manager.live_handles)
