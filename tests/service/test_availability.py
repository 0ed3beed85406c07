"""Availability harness: SLOs under live churn with armed faults."""

from __future__ import annotations

from repro.service import (
    ALL_STATUSES,
    AvailabilityHarness,
    ChurnEngine,
    ConnectionBroker,
    ServiceConfig,
)
from repro.staticcheck import verify_network_state


def run_small_campaign(seed=11, ops=200):
    broker = ConnectionBroker.mesh_fleet(
        config=ServiceConfig(shards=2, lease_cycles=5_000),
        seed=seed,
    )
    churn = ChurnEngine(broker, seed=seed, tenants=6, max_live=5)
    harness = AvailabilityHarness(
        broker,
        churn,
        seed=seed,
        fault_every_ops=80,
        fault_horizon=800,
        link_failure_every_ops=120,
    )
    harness.run_campaign(ops)
    return broker, churn, harness


class TestCampaignSlos:
    def test_success_rate_meets_slo(self):
        broker, churn, harness = run_small_campaign()
        report = harness.report()
        assert report.requests >= 150
        assert report.success_rate >= 0.99
        assert report.lease_violations == {}

    def test_every_outcome_is_typed(self):
        """No unhandled exception escaped: run_campaign returned, and
        every recorded status belongs to the closed taxonomy."""
        broker, churn, harness = run_small_campaign()
        for record in churn.records:
            for outcome in record.outcomes:
                assert outcome.status in ALL_STATUSES
        report = harness.report()
        assert set(report.status_counts) <= ALL_STATUSES

    def test_waves_end_clean(self):
        """Every fault wave is scrubbed back to a verifiably clean
        network and its repair time is measured."""
        broker, churn, harness = run_small_campaign()
        report = harness.report()
        assert len(report.waves) >= 1
        assert len(report.time_to_repair_cycles) == len(report.waves)
        assert all(
            cycles >= 0 for cycles in report.time_to_repair_cycles
        )
        for shard in broker.shards:
            verify_network_state(
                shard.network, shard.manager.live_handles
            )

    def test_goodput_and_percentiles(self):
        broker, churn, harness = run_small_campaign()
        report = harness.report()
        assert 0.0 <= report.goodput_retained <= 1.5
        percentiles = report.repair_percentiles()
        assert set(percentiles) == {"p50", "p90", "max"}
        assert percentiles["p50"] <= percentiles["max"]

    def test_link_failures_accounted(self):
        broker, churn, harness = run_small_campaign()
        report = harness.report()
        assert len(report.link_failures) >= 1
        # Each failed link was restored afterwards: no edge stays dead.
        for event in report.link_failures:
            topology = broker.shards[event.shard_index].network.topology
            assert not topology.link_is_failed(*event.edge)
        for shard in broker.shards:
            topology = shard.network.topology
            assert not any(
                topology.link_is_failed(element.name, neighbour)
                for element in topology.elements.values()
                for neighbour in element.neighbors
            )

    def test_payload_is_json_ready(self):
        import json

        broker, churn, harness = run_small_campaign()
        payload = harness.report().payload()
        text = json.dumps(payload, sort_keys=True)
        assert "success_rate" in text
        assert "time_to_repair" in text


class TestPerTenantAccounting:
    def test_per_tenant_rates_cover_all_tenants(self):
        broker, churn, harness = run_small_campaign()
        report = harness.report()
        assert report.per_tenant_success
        for tenant, rate in report.per_tenant_success.items():
            assert tenant.startswith("tenant")
            assert 0.0 <= rate <= 1.0
