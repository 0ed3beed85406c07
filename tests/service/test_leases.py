"""Lease state machine: grant/renew/expire/release/revoke transitions."""

from __future__ import annotations

import random

import pytest

from repro.errors import LeaseError
from repro.service import ChurnEngine, ConnectionBroker, LeaseTable, ServiceConfig
from repro.service import broker as broker_module


class TestGrantRenew:
    def test_grant_and_live(self):
        table = LeaseTable()
        lease = table.grant("c1", "tenantA", now=100, duration=50)
        assert lease.live(100)
        assert lease.live(149)
        assert not lease.live(150)
        assert table.active_labels(100) == ["c1"]
        assert table.active_labels(150) == []

    def test_renew_extends(self):
        table = LeaseTable()
        table.grant("c1", "tenantA", now=0, duration=100)
        lease = table.renew("c1", now=50, duration=100)
        assert lease.expires_at == 150
        assert lease.renewals == 1

    def test_renew_never_shortens(self):
        table = LeaseTable()
        table.grant("c1", "tenantA", now=0, duration=1000)
        lease = table.renew("c1", now=10, duration=50)
        assert lease.expires_at == 1000

    def test_double_grant_active_raises(self):
        table = LeaseTable()
        table.grant("c1", "tenantA", now=0, duration=100)
        with pytest.raises(LeaseError):
            table.grant("c1", "tenantB", now=10, duration=100)

    def test_regrant_after_terminal_is_fine(self):
        table = LeaseTable()
        table.grant("c1", "tenantA", now=0, duration=100)
        table.release("c1")
        lease = table.grant("c1", "tenantB", now=200, duration=100)
        assert lease.tenant == "tenantB"

    def test_renew_unknown_raises(self):
        with pytest.raises(LeaseError):
            LeaseTable().renew("ghost", now=0, duration=10)

    def test_renew_past_deadline_raises(self):
        table = LeaseTable()
        table.grant("c1", "tenantA", now=0, duration=100)
        with pytest.raises(LeaseError):
            table.renew("c1", now=100, duration=100)

    def test_grant_nonpositive_duration_raises(self):
        with pytest.raises(LeaseError):
            LeaseTable().grant("c1", "tenantA", now=0, duration=0)


class TestTerminalStates:
    def test_release_then_renew_raises(self):
        table = LeaseTable()
        table.grant("c1", "tenantA", now=0, duration=100)
        assert table.release("c1").state == "released"
        with pytest.raises(LeaseError):
            table.renew("c1", now=10, duration=10)

    def test_double_release_raises(self):
        table = LeaseTable()
        table.grant("c1", "tenantA", now=0, duration=100)
        table.release("c1")
        with pytest.raises(LeaseError):
            table.release("c1")

    def test_sweep_expires_only_overdue(self):
        table = LeaseTable()
        table.grant("old", "tenantA", now=0, duration=50)
        table.grant("new", "tenantB", now=0, duration=500)
        swept = table.sweep_expired(now=100)
        assert [lease.label for lease in swept] == ["old"]
        assert table.get("old").state == "expired"
        assert table.get("new").state == "active"
        # Idempotent: a second sweep finds nothing.
        assert table.sweep_expired(now=100) == []


class TestViolations:
    def test_revoke_before_expiry_is_violation(self):
        table = LeaseTable()
        table.grant("c1", "tenantA", now=0, duration=1000)
        lease = table.revoke("c1", now=100, reason="link died")
        assert lease.state == "revoked"
        assert lease.revoked_reason == "link died"
        assert table.violations_by_tenant() == {"tenantA": 1}

    def test_revoke_after_deadline_is_plain_expiry(self):
        table = LeaseTable()
        table.grant("c1", "tenantA", now=0, duration=100)
        lease = table.revoke("c1", now=200, reason="late anyway")
        assert lease.state == "expired"
        assert table.violations_by_tenant() == {}

    def test_violations_sorted_by_tenant(self):
        table = LeaseTable()
        for index, tenant in enumerate(["zeta", "alpha", "zeta"]):
            label = f"c{index}"
            table.grant(label, tenant, now=0, duration=1000)
            table.revoke(label, now=1, reason="x")
        assert table.violations_by_tenant() == {"alpha": 1, "zeta": 2}


def full_scan_sweep(leases, now):
    """The sweep's definition over every lease ever granted: each
    active lease past its deadline, in sorted label order."""
    return [
        label
        for label in sorted(leases)
        if leases[label].state == "active" and now >= leases[label].expires_at
    ]


def full_scan_active(leases, now):
    return sorted(label for label, lease in leases.items() if lease.live(now))


class CheckedLeaseTable(LeaseTable):
    """A table whose every sweep and ``active_labels`` call is compared
    with the full-scan definition, taken before the call."""

    checked = 0

    def sweep_expired(self, now):
        expected = full_scan_sweep(self._leases, now)
        swept = super().sweep_expired(now)
        assert [lease.label for lease in swept] == expected
        assert all(lease.state == "expired" for lease in swept)
        CheckedLeaseTable.checked += 1
        return swept

    def active_labels(self, now):
        expected = full_scan_active(self._leases, now)
        assert super().active_labels(now) == expected
        return expected


class TestActiveIndex:
    """A sweep and ``active_labels`` visit the active leases only, and
    give what a scan of every lease ever granted gives."""

    def test_seeded_table_churn_matches_the_full_scan(self):
        rng = random.Random(2026)
        table = CheckedLeaseTable()
        now = 0
        for _ in range(3000):
            now += rng.randrange(0, 40)
            labels = list(table._leases)
            op = rng.random()
            if op < 0.35 or not labels:
                label = f"c{rng.randrange(400)}"
                try:
                    table.grant(
                        label, f"t{rng.randrange(5)}", now, rng.randrange(1, 400)
                    )
                except LeaseError:
                    pass
                continue
            label = rng.choice(labels)
            try:
                if op < 0.5:
                    table.renew(label, now, rng.randrange(1, 400))
                elif op < 0.6:
                    table.release(label)
                elif op < 0.7:
                    table.revoke(label, now, "fault")
                elif op < 0.75:
                    table.expire(label)
                elif op < 0.9:
                    table.sweep_expired(now)
                else:
                    table.active_labels(now)
            except LeaseError:
                pass
        assert CheckedLeaseTable.checked > 100
        states = {lease.state for lease in table._leases.values()}
        assert states == {"active", "expired", "released", "revoked"}

    def test_seeded_service_churn_matches_the_full_scan(self, monkeypatch):
        monkeypatch.setattr(CheckedLeaseTable, "checked", 0)
        monkeypatch.setattr(broker_module, "LeaseTable", CheckedLeaseTable)
        broker = ConnectionBroker.mesh_fleet(
            config=ServiceConfig(shards=2, lease_cycles=600), seed=5
        )
        churn = ChurnEngine(broker, seed=5, tenants=6, max_live=5)
        churn.run(300)
        expired = [
            lease
            for shard in broker.shards
            for lease in shard.leases._leases.values()
            if lease.state == "expired"
        ]
        assert expired
        assert CheckedLeaseTable.checked > 0
