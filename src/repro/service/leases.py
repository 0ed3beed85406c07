"""Connection leases: expiry, renewal, revocation-on-failure.

A lease is the service's contract with one tenant: the connection stays
configured until ``expires_at`` (in kernel cycles — the simulated clock
is the only clock), and the tenant may renew it any time before then.
The state machine (DESIGN.md §13) is strictly forward::

    ACTIVE --renew--> ACTIVE          (expires_at extended)
    ACTIVE --expire--> EXPIRED        (deadline passed; swept teardown)
    ACTIVE --release--> RELEASED      (tenant-requested teardown)
    ACTIVE --revoke--> REVOKED        (service-initiated: unrecoverable
                                       failure; counts as a violation)

``REVOKED`` before expiry is the one transition the service itself
initiates, so it is the per-tenant *lease-violation* SLO counter: the
tenant lost service it had paid for.  Everything else is either the
tenant's own doing or the agreed deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..errors import LeaseError

ACTIVE = "active"
EXPIRED = "expired"
RELEASED = "released"
REVOKED = "revoked"


@dataclass
class Lease:
    """One tenant's claim on one configured connection."""

    label: str
    tenant: str
    granted_at: int
    expires_at: int
    state: str = ACTIVE
    renewals: int = 0
    revoked_reason: str = ""

    def live(self, now: int) -> bool:
        """Active and not yet past its deadline."""
        return self.state == ACTIVE and now < self.expires_at


class LeaseTable:
    """All leases ever granted, keyed by connection label.

    Labels are never reused within one service lifetime, so the table
    doubles as the audit log: terminal leases stay queryable for the
    SLO report.  All mutating operations take ``now`` explicitly —
    the table holds no clock of its own.  A lease changes state only
    through the table, which keeps the labels of the active ones apart:
    a sweep and :meth:`active_labels` cost the active leases, not every
    lease ever granted.
    """

    def __init__(self) -> None:
        self._leases: Dict[str, Lease] = {}
        #: Labels whose lease is ACTIVE.
        self._active: Dict[str, None] = {}

    def __len__(self) -> int:
        return len(self._leases)

    def get(self, label: str) -> Lease:
        """Look up a lease.

        Raises:
            LeaseError: if the label was never granted a lease.
        """
        lease = self._leases.get(label)
        if lease is None:
            raise LeaseError(f"no lease for {label!r}")
        return lease

    def grant(
        self, label: str, tenant: str, now: int, duration: int
    ) -> Lease:
        """Grant a fresh lease.

        Raises:
            LeaseError: if the label already holds an active lease or
                the duration is not positive.
        """
        if duration <= 0:
            raise LeaseError(
                f"lease duration must be positive, got {duration}"
            )
        existing = self._leases.get(label)
        if existing is not None and existing.state == ACTIVE:
            raise LeaseError(f"{label!r} already holds an active lease")
        lease = Lease(
            label=label,
            tenant=tenant,
            granted_at=now,
            expires_at=now + duration,
        )
        self._leases[label] = lease
        self._active[label] = None
        return lease

    def renew(self, label: str, now: int, duration: int) -> Lease:
        """Extend an active lease to ``now + duration``.

        Raises:
            LeaseError: if the lease is unknown, terminal, or already
                past its deadline (an expired-but-unswept lease cannot
                be resurrected — the sweep owns that transition).
        """
        lease = self.get(label)
        if lease.state != ACTIVE:
            raise LeaseError(
                f"cannot renew {label!r}: lease is {lease.state}"
            )
        if now >= lease.expires_at:
            raise LeaseError(
                f"cannot renew {label!r}: expired at "
                f"{lease.expires_at}, now {now}"
            )
        lease.expires_at = max(lease.expires_at, now + duration)
        lease.renewals += 1
        return lease

    def release(self, label: str) -> Lease:
        """Tenant-requested clean end of an active lease.

        Raises:
            LeaseError: if the lease is unknown or already terminal.
        """
        lease = self.get(label)
        if lease.state != ACTIVE:
            raise LeaseError(
                f"cannot release {label!r}: lease is {lease.state}"
            )
        lease.state = RELEASED
        del self._active[label]
        return lease

    def revoke(self, label: str, now: int, reason: str) -> Lease:
        """Service-initiated termination (unrecoverable failure).

        A revocation strictly before the deadline is a lease
        violation; at-or-after the deadline it degrades to a plain
        expiry (the tenant lost nothing it was owed).

        Raises:
            LeaseError: if the lease is unknown or already terminal.
        """
        lease = self.get(label)
        if lease.state != ACTIVE:
            raise LeaseError(
                f"cannot revoke {label!r}: lease is {lease.state}"
            )
        if now >= lease.expires_at:
            lease.state = EXPIRED
        else:
            lease.state = REVOKED
            lease.revoked_reason = reason
        del self._active[label]
        return lease

    def expire(self, label: str) -> Lease:
        """End the lease of a connection torn down as expired, whatever
        its deadline (a terminal lease is left as it is).

        Raises:
            LeaseError: if the label was never granted a lease.
        """
        lease = self.get(label)
        if lease.state == ACTIVE:
            lease.state = EXPIRED
            del self._active[label]
        return lease

    def sweep_expired(self, now: int) -> List[Lease]:
        """Transition every active lease past its deadline to EXPIRED.

        Returns the swept leases in sorted label order so the caller
        can tear the connections down deterministically.
        """
        swept: List[Lease] = []
        for label in sorted(self._active):
            lease = self._leases[label]
            if now >= lease.expires_at:
                lease.state = EXPIRED
                del self._active[label]
                swept.append(lease)
        return swept

    def active_labels(self, now: int) -> List[str]:
        """Labels holding live leases, sorted."""
        return sorted(
            label
            for label in self._active
            if now < self._leases[label].expires_at
        )

    def violations(self) -> List[Lease]:
        """All revoked-before-expiry leases, sorted by label."""
        return [
            self._leases[label]
            for label in sorted(self._leases)
            if self._leases[label].state == REVOKED
        ]

    def violations_by_tenant(self) -> Dict[str, int]:
        """Lease-violation count per tenant (the SLO denominator's
        counterpart), tenants sorted."""
        counts: Dict[str, int] = {}
        for lease in self.violations():
            counts[lease.tenant] = counts.get(lease.tenant, 0) + 1
        return dict(sorted(counts.items()))
