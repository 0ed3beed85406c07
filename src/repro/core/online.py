"""On-line connection management over a live network.

"The schedule which guarantees contention-free routing for an application
is typically computed at design time, although computation at run-time is
also possible [22], [30]."  This module is that run-time flavour: an
:class:`OnlineConnectionManager` owns both the slot-allocation ledger and
the host driver, so connections (and multicast trees) can be opened and
closed dynamically against the live network — the software a host
processor would actually run.

All operations go through the real configuration network, so opening a
connection costs exactly the set-up time of Table III and never disturbs
established traffic (contention freedom is maintained by the ledger).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..alloc.pathfind import shortest_path
from ..alloc.slot_alloc import SlotAllocator
from ..alloc.spec import (
    AllocatedChannel,
    AllocatedConnection,
    AllocatedMulticast,
    ConnectionRequest,
    MulticastRequest,
)
from ..errors import (
    AllocationError,
    ConfigurationError,
    ReproError,
    RoutingError,
)
from ..sim.stats import FAULT_DETECTED
from .host import ConnectionHandle, MulticastHandle, SetupHandle
from .network import DaeliteNetwork


@dataclass
class OpenConnection:
    """A live connection and its bookkeeping."""

    request: ConnectionRequest
    allocation: AllocatedConnection
    handle: ConnectionHandle
    opened_at: int
    setup_cycles: int


@dataclass
class OpenMulticast:
    """A live multicast tree and its bookkeeping."""

    request: MulticastRequest
    allocation: AllocatedMulticast
    handle: MulticastHandle
    opened_at: int
    setup_cycles: int


@dataclass
class RecoveryOutcome:
    """What happened to one connection/multicast during a recovery.

    Attributes:
        label: The connection or multicast label.
        kind: ``"connection"`` or ``"multicast"``.
        recovered: True if the re-routed set-up completed.
        teardown_cycles: Cycles to clear the degraded configuration.
        setup_cycles: Cycles for the replacement set-up (0 on failure).
        total_cycles: Wall-clock cycles from starting this label's
            recovery to its completion — the paper-facing
            "re-set-up after failure" figure.
        path_hops: Forward-path link count after re-routing, or ``None``
            when recovery failed (for the recovery-time-vs-path-length
            scaling analysis).
        error: Failure description when ``recovered`` is False.
    """

    label: str
    kind: str
    recovered: bool
    teardown_cycles: int
    setup_cycles: int
    total_cycles: int
    path_hops: Optional[int] = None
    error: str = ""


@dataclass
class RecoveryReport:
    """Summary of one :meth:`OnlineConnectionManager.handle_link_failure`.

    Attributes:
        edge: The failed link pair, as given.
        started_at: Cycle the recovery began.
        finished_at: Cycle the last affected label was handled.
        outcomes: Per-label outcomes, in deterministic (sorted) order.
    """

    edge: Tuple[str, str]
    started_at: int
    finished_at: int
    outcomes: List[RecoveryOutcome] = field(default_factory=list)

    @property
    def recovered(self) -> List[RecoveryOutcome]:
        return [o for o in self.outcomes if o.recovered]

    @property
    def failed(self) -> List[RecoveryOutcome]:
        return [o for o in self.outcomes if not o.recovered]

    @property
    def total_cycles(self) -> int:
        return self.finished_at - self.started_at


class OnlineConnectionManager:
    """Run-time open/close of connections on a daelite network.

    Attributes:
        network: The live network being managed.
        allocator: The ledger of (link, slot) claims; shared by every
            open connection so new requests never conflict with
            established ones.
    """

    def __init__(
        self,
        network: DaeliteNetwork,
        routing: str = "shortest",
        policy: str = "spread",
        max_op_cycles: int = 200_000,
    ) -> None:
        self.network = network
        #: Simulation budget for any single blocking operation (set-up,
        #: tear-down, replay); exceeding it raises ``SimulationError``,
        #: which the service layer converts to a typed timeout outcome.
        self.max_op_cycles = max_op_cycles
        self.allocator = SlotAllocator(
            topology=network.topology,
            params=network.params,
            routing=routing,
            policy=policy,
        )
        self.connections: Dict[str, OpenConnection] = {}
        self.multicasts: Dict[str, OpenMulticast] = {}
        # Statistics are split by population so fault recovery never
        # skews the paper-facing set-up numbers: ``setup_history`` holds
        # only successful *initial* set-ups, ``recovery_history`` the
        # per-label re-set-up times after a failure, and
        # ``failed_history`` the cycles burnt on attempts that did not
        # end in a live connection.
        self.setup_history: List[int] = []
        self.teardown_history: List[int] = []
        self.recovery_history: List[int] = []
        self.failed_history: List[int] = []
        #: Reports of every handled link failure, in order.
        self.recovery_reports: List[RecoveryReport] = []

    # -- connections ------------------------------------------------------------

    def open_connection(
        self, request: ConnectionRequest
    ) -> OpenConnection:
        """Allocate, configure, and activate a connection.

        Blocks (runs the simulator) until the configuration completes.

        Raises:
            AllocationError: if no contention-free slots remain, or the
                label is already open.  The network is left untouched.
        """
        if request.label in self.connections:
            raise AllocationError(
                f"connection {request.label!r} already open"
            )
        allocation = self.allocator.allocate_connection(request)
        opened_at = self.network.kernel.cycle
        try:
            handle = self.network.host.setup_connection(allocation)
            setup_cycles = self.network.run_until_configured(
                handle, max_cycles=self.max_op_cycles
            )
        except Exception:
            self.allocator.release_connection(allocation)
            raise
        record = OpenConnection(
            request=request,
            allocation=allocation,
            handle=handle,
            opened_at=opened_at,
            setup_cycles=setup_cycles,
        )
        self.connections[request.label] = record
        self.setup_history.append(setup_cycles)
        return record

    def close_connection(self, label: str) -> int:
        """Tear down a connection and release its slots.

        Returns the tear-down time in cycles.

        Raises:
            ConfigurationError: if the label is not open.
        """
        record = self.connections.pop(label, None)
        if record is None:
            raise ConfigurationError(f"connection {label!r} not open")
        teardown = self.network.host.teardown_connection(
            record.handle, record.allocation
        )
        cycles = self.network.run_until_configured(
            teardown, max_cycles=self.max_op_cycles
        )
        self.allocator.release_connection(record.allocation)
        self.network.host.recycle_connection_indices(
            record.handle, record.allocation
        )
        self.teardown_history.append(cycles)
        return cycles

    # -- multicast ----------------------------------------------------------------

    def open_multicast(self, request: MulticastRequest) -> OpenMulticast:
        """Allocate, configure, and activate a multicast tree."""
        if request.label in self.multicasts:
            raise AllocationError(
                f"multicast {request.label!r} already open"
            )
        allocation = self.allocator.allocate_multicast(request)
        opened_at = self.network.kernel.cycle
        try:
            handle = self.network.host.setup_multicast(allocation)
            setup_cycles = self.network.run_until_configured(
                handle, max_cycles=self.max_op_cycles
            )
        except Exception:
            self.allocator.release_multicast(allocation)
            raise
        record = OpenMulticast(
            request=request,
            allocation=allocation,
            handle=handle,
            opened_at=opened_at,
            setup_cycles=setup_cycles,
        )
        self.multicasts[request.label] = record
        self.setup_history.append(setup_cycles)
        return record

    def close_multicast(self, label: str) -> int:
        """Tear down a multicast tree and release its slots."""
        record = self.multicasts.pop(label, None)
        if record is None:
            raise ConfigurationError(f"multicast {label!r} not open")
        teardown = self.network.host.teardown_multicast(record.handle)
        cycles = self.network.run_until_configured(
            teardown, max_cycles=self.max_op_cycles
        )
        self.allocator.release_multicast(record.allocation)
        self.network.host.recycle_multicast_indices(record.handle)
        self.teardown_history.append(cycles)
        return cycles

    # -- fault recovery ----------------------------------------------------------

    def handle_link_failure(
        self, edge: Tuple[str, str]
    ) -> RecoveryReport:
        """Recover every connection and multicast crossing a dead link.

        The link is masked in the topology (bumping the structural
        version, so the route cache drops paths through it), then each
        affected label is torn down through the still-working config
        tree, its slots released, re-allocated on a detour, and set up
        again.  Per-label recovery times land in
        :attr:`recovery_history` (successes) / :attr:`failed_history`
        (no admissible detour).

        Raises:
            ConfigurationError: if ``edge`` names no known link.
        """
        a, b = edge
        topology = self.network.topology
        started_at = self.network.kernel.cycle
        if not topology.link_is_failed(a, b):
            topology.fail_link(a, b)
        report = RecoveryReport(
            edge=(a, b), started_at=started_at, finished_at=started_at
        )
        affected_connections = sorted(
            label
            for label, record in self.connections.items()
            if _connection_uses(record.allocation, a, b)
        )
        affected_multicasts = sorted(
            label
            for label, record in self.multicasts.items()
            if _multicast_uses(record.allocation, a, b)
        )
        for label in affected_connections:
            report.outcomes.append(self._recover_connection(label))
        for label in affected_multicasts:
            report.outcomes.append(self._recover_multicast(label))
        report.finished_at = self.network.kernel.cycle
        self.recovery_reports.append(report)
        return report

    def _recover_connection(self, label: str) -> RecoveryOutcome:
        record = self.connections.pop(label)
        kernel = self.network.kernel
        start = kernel.cycle
        teardown_cycles = 0
        try:
            teardown = self.network.host.teardown_connection(
                record.handle, record.allocation
            )
            teardown_cycles = self.network.run_until_configured(
                teardown, max_cycles=self.max_op_cycles
            )
            self.allocator.release_connection(record.allocation)
            self.network.host.recycle_connection_indices(
                record.handle, record.allocation
            )
            allocation = self._allocate_detour(record.request)
        except ReproError as error:
            return self._failed_outcome(
                label, "connection", start, teardown_cycles, error
            )
        try:
            handle = self.network.host.setup_connection(allocation)
            setup_cycles = self.network.run_until_configured(
                handle, max_cycles=self.max_op_cycles
            )
        except ReproError as error:
            # The detour's ledger claims must not leak when the config
            # tree cannot complete the replacement set-up.
            self.allocator.release_connection(allocation)
            return self._failed_outcome(
                label, "connection", start, teardown_cycles, error
            )
        total = kernel.cycle - start
        self.connections[label] = OpenConnection(
            request=record.request,
            allocation=allocation,
            handle=handle,
            opened_at=kernel.cycle,
            setup_cycles=setup_cycles,
        )
        self.recovery_history.append(total)
        return RecoveryOutcome(
            label=label,
            kind="connection",
            recovered=True,
            teardown_cycles=teardown_cycles,
            setup_cycles=setup_cycles,
            total_cycles=total,
            path_hops=len(allocation.forward.path) - 1,
        )

    def _failed_outcome(
        self,
        label: str,
        kind: str,
        start: int,
        teardown_cycles: int,
        error: ReproError,
    ) -> RecoveryOutcome:
        total = self.network.kernel.cycle - start
        self.failed_history.append(total)
        return RecoveryOutcome(
            label=label,
            kind=kind,
            recovered=False,
            teardown_cycles=teardown_cycles,
            setup_cycles=0,
            total_cycles=total,
            error=f"{type(error).__name__}: {error}",
        )

    def _recover_multicast(self, label: str) -> RecoveryOutcome:
        record = self.multicasts.pop(label)
        kernel = self.network.kernel
        start = kernel.cycle
        teardown_cycles = 0
        try:
            teardown = self.network.host.teardown_multicast(
                record.handle
            )
            teardown_cycles = self.network.run_until_configured(
                teardown, max_cycles=self.max_op_cycles
            )
            self.allocator.release_multicast(record.allocation)
            self.network.host.recycle_multicast_indices(record.handle)
            allocation = self.allocator.allocate_multicast(
                record.request
            )
        except ReproError as error:
            return self._failed_outcome(
                label, "multicast", start, teardown_cycles, error
            )
        try:
            handle = self.network.host.setup_multicast(allocation)
            setup_cycles = self.network.run_until_configured(
                handle, max_cycles=self.max_op_cycles
            )
        except ReproError as error:
            self.allocator.release_multicast(allocation)
            return self._failed_outcome(
                label, "multicast", start, teardown_cycles, error
            )
        total = kernel.cycle - start
        self.multicasts[label] = OpenMulticast(
            request=record.request,
            allocation=allocation,
            handle=handle,
            opened_at=kernel.cycle,
            setup_cycles=setup_cycles,
        )
        self.recovery_history.append(total)
        longest = max(
            len(branch.path) - 1 for branch in allocation.paths
        )
        return RecoveryOutcome(
            label=label,
            kind="multicast",
            recovered=True,
            teardown_cycles=teardown_cycles,
            setup_cycles=setup_cycles,
            total_cycles=total,
            path_hops=longest,
        )

    def _allocate_detour(
        self, request: ConnectionRequest
    ) -> AllocatedConnection:
        """Re-allocate a connection avoiding failed links.

        Graph-based routing avoids masked edges inherently; XY routing
        is coordinate-based, so when its route crosses the failure the
        allocator falls back to an explicit hop-minimal detour.
        """
        try:
            return self.allocator.allocate_connection(request)
        except RoutingError:
            if self.allocator.routing == "shortest":
                raise
            detour = shortest_path(
                self.network.topology, request.src_ni, request.dst_ni
            )
            return self.allocator.allocate_connection(
                request, path=detour
            )

    def repair_connection(self, label: str) -> int:
        """Replay an open connection's set-up packets (soft-fault repair
        for slot-table upsets or lost configuration words) and return
        the repair time in cycles.

        Raises:
            ConfigurationError: if the label is not open.
        """
        record = self.connections.get(label)
        if record is None:
            raise ConfigurationError(f"connection {label!r} not open")
        replay = self.network.host.replay_connection(
            record.handle, record.allocation
        )
        cycles = self.network.run_until_configured(
            replay, max_cycles=self.max_op_cycles
        )
        self.recovery_history.append(cycles)
        return cycles

    def repair_multicast(self, label: str) -> int:
        """Replay an open multicast tree's set-up packets."""
        record = self.multicasts.get(label)
        if record is None:
            raise ConfigurationError(f"multicast {label!r} not open")
        replay = self.network.host.replay_multicast(record.handle)
        cycles = self.network.run_until_configured(
            replay, max_cycles=self.max_op_cycles
        )
        self.recovery_history.append(cycles)
        return cycles

    def verify_connection(
        self,
        label: str,
        timeout_cycles: Optional[int] = None,
        max_retries: int = 0,
    ) -> bool:
        """Read back the endpoint FLAGS of an open connection.

        Returns True when all four endpoints report the expected
        enabled/flow-controlled state; mismatches and abandoned reads
        are recorded as ``readback_mismatch`` fault events.

        Raises:
            ConfigurationError: if the label is not open.
            SimulationError: if the reads do not complete within
                :attr:`max_op_cycles` (a response lost with no timeout
                budget to retry it).
        """
        record = self.connections.get(label)
        if record is None:
            raise ConfigurationError(f"connection {label!r} not open")
        reads = self.network.host.verify_connection_requests(
            record.handle,
            record.allocation,
            timeout_cycles=timeout_cycles,
            max_retries=max_retries,
        )
        self.network.wait_configured(
            [request for request, _ in reads], self.max_op_cycles
        )
        clean = True
        for request, expected in reads:
            value = (
                request.responses[0]
                if request.responses and not request.failed
                else None
            )
            if value != expected:
                clean = False
                self.network.stats.record_fault(
                    self.network.kernel.cycle,
                    FAULT_DETECTED,
                    "readback_mismatch",
                    label,
                    f"{request.packet.description}: expected "
                    f"{expected}, got {value}",
                )
        return clean

    # -- introspection -----------------------------------------------------------

    @property
    def open_labels(self) -> List[str]:
        return sorted(self.connections) + sorted(self.multicasts)

    @property
    def live_handles(self) -> List[SetupHandle]:
        """Handles of everything currently open, for the model checker
        (:func:`~repro.staticcheck.verify_network_state`)."""
        handles: List[SetupHandle] = [
            self.connections[label].handle
            for label in sorted(self.connections)
        ]
        handles.extend(
            self.multicasts[label].handle
            for label in sorted(self.multicasts)
        )
        return handles

    @property
    def claimed_slots(self) -> int:
        """Total (link, slot) pairs currently claimed."""
        return self.allocator.ledger.total_claims()

    def mean_setup_cycles(self) -> Optional[float]:
        """Mean cycles of successful *initial* set-ups only — recovery
        re-set-ups and failed attempts live in their own populations."""
        if not self.setup_history:
            return None
        return sum(self.setup_history) / len(self.setup_history)

    def mean_recovery_cycles(self) -> Optional[float]:
        """Mean per-label recovery time across successful recoveries."""
        if not self.recovery_history:
            return None
        return sum(self.recovery_history) / len(self.recovery_history)


def _channel_uses(channel: AllocatedChannel, a: str, b: str) -> bool:
    """True if the channel's path crosses the (undirected) link a<->b."""
    for k in range(len(channel.path) - 1):
        if {channel.path[k], channel.path[k + 1]} == {a, b}:
            return True
    return False


def _connection_uses(
    connection: AllocatedConnection, a: str, b: str
) -> bool:
    return _channel_uses(connection.forward, a, b) or _channel_uses(
        connection.reverse, a, b
    )


def _multicast_uses(tree: AllocatedMulticast, a: str, b: str) -> bool:
    return any(
        _channel_uses(branch, a, b) for branch in tree.paths
    )
