"""Closed-form performance model and O(1) admission oracle.

The paper's headline is *fast guaranteed-service connection set-up*;
this module makes the admission decision itself fast.  For a
contention-free TDM NoC every per-connection figure of merit is
computable in closed form from the slot assignment alone (cf. Mandal et
al., "Analytical Performance Models for NoCs with Multiple Priority
Traffic Classes", and the buffer-aware timing analysis of Giroudot &
Mifdaoui) — and because the schedule admits no interference, the bounds
are not merely sound but *exact* for the in-network portion, which lets
the Hypothesis differential suite (``tests/analysis/test_oracle_vs_sim``)
cross-validate the model against the cycle simulator bit-for-bit.

Latency decomposition of one word (submit to delivery):

* **scheduling wait** — up to ``max gap(slots) x words_per_slot``
  cycles until the channel's next owned injection slot,
* **NI output pipeline** — ``words_per_slot`` cycles (decision stage to
  link drive; this is where the statistics collector starts counting),
* **in-network** — ``hop_cycles x hops + 1`` cycles plus one slot per
  extra pipelined-link stage; a *constant* of the allocation, hence the
  exactness,
* **credit round trip** — only throughput-relevant: the destination
  buffer must cover the loop's bandwidth-delay product or the source
  stalls (``repro.analysis.buffers``).

:class:`AdmissionOracle` answers "will this connection meet its
deadline / what rate does it get / does the fleet have room" from those
formulas plus a ledger *probe* (no claim, no simulation, no kernel):
:meth:`SlotAllocator.plan_slots` shares the admissibility mask and the
slot-picking policy with the real allocator, so the oracle's planned
slots — and therefore its latency/bandwidth verdict — coincide exactly
with what an immediately following allocation would materialize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..alloc.slot_alloc import SlotAllocator
from ..alloc.spec import (
    AllocatedChannel,
    AllocatedConnection,
    AllocatedMulticast,
    ChannelRequest,
    ConnectionRequest,
    MulticastRequest,
)
from ..errors import AllocationError, ParameterError
from ..params import (
    AELITE_WORDS_PER_SLOT,
    NetworkParameters,
)
from .bounds import (
    aelite_bandwidth_words_per_cycle,
    guaranteed_bandwidth_words_per_cycle,
    in_network_latency_cycles,
    injection_pipeline_cycles,
    max_scheduling_wait_cycles,
    multicast_required_drain_rate,
)
from .buffers import (
    is_credit_limited,
    max_sustainable_rate,
    required_buffer_words,
)

#: Fabric tags accepted by the model.
DAELITE = "daelite"
AELITE = "aelite"


def fabric_of(params: NetworkParameters) -> str:
    """Infer the fabric from the slot shape (3-word slots = aelite)."""
    return (
        AELITE
        if params.words_per_slot == AELITE_WORDS_PER_SLOT
        else DAELITE
    )


# -- per-structure models -----------------------------------------------------


@dataclass(frozen=True)
class ChannelModel:
    """Closed-form figures of merit of one allocated channel.

    Attributes:
        label: Channel label.
        fabric: ``"daelite"`` or ``"aelite"``.
        hops: Routers traversed.
        slot_count: Owned injection slots.
        slot_table_size: Wheel size T.
        in_network_latency_cycles: Exact link-to-queue latency of every
            word — equals the simulator's measured latency bit-for-bit
            on a fault-free channel.
        max_scheduling_wait_cycles: Worst wait for the next owned slot.
        pipeline_cycles: NI output pipeline depth.
        worst_case_latency_cycles: Sound submit-to-delivery bound
            (wait + pipeline + in-network).
        jitter_bound_cycles: Worst-case delivery jitter (all variation
            is injection-side; the in-network part is constant).
        guaranteed_bandwidth_words_per_cycle: Hard rate from the slot
            arithmetic (aelite: net of header words).
    """

    label: str
    fabric: str
    hops: int
    slot_count: int
    slot_table_size: int
    in_network_latency_cycles: int
    max_scheduling_wait_cycles: int
    pipeline_cycles: int
    worst_case_latency_cycles: int
    jitter_bound_cycles: int
    guaranteed_bandwidth_words_per_cycle: float

    @property
    def best_case_latency_cycles(self) -> int:
        """Submit-to-delivery latency with zero scheduling wait."""
        return self.pipeline_cycles + self.in_network_latency_cycles


@dataclass(frozen=True)
class ConnectionModel:
    """Forward/reverse channel models plus the credit loop."""

    label: str
    forward: ChannelModel
    reverse: ChannelModel
    credit_loop_cycles: int
    required_buffer_words: int
    buffer_words: int
    effective_bandwidth_words_per_cycle: float
    credit_limited: bool

    @property
    def worst_case_latency_cycles(self) -> int:
        return self.forward.worst_case_latency_cycles

    @property
    def guaranteed_bandwidth_words_per_cycle(self) -> float:
        """Hard forward rate, net of any credit limitation the
        configured buffer imposes."""
        return min(
            self.forward.guaranteed_bandwidth_words_per_cycle,
            self.effective_bandwidth_words_per_cycle,
        )

    @property
    def round_trip_latency_cycles(self) -> int:
        """Request out, response back — both worst case."""
        return (
            self.forward.worst_case_latency_cycles
            + self.reverse.worst_case_latency_cycles
        )


@dataclass(frozen=True)
class MulticastModel:
    """Per-branch channel models of a multicast tree."""

    label: str
    branches: Tuple[ChannelModel, ...]
    required_drain_rate_words_per_cycle: float

    @property
    def worst_case_latency_cycles(self) -> int:
        """Worst bound over all destinations."""
        return max(
            branch.worst_case_latency_cycles
            for branch in self.branches
        )

    @property
    def guaranteed_bandwidth_words_per_cycle(self) -> float:
        return self.branches[0].guaranteed_bandwidth_words_per_cycle

    def branch(self, dst_ni: str) -> ChannelModel:
        for model in self.branches:
            if model.label.endswith(f"->{dst_ni}"):
                return model
        raise ParameterError(
            f"multicast {self.label!r} has no branch to {dst_ni!r}"
        )


# -- fleet capacity -----------------------------------------------------------


@dataclass(frozen=True)
class FleetCapacity:
    """Residual capacity of the whole fabric, from the ledger alone.

    Attributes:
        slot_table_size: Wheel size T.
        free_slots_per_link: Unclaimed slots on every directed link.
        total_free_slots: Sum over all directed links.
        total_slots: Directed links times T.
        saturated_links: Links with zero free slots.
    """

    slot_table_size: int
    free_slots_per_link: Dict[Tuple[str, str], int]
    total_free_slots: int
    total_slots: int
    saturated_links: Tuple[Tuple[str, str], ...]

    @property
    def utilization(self) -> float:
        """Claimed fraction of the fabric's slot capacity."""
        if self.total_slots == 0:
            return 0.0
        return 1.0 - self.total_free_slots / self.total_slots

    @property
    def bottleneck(self) -> Optional[Tuple[Tuple[str, str], int]]:
        """The directed link with the fewest free slots."""
        if not self.free_slots_per_link:
            return None
        edge = min(
            self.free_slots_per_link,
            key=lambda e: (self.free_slots_per_link[e], e),
        )
        return edge, self.free_slots_per_link[edge]


# -- admission verdicts -------------------------------------------------------

AnyRequest = Union[ChannelRequest, ConnectionRequest, MulticastRequest]
AnyModel = Union[ChannelModel, ConnectionModel, MulticastModel]


@dataclass(frozen=True)
class AdmissionVerdict:
    """The oracle's answer to one admission query.

    Attributes:
        label: Request label.
        admitted: Whether the request fits the residual schedule *and*
            meets its constraints.
        reason: ``"ok"`` or why the request was rejected.
        worst_case_latency_cycles: Submit-to-delivery bound of the
            (planned) forward channel, when a plan exists.
        guaranteed_bandwidth_words_per_cycle: Hard rate of the plan.
        planned_slots: Forward base slots the allocator would pick —
            exact, not a guess (shared mask + policy).
        path: Forward path the routing policy chose.
        model: Full model of the planned structure, when one exists.
        deadline_cycles: The deadline checked, if any.
    """

    label: str
    admitted: bool
    reason: str
    worst_case_latency_cycles: Optional[int] = None
    guaranteed_bandwidth_words_per_cycle: Optional[float] = None
    planned_slots: Tuple[int, ...] = ()
    path: Tuple[str, ...] = ()
    model: Optional[AnyModel] = None
    deadline_cycles: Optional[int] = None


class AdmissionOracle:
    """Answers admission queries analytically — no kernel, no claim.

    The oracle wraps a live :class:`~repro.alloc.SlotAllocator` (the
    same instance the control plane allocates from), so its probes see
    the current residual schedule.  Verdicts are computed in
    microseconds; the benchmark harness's ``plan_admission`` workload
    times them (``analysis.oracle_s`` over ``analysis.oracle_calls``).

    Attributes:
        allocator: The wrapped allocator.
        params: Network parameters (wheel size, slot shape, hops).
        fabric: ``"daelite"`` or ``"aelite"`` (inferred from params
            unless overridden) — selects the bandwidth formula.
    """

    def __init__(
        self,
        allocator: SlotAllocator,
        fabric: Optional[str] = None,
    ) -> None:
        self.allocator = allocator
        self.params = allocator.params
        self.fabric = fabric or fabric_of(self.params)
        if self.fabric not in (DAELITE, AELITE):
            raise ParameterError(
                f"unknown fabric {self.fabric!r}; expected "
                f"{DAELITE!r} or {AELITE!r}"
            )

    # -- models of allocated structures ------------------------------------

    def channel_model(self, channel: AllocatedChannel) -> ChannelModel:
        """Closed-form model of an allocated channel."""
        params = self.params
        if channel.slot_table_size != params.slot_table_size:
            raise ParameterError(
                f"channel {channel.label!r} was allocated on a wheel "
                f"of {channel.slot_table_size}, the oracle models "
                f"T={params.slot_table_size}"
            )
        if self.fabric == AELITE:
            bandwidth = aelite_bandwidth_words_per_cycle(
                channel, params
            )
        else:
            bandwidth = guaranteed_bandwidth_words_per_cycle(
                channel, params
            )
        # Each primitive term is computed once; the composites are
        # assembled here exactly as bounds.worst_case_latency_cycles
        # and bounds.scheduling_jitter_cycles define them (admission
        # control runs this per decision, so no recomputation).
        wait = max_scheduling_wait_cycles(channel.slots, params)
        in_network = in_network_latency_cycles(channel, params)
        pipeline = injection_pipeline_cycles(params)
        return ChannelModel(
            label=channel.label,
            fabric=self.fabric,
            hops=channel.hops,
            slot_count=len(channel.slots),
            slot_table_size=channel.slot_table_size,
            in_network_latency_cycles=in_network,
            max_scheduling_wait_cycles=wait,
            pipeline_cycles=pipeline,
            worst_case_latency_cycles=wait + pipeline + in_network,
            jitter_bound_cycles=wait,
            guaranteed_bandwidth_words_per_cycle=bandwidth,
        )

    def connection_model(
        self,
        connection: AllocatedConnection,
        buffer_words: Optional[int] = None,
    ) -> ConnectionModel:
        """Closed-form model of an allocated connection."""
        params = self.params
        buffer = buffer_words or params.channel_buffer_words
        forward = self.channel_model(connection.forward)
        reverse = self.channel_model(connection.reverse)
        # The credit loop is the two channels' worst cases back to
        # back (wait + pipeline + in-network, each way) — reuse the
        # models instead of re-deriving the slot gaps.
        loop = (
            forward.worst_case_latency_cycles
            + reverse.worst_case_latency_cycles
        )
        return ConnectionModel(
            label=connection.label,
            forward=forward,
            reverse=reverse,
            credit_loop_cycles=loop,
            required_buffer_words=required_buffer_words(
                connection, params, loop_cycles=loop
            ),
            buffer_words=buffer,
            effective_bandwidth_words_per_cycle=max_sustainable_rate(
                connection, params, buffer, loop_cycles=loop
            ),
            credit_limited=is_credit_limited(
                connection, params, buffer, loop_cycles=loop
            ),
        )

    def multicast_model(
        self, tree: AllocatedMulticast
    ) -> MulticastModel:
        """Closed-form model of an allocated multicast tree."""
        branches = tuple(
            self.channel_model(branch) for branch in tree.paths
        )
        return MulticastModel(
            label=tree.label,
            branches=branches,
            required_drain_rate_words_per_cycle=(
                multicast_required_drain_rate(tree.slots, self.params)
            ),
        )

    # -- admission --------------------------------------------------------------

    def admit(
        self,
        request: AnyRequest,
        deadline_cycles: Optional[int] = None,
        min_bandwidth_words_per_cycle: Optional[float] = None,
    ) -> AdmissionVerdict:
        """Dispatch an admission query on the request flavour."""
        if isinstance(request, ConnectionRequest):
            return self.admit_connection(
                request, deadline_cycles, min_bandwidth_words_per_cycle
            )
        if isinstance(request, MulticastRequest):
            return self.admit_multicast(
                request, deadline_cycles, min_bandwidth_words_per_cycle
            )
        if isinstance(request, ChannelRequest):
            return self.admit_channel(
                request, deadline_cycles, min_bandwidth_words_per_cycle
            )
        raise ParameterError(
            f"cannot admit a {type(request).__name__}"
        )

    def _planned_channel(
        self, label: str, path: Tuple[str, ...], count: int
    ) -> AllocatedChannel:
        slots = self.allocator.plan_slots(path, count)
        return AllocatedChannel(
            label=label,
            path=path,
            slots=frozenset(slots),
            slot_table_size=self.params.slot_table_size,
        )

    def _check_constraints(
        self,
        label: str,
        model: AnyModel,
        deadline_cycles: Optional[int],
        min_bandwidth: Optional[float],
        planned: Tuple[int, ...],
        path: Tuple[str, ...],
    ) -> AdmissionVerdict:
        bound = model.worst_case_latency_cycles
        bandwidth = model.guaranteed_bandwidth_words_per_cycle
        if deadline_cycles is not None and bound > deadline_cycles:
            return AdmissionVerdict(
                label=label,
                admitted=False,
                reason=(
                    f"worst-case latency {bound} cycles exceeds the "
                    f"{deadline_cycles}-cycle deadline"
                ),
                worst_case_latency_cycles=bound,
                guaranteed_bandwidth_words_per_cycle=bandwidth,
                planned_slots=planned,
                path=path,
                model=model,
                deadline_cycles=deadline_cycles,
            )
        if min_bandwidth is not None and bandwidth < min_bandwidth:
            return AdmissionVerdict(
                label=label,
                admitted=False,
                reason=(
                    f"guaranteed bandwidth {bandwidth:.4f} words/cycle "
                    f"below the required {min_bandwidth:.4f}"
                ),
                worst_case_latency_cycles=bound,
                guaranteed_bandwidth_words_per_cycle=bandwidth,
                planned_slots=planned,
                path=path,
                model=model,
                deadline_cycles=deadline_cycles,
            )
        return AdmissionVerdict(
            label=label,
            admitted=True,
            reason="ok",
            worst_case_latency_cycles=bound,
            guaranteed_bandwidth_words_per_cycle=bandwidth,
            planned_slots=planned,
            path=path,
            model=model,
            deadline_cycles=deadline_cycles,
        )

    def admit_channel(
        self,
        request: ChannelRequest,
        deadline_cycles: Optional[int] = None,
        min_bandwidth_words_per_cycle: Optional[float] = None,
    ) -> AdmissionVerdict:
        """Admission verdict for one unidirectional channel."""
        path = self.allocator.route(request.src_ni, request.dst_ni)
        try:
            channel = self._planned_channel(
                request.label, path, request.slots
            )
        except AllocationError as error:
            return AdmissionVerdict(
                label=request.label,
                admitted=False,
                reason=str(error),
                path=path,
                deadline_cycles=deadline_cycles,
            )
        return self._check_constraints(
            request.label,
            self.channel_model(channel),
            deadline_cycles,
            min_bandwidth_words_per_cycle,
            tuple(sorted(channel.slots)),
            path,
        )

    def admit_connection(
        self,
        request: ConnectionRequest,
        deadline_cycles: Optional[int] = None,
        min_bandwidth_words_per_cycle: Optional[float] = None,
    ) -> AdmissionVerdict:
        """Admission verdict for a bidirectional connection.

        Forward and reverse traverse opposite *directed* links, so the
        two probes are independent and the combined plan is exactly
        what :meth:`SlotAllocator.allocate_connection` would claim.
        """
        path = self.allocator.route(request.src_ni, request.dst_ni)
        reverse_path = tuple(reversed(path))
        try:
            forward = self._planned_channel(
                f"{request.label}.fwd", path, request.forward_slots
            )
            reverse = self._planned_channel(
                f"{request.label}.rev",
                reverse_path,
                request.reverse_slots,
            )
        except AllocationError as error:
            return AdmissionVerdict(
                label=request.label,
                admitted=False,
                reason=str(error),
                path=path,
                deadline_cycles=deadline_cycles,
            )
        connection = AllocatedConnection(
            label=request.label, forward=forward, reverse=reverse
        )
        try:
            model = self.connection_model(connection)
        except ParameterError as error:
            # The buffer bound does not fit the credit counter — the
            # connection could be claimed but never sustain its rate.
            return AdmissionVerdict(
                label=request.label,
                admitted=False,
                reason=str(error),
                planned_slots=tuple(sorted(forward.slots)),
                path=path,
                deadline_cycles=deadline_cycles,
            )
        return self._check_constraints(
            request.label,
            model,
            deadline_cycles,
            min_bandwidth_words_per_cycle,
            tuple(sorted(forward.slots)),
            path,
        )

    def admit_multicast(
        self,
        request: MulticastRequest,
        deadline_cycles: Optional[int] = None,
        min_bandwidth_words_per_cycle: Optional[float] = None,
    ) -> AdmissionVerdict:
        """Admission verdict for a multicast tree.

        Tree grafting is a search, not a formula, so the oracle runs
        the allocator's own tree construction *speculatively* — one
        journalled snapshot, rolled back before returning — which keeps
        the verdict exact while still never simulating a cycle.
        """
        ledger = self.allocator.ledger
        token = ledger.snapshot()
        try:
            tree = self.allocator.allocate_multicast(request)
        except AllocationError as error:
            ledger.rollback(token)
            return AdmissionVerdict(
                label=request.label,
                admitted=False,
                reason=str(error),
                deadline_cycles=deadline_cycles,
            )
        ledger.rollback(token)
        model = self.multicast_model(tree)
        return self._check_constraints(
            request.label,
            model,
            deadline_cycles,
            min_bandwidth_words_per_cycle,
            tuple(sorted(tree.slots)),
            tree.paths[0].path,
        )

    # -- fleet capacity ---------------------------------------------------------

    def fleet_capacity(self) -> FleetCapacity:
        """Residual capacity of every directed link, from the ledger."""
        size = self.params.slot_table_size
        ledger = self.allocator.ledger
        # topology.links() lists both directions of every link pair.
        free: Dict[Tuple[str, str], int] = {
            edge: ledger.free_slot_count(edge)
            for edge in self.allocator.topology.links()
        }
        saturated = tuple(
            sorted(edge for edge, count in free.items() if count == 0)
        )
        return FleetCapacity(
            slot_table_size=size,
            free_slots_per_link=free,
            total_free_slots=sum(free.values()),
            total_slots=size * len(free),
            saturated_links=saturated,
        )

    def admissible_connection_count(
        self, request: ConnectionRequest
    ) -> int:
        """How many *more* copies of ``request`` the residual schedule
        admits — a capacity figure computed by repeated probing with
        speculative claims, rolled back as one unit."""
        ledger = self.allocator.ledger
        token = ledger.snapshot()
        admitted = 0
        try:
            while True:
                copy = ConnectionRequest(
                    label=f"{request.label}#{admitted}",
                    src_ni=request.src_ni,
                    dst_ni=request.dst_ni,
                    forward_slots=request.forward_slots,
                    reverse_slots=request.reverse_slots,
                )
                try:
                    self.allocator.allocate_connection(copy)
                except AllocationError:
                    break
                admitted += 1
        finally:
            ledger.rollback(token)
        return admitted


# -- module-level convenience -------------------------------------------------


def admit(
    allocator: SlotAllocator,
    request: AnyRequest,
    deadline_cycles: Optional[int] = None,
    min_bandwidth_words_per_cycle: Optional[float] = None,
    fabric: Optional[str] = None,
) -> AdmissionVerdict:
    """One-shot admission query (constructs a throwaway oracle)."""
    oracle = AdmissionOracle(allocator, fabric=fabric)
    return oracle.admit(
        request, deadline_cycles, min_bandwidth_words_per_cycle
    )


def fleet_models(
    oracle: AdmissionOracle,
    connections: List[AllocatedConnection],
    multicasts: Optional[List[AllocatedMulticast]] = None,
) -> Dict[str, AnyModel]:
    """Model every allocated structure of a fleet in one pass."""
    models: Dict[str, AnyModel] = {}
    for connection in connections:
        models[connection.label] = oracle.connection_model(connection)
    for tree in multicasts or []:
        models[tree.label] = oracle.multicast_model(tree)
    return models
