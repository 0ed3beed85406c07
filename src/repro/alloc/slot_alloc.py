"""Contention-free TDM slot allocation.

The design-time counterpart of Section III: "the bandwidth of each link is
split, in the time domain, into a predefined number of timeslots.  Each
connection receives exclusive use of some of these timeslots."  The
allocator keeps a ledger of (directed link, slot) claims; a channel whose
source NI injects in base slot *s* claims slot ``(s + k + 1) mod T`` on
the *k*-th link of its path, so a base slot is admissible only if that
whole diagonal of claims is free — the classical slot-alignment constraint
of contention-free routing.

:class:`LinkSlotLedger` keeps each directed link's occupancy as a single
integer cell and each live claim as one record.  The admissible-set
computation is one cyclic rotation and OR per link of the path
(O(path length) word operations, not O(T x path length) per-slot
probes), claiming a whole channel is one rotated-mask OR per link and
one record, releasing it pops the record and clears each of its cells
with one AND, and speculative allocation uses an O(1) snapshot with a
journal of one entry per claim or release.  The test suite keeps
a dict-of-dicts model of the same book, probed slot by slot, and
``tests/properties/test_alloc_engine_equiv.py`` drives both through the
same workloads: same admissible sets, same picked slots, same errors.

Two slot-picking policies are offered: ``first`` (lowest admissible
slots — compact) and ``spread`` (maximize spacing over the wheel — it
minimizes the worst scheduling wait, see :mod:`repro.analysis.bounds`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import AllocationError, SlotConflictError
from ..params import NetworkParameters
from ..topology import Topology
from .pathfind import cached_route, path_via_tree
from .spec import (
    AllocatedChannel,
    AllocatedConnection,
    AllocatedMulticast,
    ChannelRequest,
    ConnectionRequest,
    MulticastRequest,
)

Edge = Tuple[str, str]
#: A claim record: ``(key, label, base_mask, links)``, ``links`` one
#: ``(edge, cell, mask)`` triple per link (see :class:`LinkSlotLedger`).
Record = Tuple[object, str, Optional[int], List[Tuple[Edge, List[int], int]]]


def iter_mask_slots(mask: int) -> Iterator[int]:
    """Slot numbers of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class LinkSlotLedger:
    """Book-keeping of which connection owns each (link, slot) pair.

    The book has two parts.  ``_links[edge]`` is the link's occupancy
    *cell*, a one-element list ``[occupancy]``: bit *s* is set iff slot
    *s* is claimed on ``edge``, and a cell leaves ``_links`` when it
    empties.  ``_records`` holds one *claim record* per live claim,
    ``(key, label, base_mask, links)``: ``links`` has one ``(edge,
    cell, mask)`` triple per link the claim took slots on, ``mask``
    being the rotated slots it took there (never 0).  Each set bit of a
    cell belongs to exactly one record link, so no per-link label map
    is kept beside the records: :meth:`owner` scans them, for
    diagnostics and error text only.

    A record is keyed by the identity of the diagonal it was probed
    with (``key``); ``base_mask`` is ``None`` once the record is not
    that diagonal's whole rotation (a claim that re-claimed slots its
    label held, or a record a partial release cut).  Releasing a whole
    claim — that diagonal object, its base mask, its label — pops the
    record and clears each cell with one AND: no edge is hashed, no
    diagonal rebuilt, no label looked up per link.  Any other release
    takes the general path, per edge and atomic per edge.  The undo
    journal holds one entry per claim or release.

    A channel or tree is claimed only through :meth:`probe_rotations`
    → :meth:`claim_prepared` and released only through
    :meth:`release_rotations`; besides those, the write surface is the
    per-slot :meth:`claim` (a one-edge :meth:`claim_prepared`) and the
    journalled snapshot/rollback.
    """

    def __init__(self, slot_table_size: int) -> None:
        self.slot_table_size = slot_table_size
        self._links: Dict[Edge, List[int]] = {}
        self._records: Dict[int, Record] = {}
        self._full_mask = (1 << slot_table_size) - 1
        # Undo journal for speculative allocation, appended only while a
        # snapshot is outstanding: one (records dropped, records booked)
        # entry per claim or release (per edge on the general path).
        self._journal: List[Tuple[Tuple[Record, ...], Tuple[Record, ...]]] = []
        self._snapshots = 0
        #: Bumped by every write: what a connection plan is stamped with.
        self.version = 0

    def owner(self, edge: Edge, slot: int) -> Optional[str]:
        """Label owning ``slot`` on ``edge``, or ``None``: a scan of the
        claim records, for diagnostics and error text."""
        cell = self._links.get(edge)
        bit = 1 << (slot % self.slot_table_size)
        if cell is None or not cell[0] & bit:
            return None
        for _, label, _, links in self._records.values():
            for _, link_cell, mask in links:
                if link_cell is cell and mask & bit:
                    return label
        return None  # pragma: no cover - cells and records kept in sync

    def is_free(self, edge: Edge, slot: int) -> bool:
        cell = self._links.get(edge)
        return cell is None or not (
            cell[0] >> (slot % self.slot_table_size)
        ) & 1

    def _held(self, cell: List[int], label: str) -> int:
        """The slots of ``cell`` that ``label``'s records hold."""
        held = 0
        for _, owner, _, links in self._records.values():
            if owner == label:
                for _, link_cell, mask in links:
                    if link_cell is cell:
                        held |= mask
        return held

    def _book(self, record: Record) -> None:
        """Put ``record`` and its slots into the book."""
        self._records[id(record[0])] = record
        links = self._links
        for edge, cell, mask in record[3]:
            if not cell[0]:
                links[edge] = cell
            cell[0] |= mask

    def _unbook(self, record: Record) -> None:
        """Take ``record`` and its slots out of the book."""
        del self._records[id(record[0])]
        self._clear(record[3])

    def _clear(self, triples: Iterable[Tuple[Edge, List[int], int]]) -> None:
        """Clear each ``(edge, cell, mask)``'s slots; an emptied cell
        leaves the store."""
        links = self._links
        for edge, cell, mask in triples:
            left = cell[0] & ~mask
            cell[0] = left
            if not left:
                del links[edge]

    # -- claims ----------------------------------------------------------------

    def claim(self, edge: Edge, slot: int, label: str) -> None:
        """Claim one (link, slot) pair; a re-claim by the owner is a
        no-op.

        Raises:
            SlotConflictError: if already owned by a different label.
        """
        self.claim_prepared(
            (((edge, 0),), (None,)),
            1 << (slot % self.slot_table_size),
            label,
        )

    def probe_rotations(self, diagonal: Sequence[Tuple[Edge, int]]):
        """The ledger's one admissibility read, with a claim context.

        ``diagonal`` holds one ``(edge, offset)`` pair per path link:
        base slot *b* is admissible iff slot ``(b + offset) mod T`` is
        free on every edge.  Returns ``(admissible mask, context)``: bit
        *b* of the mask is set iff *b* is admissible, and the context
        passed to :meth:`claim_prepared` is the diagonal with the cells
        the probe looked up.  The context is only valid until the next
        ledger mutation: probe, pick, claim — nothing in between.
        """
        # Rotate-and-OR: base *b* collides on a link with offset *o*
        # iff bit (b + o) mod T of its occupancy is set, i.e. iff bit
        # *b* of the occupancy rotated right by *o* is.  The cells
        # looked up here are the context, so claim_prepared never
        # hashes the edge tuples again.  Once every base is blocked the
        # probe stops: nothing claims a zero mask (a request asks for
        # at least one slot), so the context may stay partial.
        size = self.slot_table_size
        full = self._full_mask
        links = self._links
        blocked = 0
        cells: List[Optional[List[int]]] = []
        append = cells.append
        for edge, offset in diagonal:
            cell = links.get(edge)
            append(cell)
            if cell is not None:
                shift = offset % size
                occupied = cell[0]
                blocked |= (
                    (occupied >> shift) | (occupied << (size - shift))
                ) & full
                if blocked == full:
                    return 0, (diagonal, cells)
        return full & ~blocked, (diagonal, cells)

    def claim_prepared(self, context, base_mask: int, label: str) -> None:
        """Claim a whole channel: ``base_mask`` rotated along the claim
        diagonal of a context from :meth:`probe_rotations`, booked as
        one claim record.

        Atomic: each edge's mask is validated in full (lowest
        conflicting slot reported) before any of its slots is claimed,
        and on conflict everything already claimed here is taken back
        before the error propagates.

        Raises:
            SlotConflictError: if a slot is owned by a different label.
        """
        diagonal, cells = context
        size = self.slot_table_size
        full = self._full_mask
        links = self._links
        self.version += 1
        booked: List[Tuple[Edge, List[int], int]] = []
        append = booked.append
        whole: Optional[int] = base_mask
        for (edge, offset), cell in zip(diagonal, cells):
            shift = offset % size
            mask = (
                (base_mask << shift) | (base_mask >> (size - shift))
            ) & full
            if cell is None:
                # Re-check: an earlier link of this very channel may
                # have created the cell (a path can revisit an edge).
                cell = links.get(edge)
                if cell is None:
                    if not mask:
                        continue
                    cell = links[edge] = [0]
            occupied = cell[0]
            if occupied & mask:
                whole = None
                # Slots this claim took on an earlier visit of the edge,
                # or that its label already holds, re-claim as no-ops.
                foreign = mask & occupied & ~self._held(cell, label)
                for _, link_cell, bits in booked:
                    if link_cell is cell:
                        foreign &= ~bits
                if foreign:
                    slot = (foreign & -foreign).bit_length() - 1
                    owner = self.owner(edge, slot)
                    self._clear(booked)
                    raise SlotConflictError(
                        f"link {edge} slot {slot} owned by {owner!r}; "
                        f"cannot claim for {label!r}"
                    )
                mask &= ~occupied
                if not mask:
                    continue
            cell[0] = occupied | mask
            append((edge, cell, mask))
        if not booked:
            return
        record: Record = (diagonal, label, whole, booked)
        records = self._records
        if records.setdefault(id(diagonal), record) is not record:
            # The diagonal already keys a live record: key this one by a
            # fresh object, which no release can name.
            record = ((diagonal,), label, None, booked)
            records[id(record[0])] = record
        if self._snapshots:
            self._journal.append(((), (record,)))

    def release_rotations(
        self,
        diagonal: Sequence[Tuple[Edge, int]],
        base_mask: int,
        label: str,
    ) -> None:
        """Release a whole channel claimed via :meth:`claim_prepared`.

        The release of a whole claim — the very diagonal object it was
        probed with, its base mask and its label — pops the claim's
        record and clears each of its cells with one AND: the record is
        the validation.  Any other release takes the general path,
        atomic per edge: each edge's mask is validated in full (lowest
        slot not held reported) before any of its slots is released.

        Raises:
            SlotConflictError: if a slot is not owned by ``label``.
        """
        self.version += 1
        records = self._records
        record = records.get(id(diagonal))
        if (
            record is not None
            and record[0] is diagonal
            and record[2] == base_mask
            and record[1] == label
        ):
            del records[id(diagonal)]
            self._clear(record[3])
            if self._snapshots:
                self._journal.append(((record,), ()))
            return
        size = self.slot_table_size
        full = self._full_mask
        for edge, offset in diagonal:
            shift = offset % size
            self._release_edge(
                edge,
                ((base_mask << shift) | (base_mask >> (size - shift)))
                & full,
                label,
            )

    def _release_edge(self, edge: Edge, mask: int, label: str) -> None:
        """The general path's one edge: release ``mask`` on ``edge``
        from ``label``'s records, or raise before touching any."""
        cell = self._links.get(edge)
        held = 0 if cell is None else self._held(cell, label)
        missing = mask & ~held
        if missing:
            slot = (missing & -missing).bit_length() - 1
            owner = self.owner(edge, slot)
            raise SlotConflictError(
                f"link {edge} slot {slot} owned by {owner!r}, not "
                f"{label!r}; cannot release"
            )
        if not mask:
            return
        cut = [
            record
            for record in self._records.values()
            if record[1] == label
            and any(link[1] is cell and link[2] & mask for link in record[3])
        ]
        kept: List[Record] = []
        for record in cut:
            self._unbook(record)
            left = [
                (link_edge, link_cell, bits & ~mask if link_cell is cell else bits)
                for link_edge, link_cell, bits in record[3]
            ]
            left = [link for link in left if link[2]]
            if left:
                kept.append((record[0], label, None, left))
                self._book(kept[-1])
        if self._snapshots:
            self._journal.append((tuple(cut), tuple(kept)))

    # -- speculative allocation ------------------------------------------------

    def snapshot(self) -> int:
        """Open a speculation scope; O(1).

        Every write until the matching :meth:`rollback` or
        :meth:`commit` is journalled.  Scopes nest: an inner rollback
        undoes only the inner scope's writes.
        """
        self._snapshots += 1
        return len(self._journal)

    def rollback(self, token: int) -> None:
        """Undo every write since ``snapshot`` returned ``token``."""
        self.version += 1
        while len(self._journal) > token:
            dropped, booked = self._journal.pop()
            for record in booked:
                self._unbook(record)
            for record in dropped:
                self._book(record)
        self._close_scope()

    def commit(self, token: int) -> None:
        """Keep every write since ``snapshot`` returned ``token``."""
        del token
        self._close_scope()

    def _close_scope(self) -> None:
        if self._snapshots <= 0:
            raise AllocationError(
                "ledger snapshot underflow: rollback/commit without "
                "a matching snapshot"
            )
        self._snapshots -= 1
        if self._snapshots == 0:
            self._journal.clear()

    # -- queries ---------------------------------------------------------------

    def link_utilization(self, edge: Tuple[str, str]) -> float:
        """Fraction of slots claimed on one directed link."""
        size = self.slot_table_size
        return (size - self.free_slot_count(edge)) / size

    def free_slot_count(self, edge: Tuple[str, str]) -> int:
        """Unclaimed slots remaining on one directed link — the
        residual-capacity input of the admission oracle."""
        cell = self._links.get(edge)
        claimed = 0 if cell is None else cell[0].bit_count()
        return self.slot_table_size - claimed

    def total_claims(self) -> int:
        return sum(cell[0].bit_count() for cell in self._links.values())

    def claimed_edges(self) -> List[Tuple[str, str]]:
        """Directed links currently carrying at least one claim."""
        return sorted(self._links)


def _spread_pick(candidates: Sequence[int], count: int, size: int) -> List[int]:
    """Pick ``count`` slots from ``candidates``, spaced over the wheel.

    Spacing is computed over actual slot positions modulo ``size`` (not
    candidate-list indices): starting from the lowest candidate, each
    subsequent pick is the free candidate cyclically closest to the ideal
    equidistant position ``first + i * size / count`` (ties go to the
    lower slot number).  This is the spacing the worst-case
    scheduling-wait argument of :mod:`repro.analysis.bounds` assumes.
    """
    ordered = sorted(candidates)
    if count >= len(ordered):
        return list(ordered)
    first = ordered[0]
    picked = [first]
    available = ordered[1:]
    for i in range(1, count):
        target = (first + i * size / count) % size
        # The cyclically-nearest available slot is one of the two
        # sorted-order neighbours of the target position.
        index = bisect_left(available, target)
        length = len(available)
        best = None
        best_key = None
        for neighbour in (
            available[index % length],
            available[index - 1],
        ):
            key = (
                min(
                    (neighbour - target) % size,
                    (target - neighbour) % size,
                ),
                neighbour,
            )
            if best_key is None or key < best_key:
                best_key = key
                best = neighbour
        picked.append(best)
        available.remove(best)
    return sorted(picked)


def _tree_diagonal(
    branches: Sequence[Sequence[str]],
) -> List[Tuple[Tuple[str, str], int]]:
    """One ``(edge, slot offset)`` pair per distinct edge of a
    multicast tree, in first-appearance order: an edge *k* links deep
    is entered *k + 1* slots after injection, on every branch."""
    depths: Dict[Tuple[str, str], int] = {}
    for branch in branches:
        for k in range(len(branch) - 1):
            depths.setdefault((branch[k], branch[k + 1]), k)
    return [(edge, k + 1) for edge, k in depths.items()]


def _slot_mask(slots) -> int:
    mask = 0
    for slot in slots:
        mask |= 1 << slot
    return mask


class ConnectionPlan(NamedTuple):
    """A connection planned, not claimed: a refusal keeps its ``(error
    class, message)``, not the exception and its traceback."""

    stamp: Tuple[object, ...]
    path: Tuple[str, ...]
    #: ``(channel, probe context)`` for forward, then reverse.
    channels: Tuple[Tuple[AllocatedChannel, object], ...] = ()
    error: Optional[Tuple[type, str]] = None


@dataclass
class SlotAllocator:
    """Allocates channels, connections, and multicast trees.

    Attributes:
        topology: The network the schedule is computed for.
        params: Network parameters (for the wheel size T).
        routing: ``"xy"`` (meshes) or ``"shortest"``.
        policy: Slot-picking policy, ``"first"`` or ``"spread"``.
    """

    topology: Topology
    params: NetworkParameters
    routing: str = "shortest"
    policy: str = "spread"
    ledger: LinkSlotLedger = field(init=False)

    def __post_init__(self) -> None:
        if self.routing not in ("xy", "shortest"):
            raise AllocationError(f"unknown routing {self.routing!r}")
        if self.policy not in ("first", "spread"):
            raise AllocationError(f"unknown policy {self.policy!r}")
        self.ledger = LinkSlotLedger(self.params.slot_table_size)
        self._plan: Optional[ConnectionPlan] = None

    # -- path & base-slot machinery ---------------------------------------------

    def route(self, src_ni: str, dst_ni: str) -> Tuple[str, ...]:
        """The path this allocator's routing policy would choose —
        public so the admission oracle can plan on it, and report it
        when it rejects the request."""
        return cached_route(self.topology, self.routing, src_ni, dst_ni)

    def _claim_diagonal(
        self,
        path: Sequence[str],
        link_delays: Optional[Sequence[int]],
    ) -> List[Tuple[Tuple[str, str], int]]:
        """One ``(edge, slot offset)`` pair per link of ``path``.

        ``link_delays`` (extra slots per link, for pipelined links)
        shifts the diagonal exactly as
        :meth:`~repro.alloc.spec.AllocatedChannel.link_claims` does.
        """
        if not link_delays:
            return [
                ((path[k], path[k + 1]), k + 1)
                for k in range(len(path) - 1)
            ]
        diagonal: List[Tuple[Tuple[str, str], int]] = []
        accumulated = 0
        for k in range(len(path) - 1):
            diagonal.append(
                ((path[k], path[k + 1]), k + 1 + accumulated)
            )
            accumulated += link_delays[k]
        return diagonal

    def _pick_from_mask(self, mask: int, count: int) -> List[int]:
        """Pick ``count`` base slots straight from an admissibility mask.

        The common cases stay in the mask domain: ``first`` strips the
        ``count`` lowest set bits, and a single-slot ``spread`` request
        is just the lowest admissible slot (the spread seed).  Only a
        multi-slot spread decodes the full candidate list.
        """
        size = self.params.slot_table_size
        picked: List[int] = []
        if self.policy == "first" or count == 1:
            while mask and len(picked) < count:
                low = mask & -mask
                picked.append(low.bit_length() - 1)
                mask ^= low
            return picked
        if size % count == 0 and count < mask.bit_count():
            # Every ideal position first + i*size/count is an integer
            # slot, so the cyclically-nearest free slot is found by
            # rotating the availability mask to put the target at bit 0:
            # the lowest set bit is the distance going up, the highest
            # the distance going down (ties to the lower slot number) —
            # no candidate-list decode needed.
            full = (1 << size) - 1
            step = size // count
            first = (mask & -mask).bit_length() - 1
            picked.append(first)
            available = mask ^ (1 << first)
            for i in range(1, count):
                target = (first + i * step) % size
                rotated = (
                    (available >> target)
                    | (available << (size - target))
                ) & full
                up = (rotated & -rotated).bit_length() - 1
                down = size - (rotated.bit_length() - 1)
                if up < down:
                    slot = (target + up) % size
                elif down < up:
                    slot = (target - down) % size
                else:
                    slot = min(
                        (target + up) % size, (target - down) % size
                    )
                picked.append(slot)
                available ^= 1 << slot
            return sorted(picked)
        while mask:
            low = mask & -mask
            picked.append(low.bit_length() - 1)
            mask ^= low
        return _spread_pick(picked, count, size)

    # -- channel allocation --------------------------------------------------------

    def _picked_channel(
        self,
        request: ChannelRequest,
        path: Tuple[str, ...],
        link_delays: Optional[Sequence[int]],
        mask: int,
        diagonal: Sequence[Tuple[Edge, int]],
    ) -> AllocatedChannel:
        """``request`` slotted on ``path`` from the admissible ``mask``
        of its one probe, along ``diagonal``.

        Raises:
            AllocationError: if fewer than ``request.slots`` base slots
                are admissible.
        """
        if mask.bit_count() < request.slots:
            raise AllocationError(
                f"channel {request.label!r}: needs {request.slots} "
                f"slots on path {path}, only "
                f"{mask.bit_count()} admissible"
            )
        return AllocatedChannel(
            label=request.label,
            path=path,
            slots=frozenset(self._pick_from_mask(mask, request.slots)),
            slot_table_size=self.params.slot_table_size,
            link_delays=tuple(link_delays) if link_delays else (),
            diagonal=diagonal,
        )

    def plan_channel(
        self,
        request: ChannelRequest,
        path: Optional[Sequence[str]] = None,
        link_delays: Optional[Sequence[int]] = None,
    ) -> Tuple[AllocatedChannel, object]:
        """Route, probe and pick one channel *without claiming it*.

        Returns ``(channel, context)``: the channel
        :meth:`allocate_channel` would claim right now, and the probe
        context that claims it (valid until the next ledger write).
        This is the only channel planner — the allocator claims what it
        returns and the admission oracle (:mod:`repro.analysis.model`)
        reports it; a connection's plans pass from one to the other
        under a version stamp (:meth:`plan_connection`), so the two
        cannot disagree.

        Raises:
            AllocationError: if too few admissible base slots remain on
                the chosen path.
        """
        chosen_path = tuple(path) if path is not None else self.route(
            request.src_ni, request.dst_ni
        )
        diagonal = self._claim_diagonal(chosen_path, link_delays)
        mask, context = self.ledger.probe_rotations(diagonal)
        return (
            self._picked_channel(
                request, chosen_path, link_delays, mask, diagonal
            ),
            context,
        )

    def allocate_channel(
        self,
        request: ChannelRequest,
        path: Optional[Sequence[str]] = None,
        link_delays: Optional[Sequence[int]] = None,
    ) -> AllocatedChannel:
        """Route and slot one unidirectional channel: the
        :meth:`plan_channel` plan, claimed.  ``link_delays`` passes
        extra per-link pipeline slots (pipelined-link extension).
        """
        channel, context = self.plan_channel(request, path, link_delays)
        self.ledger.claim_prepared(
            context, _slot_mask(channel.slots), channel.label
        )
        return channel

    def release_channel(self, channel: AllocatedChannel) -> None:
        """Return a channel's claims to the free pool: the diagonal it
        was planned on names its claim record; a channel built
        elsewhere (deserialized, say) has its diagonal rebuilt."""
        diagonal = channel.diagonal
        if diagonal is None:
            diagonal = self._claim_diagonal(
                channel.path, channel.link_delays or None
            )
        self.ledger.release_rotations(
            diagonal, _slot_mask(channel.slots), channel.label
        )

    # -- connections ------------------------------------------------------------------

    def _stamp(
        self, request: ConnectionRequest, path: Optional[Sequence[str]]
    ) -> Tuple[object, ...]:
        """What a connection plan reads that can change under it."""
        path = None if path is None else tuple(path)
        return request, path, self.ledger.version, self.topology.version

    def plan_connection(
        self,
        request: ConnectionRequest,
        path: Optional[Sequence[str]] = None,
    ) -> ConnectionPlan:
        """Route once, then plan the forward channel on the route and
        the reverse one on the reversed route, claiming nothing.

        The plan is the allocator's one outstanding plan: the next
        :meth:`allocate_connection` claims it if its stamp (request,
        ``path``, ledger and topology versions) still matches, and drops
        it either way — a handover, not a cache.
        """
        chosen: Tuple[str, ...] = ()
        stamp = self._stamp(request, path)
        try:
            chosen = tuple(path) if path is not None else self.route(
                request.src_ni, request.dst_ni
            )
            forward = self.plan_channel(request.forward, chosen)
            reverse = self.plan_channel(request.reverse, chosen[::-1])
        except AllocationError as error:
            plan = ConnectionPlan(stamp, chosen, error=(type(error), str(error)))
        else:
            plan = ConnectionPlan(stamp, chosen, (forward, reverse))
        self._plan = plan
        return plan

    def allocate_connection(
        self,
        request: ConnectionRequest,
        path: Optional[Sequence[str]] = None,
    ) -> AllocatedConnection:
        """Claim a connection's :meth:`plan_connection` plan: the
        outstanding one if its stamp matches, else a fresh one.

        The reverse channel uses the reversed forward path, so both
        directions traverse the same physical route (as daelite's paired
        credit wiring expects).  ``path`` overrides the routing policy
        for the forward direction — fault recovery uses it to steer a
        re-allocated connection around a failed link when the policy
        route is unusable.  On failure nothing stays claimed — the
        forward channel's speculative claims are rolled back in one
        ledger operation.
        """
        plan = self._plan
        if plan is None or plan.stamp != self._stamp(request, path):
            plan = self.plan_connection(request, path)
        self._plan = None
        if plan.error is not None:
            raise plan.error[0](plan.error[1])
        token = self.ledger.snapshot()
        try:
            for channel, context in plan.channels:
                self.ledger.claim_prepared(
                    context, _slot_mask(channel.slots), channel.label
                )
        except AllocationError:
            self.ledger.rollback(token)
            raise
        self.ledger.commit(token)
        (forward, _), (reverse, _) = plan.channels
        return AllocatedConnection(
            label=request.label, forward=forward, reverse=reverse
        )

    def release_connection(self, connection: AllocatedConnection) -> None:
        self.release_channel(connection.forward)
        self.release_channel(connection.reverse)

    # -- multicast ---------------------------------------------------------------------

    def plan_multicast(
        self, request: MulticastRequest
    ) -> Tuple[AllocatedMulticast, object]:
        """Build and slot a multicast tree *without claiming it*.

        Destinations are grafted one by one onto the growing tree at
        their cheapest graft point; the base slots must then be free on
        *every* tree edge simultaneously (all branches share the
        injection slots).  Returns ``(tree, context)`` as
        :meth:`plan_channel` does.

        Raises:
            AllocationError: if no slot set satisfies the whole tree.
        """
        src = request.src_ni
        tree_path_to: Dict[str, Tuple[str, ...]] = {src: (src,)}
        branches: List[Tuple[str, ...]] = []
        for dst in sorted(
            request.dst_nis,
            key=lambda d: len(
                cached_route(self.topology, "shortest", src, d)
            ),
        ):
            branch = path_via_tree(
                self.topology,
                list(tree_path_to),
                tree_path_to,
                dst,
            )
            branches.append(branch)
            for position in range(1, len(branch)):
                tree_path_to.setdefault(
                    branch[position], branch[: position + 1]
                )
        size = self.params.slot_table_size
        tree_diagonal = _tree_diagonal(branches)
        mask, context = self.ledger.probe_rotations(tree_diagonal)
        if mask.bit_count() < request.slots:
            raise AllocationError(
                f"multicast {request.label!r}: needs {request.slots} "
                f"slots over {len(tree_diagonal)} tree links, only "
                f"{mask.bit_count()} admissible"
            )
        slots = frozenset(self._pick_from_mask(mask, request.slots))
        tree = AllocatedMulticast(
            label=request.label,
            paths=tuple(
                AllocatedChannel(
                    label=f"{request.label}->{branch[-1]}",
                    path=branch,
                    slots=slots,
                    slot_table_size=size,
                )
                for branch in branches
            ),
            diagonal=tree_diagonal,
        )
        return tree, context

    def allocate_multicast(
        self, request: MulticastRequest
    ) -> AllocatedMulticast:
        """Build a multicast tree and slot it: the
        :meth:`plan_multicast` plan, claimed."""
        tree, context = self.plan_multicast(request)
        self.ledger.claim_prepared(
            context, _slot_mask(tree.slots), tree.label
        )
        return tree

    def release_multicast(self, tree: AllocatedMulticast) -> None:
        """Return a tree's claims to the free pool, as
        :meth:`release_channel` does a channel's."""
        diagonal = tree.diagonal
        if diagonal is None:
            diagonal = _tree_diagonal([branch.path for branch in tree.paths])
        self.ledger.release_rotations(
            diagonal, _slot_mask(tree.slots), tree.label
        )
