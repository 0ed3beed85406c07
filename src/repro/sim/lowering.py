"""Lowering a configured daelite data plane: op table and trajectories.

Everything here is a pure function of the structural schedule image
(slot tables, NI channel maps, the fixed wiring) — what
:func:`repro.sim.compiled._lower` memoizes per network and what
a further substrate would supply in place of an executor:

* the **op table** over integer-named registers — the proof artifact
  (``repro.staticcheck`` OP001–OP005 consume its stable form,
  :class:`LoweredArtifacts`), held as the phase-independent pipeline
  ops once and, per wheel phase, only the ops the slot tables decide;
* one **trajectory** per injection seed, found by walking the table:
  the register a launched phit holds at each step, the step it enters
  the link, one leaf per arrival, the links each leaf's words cross —
  what the engine executes instead of moving phits hop by hop;
* the inverse ``(register, phase) -> (trajectory, step)`` index and the
  per-channel **owner plans** (owned phases, credit-collecting phases,
  cycles to the next owned phase).

The walk doubles as the static occupancy proof: a reachable ``(register,
phase)`` without a consumer would drop the word, one reached twice
would collide two phits; either refuses the schedule with a typed
``INCONSISTENT_SCHEDULE`` and the stepped kernels run it with their
runtime checks instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .kernel import CompileRefusal, Register

# Op-table operation tags (op[0]).
_OP_MOVE = 0  # NI injection stage -> NI output register
_OP_SEND = 1  # router crossbar register -> outgoing data link
_OP_INJECT = 2  # NI output register -> NI-router link (records injection)
_OP_FORWARD = 3  # router input link -> crossbar registers (multicast fans)
_OP_ARRIVE = 4  # NI input link -> destination channel queue

#: Stable string names of the op-table tags.  The introspection form
#: (:func:`render_artifacts`) speaks these so external verifiers never
#: depend on the private integer encoding.
OP_NAMES = {
    _OP_MOVE: "move",
    _OP_SEND: "send",
    _OP_INJECT: "inject",
    _OP_FORWARD: "forward",
    _OP_ARRIVE: "arrive",
}


@dataclass(frozen=True)
class LoweredOp:
    """One phase-table op in the stable introspection form.

    ``src`` is the register column the op consumes this phase; ``dsts``
    are the columns it drives entering the next wheel phase (empty for
    ``"arrive"``, which terminates the schedule walk); ``site`` names
    the link/router/NI the op belongs to, for diagnostics only.
    """

    kind: str
    src: int
    dsts: Tuple[int, ...]
    site: str


@dataclass(frozen=True)
class LoweredTrajectory:
    """What the executor does with one injection seed, in stable form.

    Step ``k`` is ``k`` cycles after the phit entered the seed register
    (so it is consumed in wheel phase ``seed phase + k``).  ``steps[k]``
    are the register columns holding the phit then, ``inject_step`` the
    step whose op is ``"inject"`` (where the injection is recorded),
    ``arrivals`` the ``(step, site)`` of every ``"arrive"`` and
    ``effects[k]`` the ``(site, amount)`` counter bumps of the ops
    executed at step ``k``: 1 per link driven (its ``words_carried``).
    Every tuple is sorted.
    """

    seed: Tuple[int, int]
    steps: Tuple[Tuple[int, ...], ...]
    inject_step: Optional[int]
    arrivals: Tuple[Tuple[int, str], ...]
    effects: Tuple[Tuple[Tuple[str, int], ...], ...]


@dataclass(frozen=True)
class LoweredArtifacts:
    """The compile products that staticcheck's op-table prover consumes.

    This is the provability contract for data-plane substrates (see
    DESIGN.md §12): a substrate is checkable by the OP rules iff it can
    render its lowering as per-phase op tuples, the injection ``seeds``
    — ``(register, phase)`` pairs driven from outside the table walk —
    the claimed ``occupancy`` bitmasks (bit ``p`` set iff the column
    may hold a phit entering wheel phase ``p``) and, one per seed, the
    ``trajectories`` the executor runs instead of walking the table.
    """

    wheel: int
    register_names: Tuple[str, ...]
    phase_ops: Tuple[Tuple[LoweredOp, ...], ...]
    seeds: Tuple[Tuple[int, int], ...]
    occupancy: Tuple[int, ...]
    trajectories: Tuple[LoweredTrajectory, ...] = ()


class _Leaf:
    """One arrival of a trajectory: where a launched phit ends.

    ``step`` is the trajectory step of the ``ARRIVE`` op, ``path`` the
    register the phit holds at each step on the way there.  ``order`` is
    the arrival's rank among one cycle's events (NI registration order,
    an NI's arrival before its link entry — naive stepping's
    order), ``entry_order`` that of its trajectory's link entry.
    ``links`` (driven at ``link_steps``) are the ``words_carried``
    this leaf accounts for: every link op of the tree belongs to
    exactly one leaf whose path crosses it, so the links a phit has
    not crossed are those of its pending leaves.
    """

    __slots__ = (
        "ni",
        "channel",
        "order",
        "entry_order",
        "dest_id",
        "ni_owners",
        "step",
        "path",
        "link_steps",
        "links",
    )

    ni: Any
    channel: int
    order: int
    entry_order: int
    #: Dense id of the ``(NI, channel)`` the leaf delivers into.
    dest_id: int
    #: Owner-plan index by source channel, for the leaf's NI.
    ni_owners: Dict[int, int]
    step: int
    path: Tuple[int, ...]
    link_steps: List[int]
    links: List[Any]


class _Trajectory:
    """Everything that happens to a phit launched from one seed.

    ``launch`` holds one ``(delay, order, leaf)`` per arrival, ``delay``
    counted from the injection decision's cycle; ``entry_delay`` /
    ``entry_order`` place the link entry (where the injection is
    recorded) the same way.  ``tid`` indexes the engine's per-trajectory
    launch counts.
    """

    __slots__ = (
        "tid",
        "seed",
        "entry_delay",
        "entry_order",
        "launch",
        "leaves",
    )

    tid: int
    seed: Tuple[int, int]
    entry_delay: int
    entry_order: int
    launch: Tuple[Tuple[int, int, _Leaf], ...]
    leaves: Tuple[_Leaf, ...]


class _Slot:
    """One wheel phase a channel owns: the trajectory its phits take,
    whether the phase collects credits, and the cycles to the channel's
    next owned phase."""

    __slots__ = ("trajectory", "collect", "gap")

    trajectory: _Trajectory
    collect: bool
    gap: int


class _OwnerPlan:
    """The injection schedule of one NI channel: ``slots[phase]`` for
    the phases it owns (``None`` elsewhere) and ``first[phase]``, the
    cycles from ``phase`` to the first owned phase at or after it."""

    __slots__ = ("ni", "ni_index", "channel", "slots", "first")

    ni: Any
    ni_index: int
    channel: int
    slots: List[Any]
    first: List[int]


class _Lowered:
    """The schedule-dependent compile products (see
    :func:`_lower_schedule`), memoized as one unit."""

    __slots__ = (
        "regs",
        "static_ops",
        "phase_ops",
        "occupancy",
        "trajectories",
        "index",
        "owners",
        "dest_keys",
        "ring_size",
    )

    regs: List[Register]
    #: ``register -> op`` of every wheel phase: the NI stage ``MOVE``,
    #: the NI output ``INJECT`` and the router crossbar ``SEND``.
    static_ops: Dict[int, tuple]
    #: ``phase_ops[phase]``: ``register -> op`` of that phase only, the
    #: ``FORWARD`` / ``ARRIVE`` ops the slot tables decide.  Its
    #: registers are links, so no key is also in ``static_ops``.
    phase_ops: List[Dict[int, tuple]]
    occupancy: List[int]
    trajectories: List[_Trajectory]
    #: ``index[phase][register] -> (trajectory id, step)``.
    index: List[Dict[int, Tuple[int, int]]]
    owners: List[_OwnerPlan]
    #: ``(NI name, arrival channel) -> dest_id`` of the leaves.
    dest_keys: Dict[Tuple[str, int], int]
    ring_size: int


def _lower_schedule(network: Any) -> Any:
    """Build the schedule-dependent compile products, or refuse.

    Returns a :class:`_Lowered`: everything that is a pure function of
    the structural schedule image (and the fixed network wiring) —
    which is exactly what the lowering cache may memoize.  The traffic
    roster, steady period and replay eligibility are *not* here: they
    depend on live components and are recomputed on every compile.
    """
    params = network.params
    table = params.slot_table_size
    wps = params.words_per_slot
    wheel = table * wps

    regs: List[Register] = []
    rid_by_reg: Dict[int, int] = {}

    def rid_of(register: Register) -> int:
        key = id(register)
        rid = rid_by_reg.get(key)
        if rid is None:
            rid = len(regs)
            rid_by_reg[key] = rid
            regs.append(register)
        return rid

    for link in network.links.values():
        rid_of(link.register)

    static_ops: Dict[int, tuple] = {}
    phase_ops: List[Dict[int, tuple]] = [{} for _ in range(wheel)]

    for router in network.routers.values():
        xbar_rids = [rid_of(reg) for reg in router._xbar_regs]
        for output, xbar_rid in enumerate(xbar_rids):
            out_link = router.out_links[output]
            if out_link is not None:
                static_ops[xbar_rid] = (
                    _OP_SEND,
                    rid_of(out_link.register),
                    out_link,
                )
        # The outputs that forward in any slot, with their columns: an
        # idle router (most of them, early in a set-up) costs nothing.
        columns = [
            (xbar_rids[output], column)
            for output, column in enumerate(router.slot_table.image())
            if column.count(None) != table
        ]
        for lagged in range(table if columns else 0):
            by_input: Dict[int, List[int]] = {}
            for xbar_rid, column in columns:
                input_port = column[lagged]
                if input_port is not None:
                    by_input.setdefault(input_port, []).append(xbar_rid)
            if not by_input:
                continue
            # The phases whose lagged slot this is: the slot's own
            # phases, one later.
            for phase in _lagged_phases(lagged, wps, wheel):
                for input_port, dsts in by_input.items():
                    in_link = router.in_links[input_port]
                    if in_link is None:
                        continue
                    phase_ops[phase][rid_of(in_link.register)] = (
                        _OP_FORWARD,
                        tuple(dsts),
                        router,
                    )

    # Per NI: the static pipeline ops, the arrival ops, and one owner
    # plan per channel holding injection slots (its seeds).
    owners: List[_OwnerPlan] = []
    ni_owners: List[Dict[int, int]] = []
    for ni_index, ni in enumerate(network.nis.values()):
        stage_rid = rid_of(ni._stage_reg)
        out_rid = rid_of(ni._out_reg)
        static_ops[stage_rid] = (_OP_MOVE, out_rid)
        if ni.injection_table.occupied():
            if ni.out_link is None:
                return CompileRefusal(
                    CompileRefusal.INCONSISTENT_SCHEDULE,
                    f"{ni.name} holds injection slots but has no "
                    f"outgoing link",
                )
            static_ops[out_rid] = (
                _OP_INJECT,
                rid_of(ni.out_link.register),
                ni.out_link,
            )
        by_channel: Dict[int, int] = {}
        ni_owners.append(by_channel)
        # Only the granted slots are visited: an idle NI costs nothing.
        for granted in ni.injection_table.occupied():
            channel = ni.injection_table.channel(granted)
            for phase in range(granted * wps, (granted + 1) * wps):
                owner_index = by_channel.get(channel)
                if owner_index is None:
                    owner_index = by_channel[channel] = len(owners)
                    plan = _OwnerPlan()
                    plan.ni = ni
                    plan.ni_index = ni_index
                    plan.channel = channel
                    plan.slots = [None] * wheel
                    owners.append(plan)
                slot = _Slot()
                slot.collect = phase % wps == 0
                owners[owner_index].slots[phase] = slot
        if ni.in_link is not None:
            in_rid = rid_of(ni.in_link.register)
            for lagged in ni.arrival_table.occupied():
                arrival = ni.arrival_table.channel(lagged)
                for phase in _lagged_phases(lagged, wps, wheel):
                    phase_ops[phase][in_rid] = (
                        _OP_ARRIVE,
                        ni,
                        arrival,
                        ni_index,
                    )
    for plan in owners:
        slots = plan.slots
        ahead = wheel + next(
            phase for phase in range(wheel) if slots[phase] is not None
        )
        plan.first = first = [0] * wheel
        for phase in reversed(range(wheel)):
            if slots[phase] is not None:
                ahead = phase
            first[phase] = ahead - phase
        for phase, slot in enumerate(slots):
            if slot is not None:
                slot.gap = 1 + first[(phase + 1) % wheel]

    # Static occupancy walk, one seed at a time: every (register,
    # phase) a phit can reach must have exactly one consumer.  A
    # missing consumer means the schedule would drop the word (the
    # stepped kernels' runtime checks handle that); a doubly-reached
    # (register, phase) means two writers could collide.  Either way:
    # refuse, fall back.  What the walk finds on the way *is* the
    # seed's trajectory.
    occupancy = [0] * len(regs)
    index: List[Dict[int, tuple]] = [{} for _ in range(wheel)]
    trajectories: List[_Trajectory] = []
    dest_keys: Dict[Tuple[str, int], int] = {}
    longest = 0
    for plan in owners:
        stage_rid = rid_by_reg[id(plan.ni._stage_reg)]
        for phase, slot in enumerate(plan.slots):
            if slot is None:
                continue
            walked = _walk_seed(
                regs,
                static_ops,
                phase_ops,
                occupancy,
                index,
                dest_keys,
                ni_owners,
                len(trajectories),
                (stage_rid, (phase + 1) % wheel),
                2 * plan.ni_index + 1,
            )
            if isinstance(walked, CompileRefusal):
                return walked
            slot.trajectory = walked
            trajectories.append(walked)
            for leaf in walked.leaves:
                longest = max(longest, leaf.step)

    lowered = _Lowered()
    lowered.regs = regs
    lowered.static_ops = static_ops
    lowered.phase_ops = phase_ops
    lowered.occupancy = occupancy
    lowered.trajectories = trajectories
    lowered.index = index
    lowered.owners = owners
    lowered.dest_keys = dest_keys
    # Every event is scheduled fewer than ``ring_size`` cycles ahead:
    # an arrival at most ``longest + 1``, an owner at most ``wheel``, a
    # credit-only launch folded into a sink drain (at most ``wheel``
    # cycles before it launches) at most ``wheel + longest + 1``.
    lowered.ring_size = 1 << (wheel + longest + 2).bit_length()
    return lowered


def _lagged_phases(slot: int, wps: int, wheel: int) -> List[int]:
    """The wheel phases ``p`` whose lagged slot ``((p - 1) % wheel) //
    wps`` is ``slot``: the slot's own phases, one later (the last
    slot's last one wraps to phase 0)."""
    return [
        (phase + 1) % wheel
        for phase in range(slot * wps, (slot + 1) * wps)
    ]


def _walk_seed(
    regs: List[Register],
    static_ops: Dict[int, tuple],
    phase_ops: List[Dict[int, tuple]],
    occupancy: List[int],
    index: List[Dict[int, tuple]],
    dest_keys: Dict[Tuple[str, int], int],
    ni_owners: List[Dict[int, int]],
    tid: int,
    seed: Tuple[int, int],
    entry_order: int,
) -> Any:
    """Walk the op table from one seed: claim its ``(register, phase)``
    cells in ``occupancy``, enter them in ``index`` and return the
    seed's :class:`_Trajectory` — or the refusal of a schedule that
    would drop or collide the phit."""
    wheel = len(phase_ops)
    rid, phase = seed
    if occupancy[rid] >> phase & 1:
        return _collision(regs, rid, phase)
    occupancy[rid] |= 1 << phase
    # The tree in walk order, one entry per node: the register, the
    # parent node, the step, and (the walk visits nodes in the order it
    # creates them) the op consuming the node.
    node_rid = [rid]
    node_parent = [-1]
    node_step = [0]
    ops: List[tuple] = []
    frontier = [0]
    step = 0
    arrivals: List[int] = []
    entry_step: Optional[int] = None
    while frontier:
        nxt_phase = (phase + 1) % wheel
        table = phase_ops[phase]
        reached: List[int] = []
        for node in frontier:
            rid = node_rid[node]
            op = table.get(rid)
            if op is None:
                op = static_ops.get(rid)
            if op is None:
                return CompileRefusal(
                    CompileRefusal.INCONSISTENT_SCHEDULE,
                    f"a phit reaching {regs[rid].name!r} in wheel phase "
                    f"{phase} has no consumer (the schedule would drop "
                    f"it)",
                )
            ops.append(op)
            tag = op[0]
            if tag == _OP_ARRIVE:
                arrivals.append(node)
                continue
            if tag == _OP_INJECT:
                entry_step = step
            for dst in op[1] if tag == _OP_FORWARD else (op[1],):
                if occupancy[dst] >> nxt_phase & 1:
                    # A second writer can reach this (register,
                    # phase): phits from two schedule walks would
                    # collide exactly where the stepped kernels raise a
                    # double-drive error.
                    return _collision(regs, dst, nxt_phase)
                occupancy[dst] |= 1 << nxt_phase
                reached.append(len(node_rid))
                node_rid.append(dst)
                node_parent.append(node)
                node_step.append(step + 1)
        frontier = reached
        phase = nxt_phase
        step += 1

    # One leaf per arrival, each with its register path; a link is
    # booked on the first leaf whose path crosses its node.
    leaves: List[_Leaf] = []
    booked = [False] * len(node_rid)
    for node in arrivals:
        _tag, ni, channel, ni_index = ops[node]
        leaf = _Leaf()
        leaf.ni = ni
        leaf.channel = channel
        leaf.order = 2 * ni_index
        leaf.entry_order = entry_order
        leaf.dest_id = dest_keys.setdefault(
            (ni.name, channel), len(dest_keys)
        )
        leaf.ni_owners = ni_owners[ni_index]
        leaf.step = node_step[node]
        leaf.link_steps = []
        leaf.links = []
        path = []
        while node >= 0:
            path.append(node_rid[node])
            op = ops[node]
            if not booked[node] and op[0] in (_OP_SEND, _OP_INJECT):
                booked[node] = True
                leaf.link_steps.append(node_step[node])
                leaf.links.append(op[2])
            node = node_parent[node]
        path.reverse()
        leaf.path = tuple(path)
        leaves.append(leaf)
    # An NI that holds injection slots drives its link from the output
    # register, so every seed's walk crosses its INJECT.
    assert entry_step is not None
    trajectory = _Trajectory()
    trajectory.tid = tid
    trajectory.seed = seed
    trajectory.entry_delay = entry_step + 1
    trajectory.entry_order = entry_order
    trajectory.leaves = tuple(leaves)
    trajectory.launch = tuple(
        (leaf.step + 1, leaf.order, leaf) for leaf in leaves
    )
    phase = seed[1]
    for rid, step in zip(node_rid, node_step):
        index[(phase + step) % wheel][rid] = (tid, step)
    return trajectory


def _collision(regs: List[Register], rid: int, phase: int) -> CompileRefusal:
    return CompileRefusal(
        CompileRefusal.INCONSISTENT_SCHEDULE,
        f"two phits may collide in {regs[rid].name!r} at wheel phase "
        f"{phase}",
    )


def _render_trajectory(trajectory: _Trajectory) -> LoweredTrajectory:
    """One trajectory in the stable introspection form."""
    leaves = trajectory.leaves
    depth = 1 + max(leaf.step for leaf in leaves)
    if len(leaves) == 1:
        steps = tuple((rid,) for rid in leaves[0].path)
    else:
        steps = tuple(
            tuple(
                sorted(
                    {
                        leaf.path[step]
                        for leaf in leaves
                        if leaf.step >= step
                    }
                )
            )
            for step in range(depth)
        )
    effects: List[List[Tuple[str, int]]] = [[] for _ in range(depth)]
    for leaf in leaves:
        for step, link in zip(leaf.link_steps, leaf.links):
            effects[step].append((link.name, 1))
    return LoweredTrajectory(
        seed=trajectory.seed,
        steps=steps,
        inject_step=trajectory.entry_delay - 1,
        arrivals=tuple(
            sorted(
                (leaf.step, f"{leaf.ni.name}.ch{leaf.channel}")
                for leaf in leaves
            )
        ),
        effects=tuple(tuple(sorted(bumps)) for bumps in effects),
    )


def _render_op(rid: int, op: tuple, regs: List[Register]) -> LoweredOp:
    """One op-table entry in the stable introspection form."""
    tag = op[0]
    if tag == _OP_ARRIVE:
        return LoweredOp("arrive", rid, (), f"{op[1].name}.ch{op[2]}")
    if tag == _OP_FORWARD:
        return LoweredOp("forward", rid, tuple(op[1]), op[2].name)
    if tag == _OP_MOVE:
        return LoweredOp("move", rid, (op[1],), regs[op[1]].name)
    # send / inject carry their link at op[2]
    return LoweredOp(OP_NAMES[tag], rid, (op[1],), op[2].name)


def render_artifacts(lowered: _Lowered, wheel: int) -> LoweredArtifacts:
    """The compile products in the stable introspection form (see
    :class:`LoweredArtifacts`).

    A static op is rendered once and the same object stands in every
    phase's tuple; each phase's own ops are rendered per phase.
    """
    regs = lowered.regs
    static = {
        rid: _render_op(rid, op, regs)
        for rid, op in lowered.static_ops.items()
    }
    static_rids = sorted(static)
    phases: List[Tuple[LoweredOp, ...]] = []
    for own in lowered.phase_ops:
        ops = dict(static)
        for rid, op in own.items():
            ops[rid] = _render_op(rid, op, regs)
        # Two sorted runs: the sort merges them in one pass.
        order = sorted(static_rids + sorted(own))
        phases.append(tuple([ops[rid] for rid in order]))
    return LoweredArtifacts(
        wheel=wheel,
        register_names=tuple(reg.name for reg in regs),
        phase_ops=tuple(phases),
        seeds=tuple(
            trajectory.seed for trajectory in lowered.trajectories
        ),
        occupancy=tuple(lowered.occupancy),
        trajectories=tuple(
            _render_trajectory(trajectory)
            for trajectory in lowered.trajectories
        ),
    )
