"""Differential tests: the bitmask slot ledger vs its test mirror.

``LinkSlotLedger`` must make exactly the decisions of the dict-based
``LedgerMirror`` (``tests/ledger_mirror.py``) on every workload: same
admissible sets, same picked slots, same rejections (down to the
reported counts), same final ledger state.  These tests build the same
randomized scenarios on both books — :func:`use_ledger` swaps the
mirror in under every ``SlotAllocator`` — and compare everything
observable.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from hypothesis import given, settings, strategies as st

from repro.alloc import (
    ChannelRequest,
    ConnectionRequest,
    LinkSlotLedger,
    MulticastRequest,
    SlotAllocator,
    UseCase,
    UseCaseManager,
    allocate_multipath,
)
from repro.alloc import slot_alloc
from repro.analysis import AdmissionOracle
from repro.errors import AllocationError
from repro.params import daelite_parameters
from repro.topology import build_mesh

from ..differential import plant
from ..ledger_mirror import LEDGER_IDS, LEDGERS, LedgerMirror, use_ledger

pytestmark = pytest.mark.differential


def _ledger_dump(ledger, slot_table_size):
    """Every (edge, slot) -> owner mapping, in canonical form."""
    return {
        edge: tuple(
            ledger.owner(edge, slot) for slot in range(slot_table_size)
        )
        for edge in ledger.claimed_edges()
    }


def _claims_of(live):
    """The ledger dump the live allocations alone account for."""
    owners = {}
    for kind, allocation in live:
        channels = (
            (allocation.forward, allocation.reverse)
            if kind == "conn"
            else (allocation,)
        )
        for channel in channels:
            for edge, slot in channel.link_claims():
                owners[(edge, slot)] = channel.label
    return owners


def _assert_ledger_holds(ledger, live, slot_table_size):
    """Every claim is a live allocation's, and every live claim is
    held: a release that misses (or over-reaches) a slot shows here."""
    expected = _claims_of(live)
    held = {
        (edge, slot): ledger.owner(edge, slot)
        for edge in ledger.claimed_edges()
        for slot in range(slot_table_size)
        if ledger.owner(edge, slot) is not None
    }
    assert held == expected


@st.composite
def mixed_scenarios(draw):
    width = draw(st.integers(min_value=2, max_value=4))
    height = draw(st.integers(min_value=1, max_value=3))
    slot_table_size = draw(st.sampled_from([8, 16, 32]))
    seed = draw(st.integers(min_value=0, max_value=100_000))
    return width, height, slot_table_size, seed


#: What the handoff runs may put between an admit and its allocate:
#: nothing (twice as likely), a release, a multicast claim,
#: ``admissible_connection_count``'s claims and rollback, a link
#: failure, a release rolled back.
HANDOFF_WRITES = (None, None, "release", "tree", "count", "fail", "undo")


def _interpose(write, extras, allocator, oracle, request, live, outcomes):
    """Make one of :data:`HANDOFF_WRITES`, logging what it did."""
    nis = sorted(element.name for element in allocator.topology.nis)
    if write == "release" and live:
        kind, allocation = live.pop(extras.randrange(len(live)))
        if kind == "conn":
            allocator.release_connection(allocation)
        else:
            allocator.release_multicast(allocation)
        outcomes.append(("release", allocation.label))
    elif write == "tree":
        src = extras.choice(nis)
        others = [name for name in nis if name != src]
        dsts = tuple(extras.sample(others, min(2, len(others))))
        tree_request = MulticastRequest(f"{request.label}.m", src, dsts)
        try:
            tree = allocator.allocate_multicast(tree_request)
        except AllocationError as error:
            outcomes.append(("tree-fail", tree_request.label, str(error)))
        else:
            live.append(("tree", tree))
            outcomes.append(("tree", tree.label, tuple(sorted(tree.slots))))
    elif write == "undo" and live:
        kind, allocation = live[extras.randrange(len(live))]
        token = allocator.ledger.snapshot()
        if kind == "conn":
            allocator.release_connection(allocation)
        else:
            allocator.release_multicast(allocation)
        allocator.ledger.rollback(token)
        outcomes.append(("undo", allocation.label))
    elif write == "count":
        outcomes.append(
            ("count", oracle.admissible_connection_count(request))
        )
    elif write == "fail":
        try:
            path = allocator.route(request.src_ni, request.dst_ni)
        except AllocationError:
            return
        if len(path) > 3:  # fail a router-to-router link of the route
            k = extras.randrange(1, len(path) - 2)
            allocator.topology.fail_link(path[k], path[k + 1])
            outcomes.append(("fail", path[k], path[k + 1]))


def _run_mixed_scenario(ledger_class, scenario, handoff=None):
    """A scripted mix of connection/multicast/release steps, on a
    ``ledger_class`` ledger.

    Every decision comes from the scenario's own RNG, never from the
    ledger, so both books replay the identical request stream; the
    returned outcome log and ledger dump capture everything observable.

    With ``handoff`` set (``"admit"`` or ``"plain"``) a second seeded
    stream picks a subset of the connection allocates and, for each,
    one of :data:`HANDOFF_WRITES` to make just before it; an ``"admit"``
    run also asks the oracle first, so that allocate claims the plan
    handed over unless the write moved the ledger or the topology.  The
    two runs must log the same outcomes and end in the same ledger.
    """
    width, height, slot_table_size, seed = scenario
    topology = build_mesh(width, height)
    params = daelite_parameters(slot_table_size=slot_table_size)
    with use_ledger(ledger_class):
        allocator = SlotAllocator(topology=topology, params=params)
    assert type(allocator.ledger) is ledger_class
    oracle = AdmissionOracle(allocator)
    rng = random.Random(seed)
    extras = random.Random(~seed)
    nis = sorted(element.name for element in topology.nis)
    outcomes = []
    live = []
    for step in range(30):
        roll = rng.random()
        if roll < 0.55 or not live:
            src, dst = rng.sample(nis, 2)
            request = ConnectionRequest(
                f"c{step}",
                src,
                dst,
                forward_slots=rng.randint(1, 4),
                reverse_slots=rng.randint(1, 2),
            )
            verdict = write = None
            if handoff and extras.random() < 0.6:
                write = extras.choice(HANDOFF_WRITES)
                if handoff == "admit":
                    verdict = oracle.admit(request)
                _interpose(
                    write, extras, allocator, oracle, request, live, outcomes
                )
            try:
                connection = allocator.allocate_connection(request)
            except AllocationError as error:
                assert write or not verdict or not verdict.admitted
                outcomes.append(("conn-fail", request.label, str(error)))
            else:
                if verdict and verdict.admitted and not write:
                    assert verdict.planned_slots == tuple(
                        sorted(connection.forward.slots)
                    )
                live.append(("conn", connection))
                outcomes.append(
                    (
                        "conn",
                        request.label,
                        connection.forward.path,
                        tuple(sorted(connection.forward.slots)),
                        tuple(sorted(connection.reverse.slots)),
                    )
                )
        elif roll < 0.75 and len(nis) >= 3:
            src = rng.choice(nis)
            others = [name for name in nis if name != src]
            dsts = tuple(rng.sample(others, min(3, len(others))))
            request = MulticastRequest(
                f"m{step}", src, dsts, slots=rng.randint(1, 2)
            )
            try:
                tree = allocator.allocate_multicast(request)
            except AllocationError as error:
                outcomes.append(("tree-fail", request.label, str(error)))
            else:
                live.append(("tree", tree))
                outcomes.append(
                    (
                        "tree",
                        request.label,
                        tuple(sorted(tree.slots)),
                        tuple(branch.path for branch in tree.paths),
                    )
                )
        else:
            kind, allocation = live.pop(rng.randrange(len(live)))
            if kind == "conn":
                allocator.release_connection(allocation)
            else:
                # Without the diagonal it was claimed on, so over a
                # rebuilt one: the ledger's general release path.
                allocator.release_multicast(replace(allocation, diagonal=None))
            outcomes.append(("release", allocation.label))
            _assert_ledger_holds(allocator.ledger, live, slot_table_size)
    outcomes.append(("total", allocator.ledger.total_claims()))
    return outcomes, _ledger_dump(allocator.ledger, slot_table_size)


class TestEngineEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(mixed_scenarios())
    def test_mixed_workload_identical(self, scenario):
        """Connections, multicast trees, and releases — byte-identical
        outcome logs (including error messages, which embed the
        admissible-slot counts) and final ledger state."""
        mirror = _run_mixed_scenario(LedgerMirror, scenario)
        assert _run_mixed_scenario(LinkSlotLedger, scenario) == mirror

    @settings(max_examples=30, deadline=None)
    @given(
        mixed_scenarios(),
        st.sampled_from(["first", "spread"]),
        st.sampled_from(["xy", "shortest"]),
    )
    def test_policies_and_routing_identical(
        self, scenario, policy, routing
    ):
        """Both picking policies and both routings allocate identically."""
        width, height, slot_table_size, seed = scenario
        params = daelite_parameters(slot_table_size=slot_table_size)
        results = {}
        for ledger_class in LEDGERS:
            topology = build_mesh(width, height)
            with use_ledger(ledger_class):
                allocator = SlotAllocator(
                    topology=topology,
                    params=params,
                    routing=routing,
                    policy=policy,
                )
            nis = sorted(element.name for element in topology.nis)
            pair_rng = random.Random(seed)
            log = []
            for step in range(20):
                src, dst = pair_rng.sample(nis, 2)
                request = ChannelRequest(
                    f"c{step}", src, dst, slots=pair_rng.randint(1, 6)
                )
                try:
                    channel = allocator.allocate_channel(request)
                except AllocationError as error:
                    log.append((request.label, str(error)))
                else:
                    log.append(
                        (
                            request.label,
                            channel.path,
                            tuple(sorted(channel.slots)),
                        )
                    )
            results[ledger_class] = (
                log,
                _ledger_dump(allocator.ledger, slot_table_size),
            )
        assert results[LinkSlotLedger] == results[LedgerMirror]

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=12),
    )
    def test_multipath_identical(self, width, height, seed, slots):
        """Multipath spill-over uses the same paths and slots."""
        params = daelite_parameters(slot_table_size=8)
        results = {}
        for ledger_class in LEDGERS:
            topology = build_mesh(width, height)
            with use_ledger(ledger_class):
                allocator = SlotAllocator(topology=topology, params=params)
            nis = sorted(element.name for element in topology.nis)
            rng = random.Random(seed)
            src, dst = rng.sample(nis, 2)
            # Pre-load some contention so the spill-over logic runs.
            for step in range(rng.randint(0, 4)):
                try:
                    allocator.allocate_channel(
                        ChannelRequest(
                            f"bg{step}",
                            *rng.sample(nis, 2),
                            slots=rng.randint(1, 3),
                        )
                    )
                except AllocationError:
                    pass
            try:
                allocation = allocate_multipath(
                    allocator,
                    ChannelRequest("mp", src, dst, slots=slots),
                )
            except AllocationError as error:
                results[ledger_class] = ("fail", str(error))
            else:
                results[ledger_class] = (
                    tuple(
                        (part.path, tuple(sorted(part.slots)))
                        for part in allocation.parts
                    ),
                    _ledger_dump(allocator.ledger, 8),
                )
        assert results[LinkSlotLedger] == results[LedgerMirror]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_usecase_switch_identical(self, seed):
        """Per-use-case allocations and switch plans coincide."""
        rng = random.Random(seed)
        topology_for = lambda: build_mesh(3, 3)
        nis = sorted(element.name for element in topology_for().nis)
        params = daelite_parameters(slot_table_size=16)

        def usecase(name, count):
            pair_rng = random.Random(seed + count)
            return UseCase(
                name,
                tuple(
                    ConnectionRequest(
                        f"{name}.c{index}",
                        *pair_rng.sample(nis, 2),
                        forward_slots=pair_rng.randint(1, 2),
                    )
                    for index in range(count)
                ),
            )

        usecases = [
            usecase("boot", rng.randint(1, 3)),
            usecase("video", rng.randint(1, 4)),
        ]
        plans = {}
        for ledger_class in LEDGERS:
            manager = UseCaseManager(topology_for(), params)
            with use_ledger(ledger_class):
                for case in usecases:
                    manager.add_usecase(case)
            plans[ledger_class] = (
                manager.plan_switch("boot", "video"),
                {
                    name: {
                        label: (
                            connection.forward.path,
                            tuple(sorted(connection.forward.slots)),
                            tuple(sorted(connection.reverse.slots)),
                        )
                        for label, connection in allocated.items()
                    }
                    for name, allocated in manager.allocations.items()
                },
            )
        assert plans[LinkSlotLedger] == plans[LedgerMirror]

    @pytest.mark.parametrize(
        "method, original, mutant",
        [
            # Each edge's claim lands one slot past the diagonal.
            (
                "claim_prepared",
                "(base_mask << shift) | (base_mask >> (size - shift))",
                "(base_mask << shift + 1) | (base_mask >> (size - shift - 1))",
            ),
            # A record release keeps the lowest slot of each link's mask.
            (
                "release_rotations",
                "self._clear(record[3])",
                "self._clear([(e, c, m & (m - 1)) for e, c, m in record[3]])",
            ),
            # A rollback leaves the scope's first journal entry (one
            # claim or release) in place.
            (
                "rollback",
                "while len(self._journal) > token:",
                "while len(self._journal) > token + 1:",
            ),
            # A record release leaves its first link's cell as it was.
            (
                "release_rotations",
                "self._clear(record[3])",
                "self._clear(record[3][1:])",
            ),
            # Undoing a release books the record again but not its slots.
            (
                "rollback",
                "self._book(record)",
                "self._records[id(record[0])] = record",
            ),
            # A claim record holds the base mask, not each link's
            # rotation of it.
            (
                "claim_prepared",
                "append((edge, cell, mask))",
                "append((edge, cell, base_mask))",
            ),
        ],
        ids=[
            "claim-rotation-off-by-one",
            "release-leaves-a-bit",
            "rollback-skips-a-link",
            "record-release-leaves-a-cell",
            "rollback-restores-record-not-cells",
            "record-holds-unrotated-mask",
        ],
    )
    def test_planted_ledger_mutants_are_killed(
        self, monkeypatch, method, original, mutant
    ):
        """A ledger that claims, releases or rolls back other slots than
        its mirror must show in the handoff scenarios, whose writes
        include releases, tree claims, the oracle's rollbacks and
        rolled-back releases."""
        plant(monkeypatch, original, mutant, owner=LinkSlotLedger, method=method)
        with pytest.raises((AssertionError, AllocationError)):
            for scenario in HANDOFF_SCENARIOS:
                assert _run_mixed_scenario(
                    LinkSlotLedger, scenario, "admit"
                ) == _run_mixed_scenario(LedgerMirror, scenario, "admit")


class TestPlanHandoff:
    @settings(max_examples=40, deadline=None)
    @given(mixed_scenarios())
    def test_handoff_matches_oracle_free_run(self, scenario):
        """An allocate that claims the plan its admit handed over — or
        re-plans because a write came between them — logs and leaves
        exactly what the same script without the oracle does, on the
        ledger and on its mirror."""
        baseline = _run_mixed_scenario(LedgerMirror, scenario, "plain")
        for ledger_class in LEDGERS:
            for handoff in ("admit", "plain"):
                run = _run_mixed_scenario(ledger_class, scenario, handoff)
                assert run == baseline, (ledger_class.__name__, handoff)

    def test_fixed_scenarios_agree_and_make_every_write(self):
        """The mutants' scenarios pass unmutated and put each kind of
        write between an admit and its allocate."""
        kinds = set()
        for scenario in HANDOFF_SCENARIOS:
            for ledger_class in LEDGERS:
                admitted = _run_mixed_scenario(ledger_class, scenario, "admit")
                assert admitted == _run_mixed_scenario(
                    ledger_class, scenario, "plain"
                )
                kinds.update(entry[0] for entry in admitted[0])
        assert {"release", "tree", "count", "fail", "undo"} <= kinds

    @pytest.mark.parametrize(
        "owner, method, original, mutant",
        [
            (SlotAllocator, "_stamp", "self.ledger.version", "0"),
            (
                LinkSlotLedger,
                "release_rotations",
                "self.version += 1",
                "pass",
            ),
            (SlotAllocator, "_stamp", "self.topology.version", "0"),
        ],
        ids=[
            "stamp-ignores-ledger",
            "release-rotations-keeps-version",
            "stamp-ignores-topology",
        ],
    )
    def test_planted_handoff_mutants_are_killed(
        self, monkeypatch, owner, method, original, mutant
    ):
        """A stale plan claimed after a release, a tree claim or a link
        failure must show as a difference from the oracle-free run."""
        plant(monkeypatch, original, mutant, owner=owner, method=method)
        with pytest.raises((AssertionError, AllocationError)):
            for scenario in HANDOFF_SCENARIOS:
                for ledger_class in LEDGERS:
                    assert _run_mixed_scenario(
                        ledger_class, scenario, "admit"
                    ) == _run_mixed_scenario(ledger_class, scenario, "plain")


#: Fixed scenarios for the handoff mutants.
HANDOFF_SCENARIOS = [(3, 3, 16, seed) for seed in range(10)]


#: Fixed scenarios that open and release multicast trees.
TREE_RELEASE_SCENARIOS = [(3, 2, 8, seed) for seed in range(6)]


def test_tree_release_scenarios_release_trees():
    for scenario in TREE_RELEASE_SCENARIOS:
        outcomes, _ = _run_mixed_scenario(LedgerMirror, scenario)
        trees = {entry[1] for entry in outcomes if entry[0] == "tree"}
        released = {entry[1] for entry in outcomes if entry[0] == "release"}
        if trees & released:
            return
    pytest.fail("no fixed scenario releases a multicast tree")


@pytest.mark.parametrize("ledger_class", LEDGERS, ids=LEDGER_IDS)
def test_planted_tree_release_offset_is_killed(monkeypatch, ledger_class):
    """Release a tree's edge *k* links deep at offset *k* instead of
    *k + 1*: the mixed scenarios, which release their trees over a
    rebuilt diagonal, must catch it on the ledger and on its mirror."""
    original = "_tree_diagonal([branch.path for branch in tree.paths])"
    mutant = f"[(edge, k - 1) for edge, k in {original}]"
    plant(
        monkeypatch, original, mutant, owner=SlotAllocator, method="release_multicast"
    )
    with pytest.raises((AssertionError, AllocationError)):
        for scenario in TREE_RELEASE_SCENARIOS:
            _run_mixed_scenario(ledger_class, scenario)


def _check_probe_against_link_claims(side, seed, delays):
    """On a randomly loaded mesh, a base slot is admissible in the
    ledger's one probe, and in its mirror's, iff every claim
    ``AllocatedChannel.link_claims`` would make for it is free."""
    params = daelite_parameters(slot_table_size=16)
    admissible = {}
    for ledger_class in LEDGERS:
        topology = build_mesh(side, side)
        with use_ledger(ledger_class):
            allocator = SlotAllocator(topology=topology, params=params)
        nis = sorted(element.name for element in topology.nis)
        pair_rng = random.Random(seed)
        for step in range(pair_rng.randint(1, 6)):
            try:
                allocator.allocate_channel(
                    ChannelRequest(
                        f"bg{step}",
                        *pair_rng.sample(nis, 2),
                        slots=pair_rng.randint(1, 3),
                    )
                )
            except AllocationError:
                pass
        src, dst = pair_rng.sample(nis, 2)
        path = allocator.route(src, dst)
        link_delays = tuple(
            delays[k % len(delays)] for k in range(len(path) - 1)
        )
        mask, _ = allocator.ledger.probe_rotations(
            allocator._claim_diagonal(
                path, link_delays if any(link_delays) else None
            )
        )
        slots = list(slot_alloc.iter_mask_slots(mask))
        admissible[ledger_class] = slots
        for base in range(params.slot_table_size):
            channel = AllocatedChannelProbe(
                path, base, params.slot_table_size, link_delays
            )
            free = all(
                allocator.ledger.is_free(edge, slot)
                for edge, slot in channel.link_claims()
            )
            assert (base in slots) == free, (
                f"{ledger_class.__name__}: base {base} admissibility "
                f"disagrees with link_claims (delays {link_delays})"
            )
    assert admissible[LinkSlotLedger] == admissible[LedgerMirror]


class TestLinkDelayEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=10_000),
        st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=1,
            max_size=8,
        ),
    )
    def test_probe_matches_link_claims(self, side, seed, delays):
        """With or without ``link_delays``, the claim diagonal, the
        probe's rotations and the allocated channel must use the same
        arithmetic."""
        _check_probe_against_link_claims(side, seed, delays)

    @pytest.mark.parametrize(
        "owner, method, original, mutant, delays",
        [
            # The ledger's probe gives up on the first blocked base
            # instead of once every base is blocked.
            (
                LinkSlotLedger,
                "probe_rotations",
                "if blocked == full:",
                "if blocked:",
                [0, 1, 2],
            ),
            # The claim diagonal enters a path's k-th link k slots after
            # injection instead of k + 1, without and with link delays.
            (
                SlotAllocator,
                "_claim_diagonal",
                "((path[k], path[k + 1]), k + 1)",
                "((path[k], path[k + 1]), k)",
                [0],
            ),
            (
                SlotAllocator,
                "_claim_diagonal",
                "((path[k], path[k + 1]), k + 1 + accumulated)",
                "((path[k], path[k + 1]), k + accumulated)",
                [0, 1, 2],
            ),
        ],
        ids=["probe-exits-early", "offset-k", "delayed-offset-k"],
    )
    def test_planted_probe_mutants_are_killed(
        self, monkeypatch, owner, method, original, mutant, delays
    ):
        """With one planner the oracle cannot disagree with the
        allocator, so the link_claims property is what must bite."""
        plant(monkeypatch, original, mutant, owner=owner, method=method)
        with pytest.raises(AssertionError):
            for seed in range(20):
                _check_probe_against_link_claims(3, seed, delays)


def AllocatedChannelProbe(path, base, slot_table_size, link_delays):
    """An AllocatedChannel carrying one base slot, for claim probing."""
    from repro.alloc import AllocatedChannel

    return AllocatedChannel(
        label="probe",
        path=path,
        slots=frozenset({base}),
        slot_table_size=slot_table_size,
        link_delays=link_delays if any(link_delays) else (),
    )
