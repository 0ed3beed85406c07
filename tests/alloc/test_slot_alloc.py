"""Unit tests for the contention-free slot allocator."""

from __future__ import annotations

import random

import pytest

from repro.alloc import (
    ChannelRequest,
    ConnectionRequest,
    LinkSlotLedger,
    MulticastRequest,
    SlotAllocator,
    validate_schedule,
)
from repro.alloc import slot_alloc
from repro.alloc.slot_alloc import _spread_pick, iter_mask_slots
from repro.analysis import AdmissionOracle
from repro.errors import AllocationError, SlotConflictError
from repro.params import daelite_parameters
from repro.topology import build_mesh

from ..differential import plant
from ..ledger_mirror import LEDGER_IDS, LEDGERS, LedgerMirror, use_ledger


@pytest.fixture
def params():
    return daelite_parameters(slot_table_size=8)


@pytest.fixture
def allocator(params):
    return SlotAllocator(topology=build_mesh(3, 3), params=params)


class TestLedger:
    def test_claim_and_release(self):
        ledger = LinkSlotLedger(8)
        ledger.claim(("a", "b"), 3, "c1")
        assert ledger.owner(("a", "b"), 3) == "c1"
        release_mask(ledger, ("a", "b"), 1 << 3, "c1")
        assert ledger.is_free(("a", "b"), 3)

    def test_conflicting_claim_rejected(self):
        ledger = LinkSlotLedger(8)
        ledger.claim(("a", "b"), 3, "c1")
        with pytest.raises(SlotConflictError):
            ledger.claim(("a", "b"), 3, "c2")

    def test_same_label_reclaim_ok(self):
        ledger = LinkSlotLedger(8)
        ledger.claim(("a", "b"), 3, "c1")
        ledger.claim(("a", "b"), 3, "c1")

    def test_release_wrong_owner_rejected(self):
        ledger = LinkSlotLedger(8)
        ledger.claim(("a", "b"), 3, "c1")
        with pytest.raises(SlotConflictError):
            release_mask(ledger, ("a", "b"), 1 << 3, "c2")

    def test_slot_wraps(self):
        ledger = LinkSlotLedger(8)
        ledger.claim(("a", "b"), 11, "c1")
        assert ledger.owner(("a", "b"), 3) == "c1"

    def test_utilization(self):
        ledger = LinkSlotLedger(8)
        ledger.claim(("a", "b"), 0, "c1")
        ledger.claim(("a", "b"), 1, "c1")
        assert ledger.link_utilization(("a", "b")) == pytest.approx(0.25)
        assert ledger.total_claims() == 2


def claim_mask(ledger, edge, mask, label):
    """Claim ``mask`` on one edge through the only claim path."""
    _, context = ledger.probe_rotations([(edge, 0)])
    ledger.claim_prepared(context, mask, label)


def release_mask(ledger, edge, mask, label):
    """Release ``mask`` on one edge through the only release path."""
    ledger.release_rotations([(edge, 0)], mask, label)


def public_methods(cls):
    return {
        name
        for name in dir(cls)
        if not name.startswith("_") and callable(getattr(cls, name))
    }


def test_ledger_and_mirror_expose_one_surface():
    """Neither the ledger nor its test mirror grows an entry point the
    other lacks, and each step of a request has one: probe, claim,
    release."""
    assert public_methods(LinkSlotLedger) == public_methods(LedgerMirror)
    writes = {
        "claim",
        "probe_rotations",
        "claim_prepared",
        "release_rotations",
        "snapshot",
        "rollback",
        "commit",
    }
    reads = {
        "owner",
        "is_free",
        "link_utilization",
        "free_slot_count",
        "total_claims",
        "claimed_edges",
    }
    assert public_methods(LinkSlotLedger) == writes | reads


@pytest.mark.parametrize("ledger_class", LEDGERS, ids=LEDGER_IDS)
class TestLedgerEngines:
    """The ledger's behaviour, pinned on it and on its test mirror."""

    def test_release_drops_empty_edge(self, ledger_class):
        """Releasing a link's last slot forgets the edge entirely —
        empty per-edge entries must not accumulate across use-case
        churn or leak into claimed_edges()."""
        ledger = ledger_class(8)
        ledger.claim(("a", "b"), 1, "c1")
        ledger.claim(("a", "b"), 5, "c1")
        ledger.claim(("b", "c"), 2, "c2")
        release_mask(ledger, ("a", "b"), 1 << 1, "c1")
        assert ledger.claimed_edges() == [("a", "b"), ("b", "c")]
        release_mask(ledger, ("a", "b"), 1 << 5, "c1")
        assert ledger.claimed_edges() == [("b", "c")]
        release_mask(ledger, ("b", "c"), 1 << 2, "c2")
        assert ledger.claimed_edges() == []
        # The backing store itself is empty, not just the view.
        backing = (
            ledger._claims
            if ledger_class is LedgerMirror
            else ledger._links
        )
        assert backing == {}

    def test_edge_mask_claim_and_release(self, ledger_class):
        """Per-edge atomicity: a mask is checked in full, the lowest
        conflicting (or missing) slot is reported, and the edge is
        left unchanged when the claim or release raises."""
        ledger = ledger_class(8)
        claim_mask(ledger, ("a", "b"), 0b1011, "c1")
        assert ledger.total_claims() == 3
        assert ledger.owner(("a", "b"), 3) == "c1"
        with pytest.raises(SlotConflictError, match="slot 1 owned by 'c1'"):
            claim_mask(ledger, ("a", "b"), 0b1110, "c2")
        assert ledger.owner(("a", "b"), 2) is None
        with pytest.raises(SlotConflictError, match="slot 2 owned by None"):
            release_mask(ledger, ("a", "b"), 0b0110, "c1")
        assert ledger.owner(("a", "b"), 1) == "c1"
        release_mask(ledger, ("a", "b"), 0b1011, "c1")
        assert ledger.total_claims() == 0

    def test_release_rotations_stops_at_the_failing_edge(self, ledger_class):
        """Atomic per edge, not per diagonal: edges before the failing
        one are released, the failing one keeps every slot."""
        ledger = ledger_class(8)
        diagonal = [(("a", "b"), 1), (("b", "c"), 2)]
        _, context = ledger.probe_rotations(diagonal)
        ledger.claim_prepared(context, 0b0011, "mine")
        release_mask(ledger, ("b", "c"), 1 << 3, "mine")
        with pytest.raises(SlotConflictError, match="slot 3 owned by None"):
            ledger.release_rotations(diagonal, 0b0011, "mine")
        assert ledger.claimed_edges() == [("b", "c")]
        assert ledger.owner(("b", "c"), 2) == "mine"

    def test_snapshot_rollback_restores_slots(self, ledger_class):
        ledger = ledger_class(8)
        ledger.claim(("a", "b"), 0, "keep")
        token = ledger.snapshot()
        ledger.claim(("a", "b"), 1, "spec")
        ledger.claim(("c", "d"), 2, "spec")
        release_mask(ledger, ("a", "b"), 1 << 0, "keep")
        ledger.rollback(token)
        assert ledger.owner(("a", "b"), 0) == "keep"
        assert ledger.is_free(("a", "b"), 1)
        assert ledger.claimed_edges() == [("a", "b")]

    def test_snapshot_commit_keeps_writes(self, ledger_class):
        ledger = ledger_class(8)
        token = ledger.snapshot()
        ledger.claim(("a", "b"), 1, "c1")
        ledger.commit(token)
        assert ledger.owner(("a", "b"), 1) == "c1"

    def test_nested_scopes_rollback_independently(self, ledger_class):
        ledger = ledger_class(8)
        outer = ledger.snapshot()
        ledger.claim(("a", "b"), 0, "outer")
        inner = ledger.snapshot()
        ledger.claim(("a", "b"), 1, "inner")
        claim_mask(ledger, ("c", "d"), 0b1100, "inner")
        ledger.rollback(inner)
        assert ledger.owner(("a", "b"), 0) == "outer"
        assert ledger.is_free(("a", "b"), 1)
        assert ledger.claimed_edges() == [("a", "b")]
        ledger.rollback(outer)
        assert ledger.total_claims() == 0

    def test_rollback_of_mask_release_restores_claims(self, ledger_class):
        ledger = ledger_class(8)
        claim_mask(ledger, ("a", "b"), 0b0110, "c1")
        token = ledger.snapshot()
        release_mask(ledger, ("a", "b"), 0b0110, "c1")
        assert ledger.claimed_edges() == []
        ledger.rollback(token)
        assert ledger.owner(("a", "b"), 1) == "c1"
        assert ledger.owner(("a", "b"), 2) == "c1"

    def test_scope_underflow_rejected(self, ledger_class):
        ledger = ledger_class(8)
        with pytest.raises(AllocationError, match="underflow"):
            ledger.rollback(0)

    def test_claim_prepared_is_atomic(self, ledger_class):
        ledger = ledger_class(8)
        diagonal = [(("a", "b"), 1), (("b", "c"), 2)]
        _, context = ledger.probe_rotations(diagonal)
        # Block slot 2 on the second link: base 0 fits link 1 (slot 1)
        # but conflicts on link 2, so the whole claim must unwind.
        ledger.claim(("b", "c"), 2, "other")
        with pytest.raises(SlotConflictError, match="slot 2 owned by"):
            ledger.claim_prepared(context, 0b0001, "mine")
        assert ledger.total_claims() == 1
        assert ledger.claimed_edges() == [("b", "c")]

    def test_probe_then_claim_prepared(self, ledger_class):
        ledger = ledger_class(8)
        ledger.claim(("a", "b"), 1, "other")  # blocks base 0
        diagonal = [(("a", "b"), 1), (("b", "c"), 2)]
        mask, context = ledger.probe_rotations(diagonal)
        assert list(iter_mask_slots(mask)) == [1, 2, 3, 4, 5, 6, 7]
        ledger.claim_prepared(context, 0b0010, "mine")
        assert ledger.owner(("a", "b"), 2) == "mine"
        assert ledger.owner(("b", "c"), 3) == "mine"

    def test_claim_prepared_with_repeated_edge(self, ledger_class):
        """A diagonal may legally revisit an edge (non-simple paths);
        the second visit must see the first visit's claims."""
        ledger = ledger_class(8)
        diagonal = [
            (("a", "b"), 1),
            (("b", "a"), 2),
            (("a", "b"), 3),
        ]
        mask, context = ledger.probe_rotations(diagonal)
        assert mask == 0xFF
        ledger.claim_prepared(context, 0b0001, "loop")
        assert ledger.owner(("a", "b"), 1) == "loop"
        assert ledger.owner(("b", "a"), 2) == "loop"
        assert ledger.owner(("a", "b"), 3) == "loop"
        assert ledger.total_claims() == 3

    def test_one_diagonal_claimed_twice(self, ledger_class):
        """Two live claims through one diagonal object are two claims:
        each releases its own slots, in either order."""
        ledger = ledger_class(8)
        diagonal = [(("a", "b"), 1), (("b", "c"), 2)]
        for base, label in ((0b01, "first"), (0b10, "second")):
            _, context = ledger.probe_rotations(diagonal)
            ledger.claim_prepared(context, base, label)
        ledger.release_rotations(diagonal, 0b10, "second")
        assert ledger.owner(("b", "c"), 2) == "first"
        assert ledger.is_free(("b", "c"), 3)
        ledger.release_rotations(diagonal, 0b01, "first")
        assert ledger.claimed_edges() == []

    def test_probe_rotations_sees_all_links(self, ledger_class):
        ledger = ledger_class(8)
        ledger.claim(("a", "b"), 1, "x")  # blocks base 0 via offset 1
        ledger.claim(("b", "c"), 5, "y")  # blocks base 3 via offset 2
        diagonal = [(("a", "b"), 1), (("b", "c"), 2)]
        mask, _ = ledger.probe_rotations(diagonal)
        assert sorted(iter_mask_slots(mask)) == [1, 2, 4, 5, 6, 7]

    def test_probe_rotations_of_a_blocked_diagonal_is_zero(self, ledger_class):
        """Every base blocked part-way along the diagonal: the mask is
        0 however many links follow (the ledger's probe stops there)."""
        ledger = ledger_class(4)
        for slot in range(4):
            ledger.claim(("b", "c"), slot, "full")
        diagonal = [(("a", "b"), 1), (("b", "c"), 2), (("c", "d"), 3)]
        mask, _ = ledger.probe_rotations(diagonal)
        assert mask == 0
        release_mask(ledger, ("b", "c"), 1 << 1, "full")
        mask, _ = ledger.probe_rotations(diagonal)
        assert list(iter_mask_slots(mask)) == [3]


class TestSpreadPick:
    def test_spread_spaces_over_slot_positions(self):
        """Spacing is over slot positions modulo T, not candidate-list
        indices: with candidates [0,1,2,3,8,9] on a 16-wheel, the
        second pick lands at slot 8 (the wheel's far side), not at the
        list's middle element."""
        assert _spread_pick([0, 1, 2, 3, 8, 9], 2, 16) == [0, 8]

    def test_spread_tie_breaks_to_lower_slot(self):
        # Target for the second pick is 4; slots 3 and 5 are
        # equidistant, so the lower one wins.
        assert _spread_pick([0, 3, 5], 2, 8) == [0, 3]

    def test_all_candidates_returned_when_count_covers_them(self):
        assert _spread_pick([5, 1, 3], 3, 8) == [1, 3, 5]
        assert _spread_pick([5, 1], 5, 8) == [1, 5]

    @pytest.mark.parametrize("size", [8, 16, 32])
    def test_pick_from_mask_matches_spread_pick(self, size):
        """The mask-domain fast paths of ``_pick_from_mask`` (rotation
        trick for even divisions, lowest-bit stripping) must pick the
        same slots as the candidate-list reference."""
        params = daelite_parameters(slot_table_size=size)
        allocator = SlotAllocator(
            topology=build_mesh(2, 2), params=params, policy="spread"
        )
        rng = random.Random(1234)
        for _ in range(300):
            mask = rng.getrandbits(size)
            if not mask:
                continue
            count = rng.randint(1, max(1, mask.bit_count()))
            expected = _spread_pick(
                list(iter_mask_slots(mask)), count, size
            )
            assert allocator._pick_from_mask(mask, count) == expected

    @pytest.mark.parametrize("size", [8, 16])
    def test_pick_from_mask_first_policy(self, size):
        params = daelite_parameters(slot_table_size=size)
        allocator = SlotAllocator(
            topology=build_mesh(2, 2), params=params, policy="first"
        )
        rng = random.Random(99)
        for _ in range(100):
            mask = rng.getrandbits(size)
            if not mask:
                continue
            count = rng.randint(1, mask.bit_count())
            assert (
                allocator._pick_from_mask(mask, count)
                == list(iter_mask_slots(mask))[:count]
            )


class TestChannelAllocation:
    def test_slots_respect_diagonal_alignment(self, allocator):
        channel = allocator.allocate_channel(
            ChannelRequest("c", "NI00", "NI22", slots=2)
        )
        for edge, slot in channel.link_claims():
            assert allocator.ledger.owner(edge, slot) == "c"

    def test_two_channels_never_conflict(self, allocator):
        first = allocator.allocate_channel(
            ChannelRequest("a", "NI00", "NI22", slots=3)
        )
        second = allocator.allocate_channel(
            ChannelRequest("b", "NI10", "NI22", slots=3)
        )
        validate_schedule(allocator.topology, [first, second])

    def test_release_frees_capacity(self, allocator, params):
        request = ChannelRequest(
            "big", "NI00", "NI22", slots=params.slot_table_size
        )
        first = allocator.allocate_channel(request)
        with pytest.raises(AllocationError):
            allocator.allocate_channel(
                ChannelRequest("more", "NI00", "NI22", slots=1)
            )
        allocator.release_channel(first)
        allocator.allocate_channel(
            ChannelRequest("more", "NI00", "NI22", slots=1)
        )

    def test_explicit_path_honored(self, allocator):
        path = (
            "NI00",
            "R00",
            "R01",
            "R02",
            "NI02",
        )
        channel = allocator.allocate_channel(
            ChannelRequest("c", "NI00", "NI02"), path=path
        )
        assert channel.path == path

    def test_exhaustion_reported(self, allocator, params):
        allocator.allocate_channel(
            ChannelRequest(
                "hog", "NI00", "NI01", slots=params.slot_table_size
            )
        )
        with pytest.raises(AllocationError, match="admissible"):
            allocator.allocate_channel(
                ChannelRequest("late", "NI00", "NI01", slots=1)
            )

    def test_spread_policy_spaces_slots(self, params):
        allocator = SlotAllocator(
            topology=build_mesh(2, 2), params=params, policy="spread"
        )
        channel = allocator.allocate_channel(
            ChannelRequest("c", "NI00", "NI11", slots=2)
        )
        slots = sorted(channel.slots)
        gap = (slots[1] - slots[0]) % params.slot_table_size
        assert gap >= params.slot_table_size // 4

    def test_first_policy_compact(self, params):
        allocator = SlotAllocator(
            topology=build_mesh(2, 2), params=params, policy="first"
        )
        channel = allocator.allocate_channel(
            ChannelRequest("c", "NI00", "NI11", slots=2)
        )
        assert sorted(channel.slots) == [0, 1]

    def test_unknown_policy_rejected(self, params):
        with pytest.raises(AllocationError):
            SlotAllocator(
                topology=build_mesh(2, 2), params=params, policy="nope"
            )

    def test_xy_routing_used(self, params):
        allocator = SlotAllocator(
            topology=build_mesh(3, 3), params=params, routing="xy"
        )
        channel = allocator.allocate_channel(
            ChannelRequest("c", "NI00", "NI22")
        )
        assert channel.path == (
            "NI00",
            "R00",
            "R10",
            "R20",
            "R21",
            "R22",
            "NI22",
        )


class TestConnectionAllocation:
    def test_reverse_uses_reversed_path(self, allocator):
        connection = allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI22")
        )
        assert connection.reverse.path == tuple(
            reversed(connection.forward.path)
        )

    def test_failed_reverse_rolls_back_forward(self, params):
        topology = build_mesh(2, 1)
        allocator = SlotAllocator(topology=topology, params=params)
        # Saturate the reverse direction NI11->... only.
        allocator.allocate_channel(
            ChannelRequest(
                "hog", "NI10", "NI00", slots=params.slot_table_size
            )
        )
        before = allocator.ledger.total_claims()
        with pytest.raises(AllocationError):
            allocator.allocate_connection(
                ConnectionRequest("c", "NI00", "NI10")
            )
        assert allocator.ledger.total_claims() == before

    def test_release_connection(self, allocator):
        connection = allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI22", forward_slots=2)
        )
        claims = allocator.ledger.total_claims()
        allocator.release_connection(connection)
        assert allocator.ledger.total_claims() == claims - (
            2 * len(connection.forward.path) - 2 + len(
                connection.reverse.path
            ) - 1
        )


class TestMulticastAllocation:
    def test_tree_shares_prefix(self, allocator):
        tree = allocator.allocate_multicast(
            MulticastRequest("m", "NI00", ("NI20", "NI22"), slots=1)
        )
        edges = tree.tree_edges()
        assert edges.count(("NI00", "R00")) == 1
        validate_schedule(allocator.topology, [tree])

    def test_multicast_and_unicast_coexist(self, allocator):
        tree = allocator.allocate_multicast(
            MulticastRequest("m", "NI00", ("NI20", "NI02"), slots=2)
        )
        unicast = allocator.allocate_channel(
            ChannelRequest("u", "NI00", "NI20", slots=2)
        )
        validate_schedule(allocator.topology, [tree, unicast])

    def test_release_multicast(self, allocator):
        tree = allocator.allocate_multicast(
            MulticastRequest("m", "NI00", ("NI20", "NI02"), slots=1)
        )
        allocator.release_multicast(tree)
        assert allocator.ledger.total_claims() == 0

    def test_exhaustion(self, allocator, params):
        allocator.allocate_channel(
            ChannelRequest(
                "hog", "NI00", "NI01", slots=params.slot_table_size
            )
        )
        with pytest.raises(AllocationError, match="admissible"):
            allocator.allocate_multicast(
                MulticastRequest("m", "NI00", ("NI01", "NI02"), slots=1)
            )


class TestPlanHandoff:
    @pytest.mark.parametrize("ledger_class", LEDGERS, ids=LEDGER_IDS)
    def test_allocate_after_admit_plans_nothing(
        self, monkeypatch, ledger_class
    ):
        """An allocate that follows its admit claims the plan the admit
        made, admitted or rejected alike: no probe and no route of its
        own, so a request costs one route and at most two probes."""
        with use_ledger(ledger_class):
            allocator = SlotAllocator(
                topology=build_mesh(3, 3),
                params=daelite_parameters(slot_table_size=8),
            )
        assert type(allocator.ledger) is ledger_class
        oracle = AdmissionOracle(allocator)
        calls = {"probe": 0, "route": 0}

        def counted(name, original):
            def call(*args):
                calls[name] += 1
                return original(*args)

            return call

        ledger = allocator.ledger
        monkeypatch.setattr(
            ledger, "probe_rotations", counted("probe", ledger.probe_rotations)
        )
        monkeypatch.setattr(
            slot_alloc, "cached_route", counted("route", slot_alloc.cached_route)
        )
        rng = random.Random(46)
        nis = sorted(element.name for element in allocator.topology.nis)
        live = []
        admitted = []
        for index in range(200):
            request = ConnectionRequest(
                f"c{index}",
                *rng.sample(nis, 2),
                forward_slots=rng.randint(1, 4),
            )
            before = dict(calls)
            verdict = oracle.admit_connection(request)
            planned = dict(calls)
            try:
                live.append(allocator.allocate_connection(request))
            except AllocationError:
                assert not verdict.admitted
            assert calls == planned
            assert calls["route"] - before["route"] == 1
            assert calls["probe"] - before["probe"] <= 2
            admitted.append(verdict.admitted)
            if len(live) > 8:
                allocator.release_connection(live.pop(rng.randrange(len(live))))
        assert 0 < sum(admitted) < len(admitted)


class CountingDict(dict):
    """A dict that counts its lookups: ``get``, ``[]`` and ``in``."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


def release_work_gate(requests=300, seed=51):
    """A seeded admit -> allocate -> release churn that asserts what a
    release costs: each planned channel builds its claim diagonal once,
    and releasing an allocated connection builds none, looks up no link
    in the ledger's cell store and journals one entry per channel (an
    emptied cell leaving the store is the one store write it makes)."""
    allocator = SlotAllocator(
        topology=build_mesh(4, 4),
        params=daelite_parameters(slot_table_size=16),
    )
    oracle = AdmissionOracle(allocator)
    ledger = allocator.ledger
    ledger._links = cells = CountingDict(ledger._links)
    calls = {"plan_channel": 0, "_claim_diagonal": 0}
    for name in calls:
        def counted(*args, _name=name, _method=getattr(allocator, name)):
            calls[_name] += 1
            return _method(*args)

        setattr(allocator, name, counted)
    rng = random.Random(seed)
    nis = sorted(element.name for element in allocator.topology.nis)
    live = []
    releases = 0
    for index in range(requests):
        request = ConnectionRequest(
            f"c{index}", *rng.sample(nis, 2), forward_slots=rng.randint(1, 4)
        )
        oracle.admit_connection(request)
        try:
            live.append(allocator.allocate_connection(request))
        except AllocationError:
            pass
        if len(live) > 12:
            victim = live.pop(rng.randrange(len(live)))
            lookups, diagonals = cells.lookups, calls["_claim_diagonal"]
            token = ledger.snapshot()
            allocator.release_connection(victim)
            assert len(ledger._journal) == 2, "a per-link journal entry"
            ledger.commit(token)
            assert cells.lookups == lookups, "a release looked up a link"
            assert calls["_claim_diagonal"] == diagonals, (
                "a release rebuilt its diagonal"
            )
            releases += 1
    assert calls["_claim_diagonal"] == calls["plan_channel"]
    assert releases > 100 and ledger.total_claims() > 0


class TestReleaseWork:
    def test_release_pops_its_claim_record(self):
        release_work_gate()

    def test_a_release_that_rebuilds_the_diagonal_is_caught(self, monkeypatch):
        plant(
            monkeypatch,
            "diagonal = channel.diagonal",
            "diagonal = None",
            owner=SlotAllocator,
            method="release_channel",
        )
        with pytest.raises(AssertionError):
            release_work_gate()
