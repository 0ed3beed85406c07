"""Unit tests for the closed-form admission oracle (repro.analysis.model)."""

from __future__ import annotations

import pytest

from repro.alloc import (
    ChannelRequest,
    ConnectionRequest,
    MulticastRequest,
    SlotAllocator,
)
from repro.analysis import (
    AdmissionOracle,
    admit,
    fabric_of,
    fleet_models,
    in_network_latency_cycles,
    scheduling_jitter_cycles,
    worst_case_latency_cycles,
)
from repro.errors import ParameterError, TopologyError
from repro.params import aelite_parameters, daelite_parameters
from repro.topology import build_mesh

from ..ledger_mirror import LEDGER_IDS, LEDGERS, use_ledger


@pytest.fixture
def setup():
    mesh = build_mesh(3, 3)
    params = daelite_parameters(slot_table_size=8)
    allocator = SlotAllocator(topology=mesh, params=params)
    return mesh, params, allocator


class TestFabricInference:
    def test_daelite(self):
        assert fabric_of(daelite_parameters()) == "daelite"

    def test_aelite(self):
        assert fabric_of(aelite_parameters()) == "aelite"

    def test_unknown_fabric_rejected(self, setup):
        _, _, allocator = setup
        with pytest.raises(ParameterError):
            AdmissionOracle(allocator, fabric="wormhole")


class TestChannelModel:
    def test_matches_bounds_functions(self, setup):
        _, params, allocator = setup
        oracle = AdmissionOracle(allocator)
        channel = allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI22", forward_slots=2)
        ).forward
        model = oracle.channel_model(channel)
        assert model.in_network_latency_cycles == (
            in_network_latency_cycles(channel, params)
        )
        assert model.worst_case_latency_cycles == (
            worst_case_latency_cycles(channel, params)
        )
        assert model.jitter_bound_cycles == (
            scheduling_jitter_cycles(channel.slots, params)
        )
        assert model.best_case_latency_cycles == (
            model.pipeline_cycles + model.in_network_latency_cycles
        )
        assert model.worst_case_latency_cycles == (
            model.best_case_latency_cycles + model.jitter_bound_cycles
        )

    def test_wheel_size_mismatch_rejected(self, setup):
        _, _, allocator = setup
        oracle = AdmissionOracle(allocator)
        other = SlotAllocator(
            topology=build_mesh(3, 3),
            params=daelite_parameters(slot_table_size=16),
        )
        channel = other.allocate_channel(
            ChannelRequest("x", "NI00", "NI11")
        )
        with pytest.raises(ParameterError):
            oracle.channel_model(channel)


def background_load(allocator):
    """Claims the planned requests below have to pick around."""
    allocator.allocate_connection(
        ConnectionRequest("bg0", "NI00", "NI22", forward_slots=3)
    )
    allocator.allocate_channel(ChannelRequest("bg1", "NI01", "NI21", slots=2))
    allocator.allocate_multicast(
        MulticastRequest("bg2", "NI10", ("NI02", "NI22"), slots=2)
    )


#: One admissible request of each flavour, after background_load.
PLANNED = (
    ConnectionRequest("c", "NI00", "NI22", forward_slots=2),
    ChannelRequest("ch", "NI01", "NI20", slots=2),
    MulticastRequest("m", "NI00", ("NI11", "NI21"), slots=2),
)

#: One request of each flavour the residual schedule cannot hold.
UNPLACEABLE = (
    ConnectionRequest("cx", "NI00", "NI22", forward_slots=8),
    ChannelRequest("chx", "NI01", "NI21", slots=8),
    MulticastRequest("mx", "NI10", ("NI02", "NI22"), slots=8),
)

#: Every method that changes a ledger's state or its journal.
LEDGER_WRITES = (
    "claim",
    "claim_prepared",
    "release_rotations",
    "snapshot",
    "rollback",
    "commit",
)


class TestAdmissionVerdicts:
    def test_plan_matches_subsequent_allocation(self, setup):
        """On a loaded fabric, each flavour's verdict reports exactly
        the slots, path and bound of the allocation that follows it."""
        _, _, allocator = setup
        background_load(allocator)
        oracle = AdmissionOracle(allocator)
        for request in PLANNED:
            verdict = oracle.admit(request)
            assert verdict.admitted and verdict.reason == "ok"
            if isinstance(request, ConnectionRequest):
                connection = allocator.allocate_connection(request)
                channel = connection.forward
                model = oracle.connection_model(connection)
            elif isinstance(request, MulticastRequest):
                tree = allocator.allocate_multicast(request)
                channel = tree.paths[0]
                model = oracle.multicast_model(tree)
            else:
                channel = allocator.allocate_channel(request)
                model = oracle.channel_model(channel)
            assert verdict.planned_slots == tuple(sorted(channel.slots))
            assert verdict.path == channel.path
            assert verdict.model == model
            assert verdict.worst_case_latency_cycles == (
                model.worst_case_latency_cycles
            )

    @pytest.mark.parametrize("ledger_class", LEDGERS, ids=LEDGER_IDS)
    def test_admit_never_writes_the_ledger(self, monkeypatch, ledger_class):
        """Admission plans and claims nothing: no flavour, admitted or
        not, calls a ledger write method — not even a snapshot — on the
        ledger or on its test mirror."""
        with use_ledger(ledger_class):
            allocator = SlotAllocator(
                topology=build_mesh(3, 3),
                params=daelite_parameters(slot_table_size=8),
            )
        background_load(allocator)
        ledger = allocator.ledger
        writes = []
        for name in LEDGER_WRITES:
            def counted(*args, _name=name, _write=getattr(ledger, name)):
                writes.append(_name)
                return _write(*args)

            monkeypatch.setattr(ledger, name, counted)
        oracle = AdmissionOracle(allocator)
        verdicts = [oracle.admit(request) for request in PLANNED]
        verdicts += [oracle.admit(request) for request in UNPLACEABLE]
        verdicts.append(oracle.admit(PLANNED[0], deadline_cycles=1))
        assert [verdict.admitted for verdict in verdicts] == (
            [True] * 3 + [False] * 4
        )
        assert writes == []
        allocator.allocate_multicast(PLANNED[2])  # the counters count
        assert writes[0] == "claim_prepared"

    def test_probe_does_not_claim(self, setup):
        _, _, allocator = setup
        oracle = AdmissionOracle(allocator)
        before = allocator.ledger.total_claims()
        for _ in range(3):
            oracle.admit(
                ConnectionRequest("c", "NI00", "NI22", forward_slots=3)
            )
            oracle.admit(
                MulticastRequest("m", "NI00", ("NI11", "NI21"), slots=2)
            )
        assert allocator.ledger.total_claims() == before

    def test_deadline_rejection(self, setup):
        _, _, allocator = setup
        verdict = admit(
            allocator,
            ConnectionRequest("c", "NI00", "NI22"),
            deadline_cycles=1,
        )
        assert not verdict.admitted
        assert "deadline" in verdict.reason
        # The bound itself is still reported for capacity planning.
        assert verdict.worst_case_latency_cycles is not None

    def test_bandwidth_rejection(self, setup):
        _, _, allocator = setup
        verdict = admit(
            allocator,
            ConnectionRequest("c", "NI00", "NI22", forward_slots=1),
            min_bandwidth_words_per_cycle=0.9,
        )
        assert not verdict.admitted
        assert "bandwidth" in verdict.reason

    def test_saturated_path_rejected(self, setup):
        _, params, allocator = setup
        # Claim every slot of the NI00 uplink.
        for index in range(params.slot_table_size):
            allocator.allocate_channel(
                ChannelRequest(f"fill{index}", "NI00", "NI10")
            )
        verdict = admit(
            allocator, ConnectionRequest("c", "NI00", "NI22")
        )
        assert not verdict.admitted
        assert verdict.reason

    @pytest.mark.parametrize(
        "request_",
        [
            ConnectionRequest("c", "NI00", "NI22"),
            ChannelRequest("ch", "NI00", "NI22"),
        ],
        ids=["connection", "channel"],
    )
    def test_unroutable_pair_rejected(self, setup, request_):
        mesh, _, allocator = setup
        mesh.fail_link("NI22", "R22")
        verdict = admit(allocator, request_)
        assert not verdict.admitted
        assert verdict.reason == "no path 'NI00' -> 'NI22'"
        assert verdict.path == ()
        # An unknown element is the caller's error, not a refusal.
        with pytest.raises(TopologyError, match="unknown element"):
            admit(allocator, type(request_)("x", "NI00", "NI99"))

    def test_channel_request_dispatch(self, setup):
        _, _, allocator = setup
        verdict = admit(
            allocator, ChannelRequest("ch", "NI01", "NI21", slots=2)
        )
        assert verdict.admitted
        assert len(verdict.planned_slots) == 2

    def test_unknown_request_type_rejected(self, setup):
        _, _, allocator = setup
        oracle = AdmissionOracle(allocator)
        with pytest.raises(ParameterError):
            oracle.admit(object())  # type: ignore[arg-type]


class TestMulticastModel:
    def test_branches_and_drain_rate(self, setup):
        _, params, allocator = setup
        oracle = AdmissionOracle(allocator)
        tree = allocator.allocate_multicast(
            MulticastRequest("m", "NI00", ("NI11", "NI22"), slots=2)
        )
        model = oracle.multicast_model(tree)
        assert len(model.branches) == 2
        assert model.required_drain_rate_words_per_cycle == (
            2 / params.slot_table_size
        )
        assert model.worst_case_latency_cycles == max(
            branch.worst_case_latency_cycles
            for branch in model.branches
        )
        deep = model.branch("NI22")
        assert deep.hops >= model.branch("NI11").hops
        with pytest.raises(ParameterError):
            model.branch("NI10")


class TestFleetCapacity:
    def test_empty_fabric_fully_free(self, setup):
        mesh, params, allocator = setup
        capacity = AdmissionOracle(allocator).fleet_capacity()
        # topology.links() lists both directions of every link pair.
        directed_links = len(mesh.links())
        assert capacity.total_slots == (
            directed_links * params.slot_table_size
        )
        assert capacity.total_free_slots == capacity.total_slots
        assert capacity.utilization == 0.0
        assert capacity.saturated_links == ()

    def test_claims_reduce_residual(self, setup):
        _, _, allocator = setup
        oracle = AdmissionOracle(allocator)
        before = oracle.fleet_capacity()
        connection = allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI22", forward_slots=2)
        )
        after = oracle.fleet_capacity()
        claimed = len(connection.forward.link_claims()) + len(
            connection.reverse.link_claims()
        )
        assert before.total_free_slots - after.total_free_slots == claimed
        assert after.utilization > 0.0

    def test_admissible_connection_count_restores_ledger(self, setup):
        _, params, allocator = setup
        oracle = AdmissionOracle(allocator)
        request = ConnectionRequest(
            "probe", "NI00", "NI10", forward_slots=2
        )
        count = oracle.admissible_connection_count(request)
        # The NI00 uplink has T slots; each copy takes 2 forward + 1
        # reverse claims on the bottleneck NI links.
        assert count == params.slot_table_size // 2
        assert allocator.ledger.total_claims() == 0
        # The probe left the schedule untouched: allocation still works.
        allocator.allocate_connection(request)

    def test_fleet_models_collects_everything(self, setup):
        _, _, allocator = setup
        oracle = AdmissionOracle(allocator)
        connection = allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI22")
        )
        tree = allocator.allocate_multicast(
            MulticastRequest("m", "NI11", ("NI01", "NI21"))
        )
        models = fleet_models(oracle, [connection], [tree])
        assert set(models) == {"c", "m"}
