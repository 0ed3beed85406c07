"""Golden regression tests pinning the paper's headline numbers.

Unlike the property suites (which assert relationships), these tests
pin *exact* values so that any drift in the area model, the set-up
path, or the latency datapath shows up as a diff against the paper's
tables:

* Table II — area comparison rows (gate-equivalent numbers and the
  paper-reported reduction percentages),
* Table III — connection set-up times (analytic daelite formula,
  simulated daelite set-up, modelled aelite sequence, and the
  order-of-magnitude speed-up),
* latency fixtures — exact per-word latencies of canonical daelite
  and aelite connections, cross-checked against the admission oracle.

If an intentional model change moves one of these numbers, update the
pinned value *and* the justification in DESIGN.md in the same commit.
"""

from __future__ import annotations

import pytest

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.aelite import AeliteNetwork
from repro.analysis import (
    AdmissionOracle,
    daelite_ni_ge,
    daelite_router_ge,
    ge_to_mm2,
    table2_rows,
)
from repro.analysis.setup_time import (
    ideal_setup_cycles,
    path_packet_words,
    setup_speedup,
)
from repro.core import DaeliteNetwork
from repro.params import aelite_parameters, daelite_parameters
from repro.topology import build_mesh


class TestTable2Golden:
    """Table II: 'designs that daelite is compared with' — area."""

    # (name, paper reduction, modelled competitor GE, daelite GE)
    ROWS = {
        "aelite (ASIC)": (0.10, 107_260.0, 96_540.0),
        "aelite (FPGA)": (0.16, 114_768.2, 96_540.0),
        "artNoC": (0.73, 21_462.5, 5_817.0),
        "Wolkotte CS": (0.68, 17_530.0, 5_817.0),
        "Wolkotte PS": (0.91, 72_800.0, 5_817.0),
        "MANGO": (0.89, 53_489.375, 5_817.0),
        "Quarc": (0.15, 13_726.6, 11_458.0),
        "SPIN": (0.76, 49_186.0, 11_458.0),
        "Banerjee SDM": (0.85, 36_330.0, 5_817.0),
        "xpipes lite": (0.78, 20_859.0, 4_523.0),
    }

    def test_rows_pinned(self):
        rows = {row.name: row for row in table2_rows()}
        assert set(rows) == set(self.ROWS)
        for name, (paper, other_ge, daelite_ge) in self.ROWS.items():
            row = rows[name]
            assert row.paper_reduction == pytest.approx(paper)
            assert row.other_ge == pytest.approx(other_ge)
            assert row.daelite_ge == pytest.approx(daelite_ge)

    def test_model_reduction_tracks_paper(self):
        """The modelled reduction stays within 2 points of Table II."""
        for row in table2_rows():
            modelled = 1.0 - row.daelite_ge / row.other_ge
            assert modelled == pytest.approx(
                row.paper_reduction, abs=0.02
            ), row.name

    def test_building_blocks_pinned(self):
        assert daelite_router_ge(ports=5, slots=32) == 5_817.0
        assert daelite_router_ge(ports=8, slots=32) == 11_458.0
        assert daelite_router_ge(ports=4, slots=32) == 4_523.0
        assert daelite_ni_ge() == 15_618.0

    def test_router_area_in_paper_ballpark_mm2(self):
        """'the area of one of our routers' stays in the order the
        paper reports for 65nm synthesis."""
        mm2 = ge_to_mm2(daelite_router_ge(ports=5, slots=32), "65nm")
        assert 0.005 < mm2 < 0.02


class TestTable3Golden:
    """Table III: 'cycles required to set up one connection'."""

    def test_path_packet_words_pinned(self):
        params = daelite_parameters(slot_table_size=32)
        assert [
            path_packet_words(hops, params) for hops in (1, 2, 3, 4)
        ] == [12, 14, 16, 18]
        # A smaller wheel needs fewer slot-mask words.
        small = daelite_parameters(slot_table_size=8)
        assert path_packet_words(2, small) == 11

    def test_ideal_setup_cycles_pinned(self):
        params = daelite_parameters(slot_table_size=32)
        assert [
            ideal_setup_cycles(hops, params, tree_depth=1)
            for hops in (1, 2, 3, 4)
        ] == [38, 42, 46, 50]
        assert [
            ideal_setup_cycles(hops, params, tree_depth=2)
            for hops in (1, 2, 3, 4)
        ] == [42, 46, 50, 54]
        # Set-up time is independent of the slot count — the paper's
        # daelite claim — so no slots parameter even exists.

    def test_measured_daelite_setup_pinned(self):
        """Simulated request+response path set-up on a 2x2 mesh."""
        topology = build_mesh(2, 2)
        params = daelite_parameters(slot_table_size=16)
        allocator = SlotAllocator(topology=topology, params=params)
        connection = allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI11", forward_slots=2)
        )
        network = DaeliteNetwork(topology, params, host_ni="NI00")
        handle = network.host.setup_paths(connection)
        assert network.run_until_configured(handle) == 55

    def test_modelled_aelite_setup_pinned(self):
        topology = build_mesh(2, 2)
        params = aelite_parameters(slot_table_size=16)
        allocator = SlotAllocator(topology=topology, params=params)
        connection = allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI11", forward_slots=2)
        )
        network = AeliteNetwork(
            topology, params, processor_overhead=30
        )
        assert network.setup_time(connection) == 1_160

    def test_order_of_magnitude_speedup_pinned(self):
        """1160 / 55 ~ 21x: 'roughly one order of magnitude faster'."""
        ratio = setup_speedup(55, 1_160)
        assert ratio == pytest.approx(1_160 / 55)
        assert ratio >= 10.0


class TestLatencyFixturesGolden:
    """Canonical connections with exact, pinned per-word latencies."""

    def test_daelite_3x3_corner_to_corner(self):
        """NI00 -> NI22 on a 3x3 mesh: 5 hops, 2 cycles each, plus the
        destination NI input stage — 11 cycles for *every* word, and
        the oracle predicts it."""
        topology = build_mesh(3, 3)
        params = daelite_parameters(slot_table_size=8)
        allocator = SlotAllocator(topology=topology, params=params)
        oracle = AdmissionOracle(allocator)
        connection = allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI22", forward_slots=2)
        )
        model = oracle.connection_model(connection)
        assert connection.forward.hops == 5
        assert model.forward.in_network_latency_cycles == 11
        network = DaeliteNetwork(topology, params, host_ni="NI11")
        handle = network.configure(connection)
        network.ni("NI00").submit_words(
            handle.forward.src_channel, list(range(20)), "c"
        )
        for _ in range(600):
            network.run(1)
            network.ni("NI22").receive(handle.forward.dst_channel)
            if network.stats.delivered_words("c") >= 20:
                break
        stats = network.stats.connections["c"]
        assert stats.ejected == 20
        assert set(stats.latency_histogram) == {11}

    def test_aelite_2x2_neighbour(self):
        """NI00 -> NI11 on a 2x2 mesh: 3 hops at 3 cycles each plus the
        NI input stage — 10 cycles for every word."""
        topology = build_mesh(2, 2)
        params = aelite_parameters(slot_table_size=16)
        allocator = SlotAllocator(topology=topology, params=params)
        oracle = AdmissionOracle(allocator)
        connection = allocator.allocate_connection(
            ConnectionRequest("c", "NI00", "NI11", forward_slots=2)
        )
        model = oracle.connection_model(connection)
        assert connection.forward.hops == 3
        assert model.forward.in_network_latency_cycles == 10
        network = AeliteNetwork(topology, params, host_ni="NI00")
        handle = network.install_connection(connection)
        network.ni("NI00").submit_words(
            handle.forward.src_connection, list(range(10)), label="c"
        )
        received = 0
        for _ in range(2_000):
            network.run(1)
            received += len(
                network.ni("NI11").receive(handle.forward.dst_queue)
            )
            if received >= 10:
                break
        stats = network.stats.connections["c"]
        assert received == 10
        assert set(stats.latency_histogram) == {10}
