"""Unit tests for the Table II area model."""

from __future__ import annotations

import pytest

from repro.analysis import (
    NAND2_UM2,
    crossbar,
    daelite_ni_ge,
    daelite_router_ge,
    fifo,
    ge_to_mm2,
    mux_tree,
    register_bits,
    storage_bits,
    table2_rows,
    vc_router_ge,
)
from repro.errors import ParameterError


class TestComponents:
    def test_register_and_storage_linear(self):
        assert register_bits(10) == 2 * register_bits(5)
        assert storage_bits(8) > 0

    def test_mux_tree_grows_with_inputs(self):
        assert mux_tree(4, 32) > mux_tree(2, 32)
        assert mux_tree(1, 32) == 0.0

    def test_crossbar_quadratic_in_ports(self):
        small = crossbar(2, 2, 32)
        large = crossbar(4, 4, 32)
        assert large > 2 * small

    def test_fifo_dominated_by_storage(self):
        assert fifo(8, 32) > register_bits(8 * 32)

    def test_validation(self):
        with pytest.raises(ParameterError):
            register_bits(-1)
        with pytest.raises(ParameterError):
            mux_tree(0, 8)
        with pytest.raises(ParameterError):
            fifo(0, 8)


class TestRouterModels:
    def test_slot_table_grows_daelite_router(self):
        assert daelite_router_ge(5, slots=64) > daelite_router_ge(
            5, slots=16
        )

    def test_vc_router_much_larger(self):
        assert vc_router_ge(5, vcs=4, buffer_flits=2) > 2 * (
            daelite_router_ge(5)
        )

    def test_async_multiplier(self):
        sync = vc_router_ge(5, 8, 4)
        asynchronous = vc_router_ge(5, 8, 4, asynchronous=True)
        assert asynchronous > sync

    def test_ni_larger_than_router(self):
        # Queues dominate: the NI is the expensive element.
        assert daelite_ni_ge() > daelite_router_ge(5)


class TestTechnology:
    def test_nodes_monotonic(self):
        assert (
            NAND2_UM2["65nm"]
            < NAND2_UM2["90nm"]
            < NAND2_UM2["120nm"]
            < NAND2_UM2["130nm"]
        )

    def test_conversion(self):
        assert ge_to_mm2(1_000_000, "65nm") == pytest.approx(
            1.41, rel=0.01
        )

    def test_unknown_node_rejected(self):
        with pytest.raises(ParameterError):
            ge_to_mm2(100, "7nm")


class TestTable2:
    def test_all_ten_rows_present(self):
        rows = table2_rows()
        assert len(rows) == 10
        names = {row.name for row in rows}
        assert "MANGO" in names and "xpipes lite" in names

    def test_daelite_wins_every_row(self):
        """The paper's Table II shows a reduction on every line."""
        for row in table2_rows():
            assert row.model_reduction > 0, row.name

    def test_model_tracks_paper_within_tolerance(self):
        """Shape reproduction: every modelled reduction within 3
        percentage points of the paper's."""
        for row in table2_rows():
            assert abs(
                row.model_reduction - row.paper_reduction
            ) <= 0.03, (
                f"{row.name}: paper {row.paper_reduction:.0%} vs "
                f"model {row.model_reduction:.0%}"
            )

    def test_big_small_ordering_preserved(self):
        """VC/buffered routers lose big; aelite and Quarc are close."""
        rows = {row.name: row for row in table2_rows()}
        assert rows["MANGO"].model_reduction > 0.8
        assert rows["Wolkotte PS"].model_reduction > 0.8
        assert rows["aelite (ASIC)"].model_reduction < 0.2
        assert rows["Quarc"].model_reduction < 0.3

    def test_areas_in_plausible_mm2_range(self):
        for row in table2_rows():
            assert 0.001 < row.daelite_mm2 < 2.0
            assert 0.001 < row.other_mm2 < 2.0
