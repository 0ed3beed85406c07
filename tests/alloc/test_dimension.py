"""Tests for the platform dimensioning front end."""

from __future__ import annotations

import pytest

from repro.alloc import ConnectionRequest, UseCase
from repro.alloc.dimension import (
    DimensioningResult,
    PlatformSpec,
    dimension_platform,
)
from repro.errors import AllocationError, ParameterError
from repro.params import daelite_parameters


def spec_with(connections, ips=("cpu", "mem", "dsp", "io")):
    return PlatformSpec(
        ips=tuple(ips),
        usecases=(UseCase("main", tuple(connections)),),
    )


class TestSpecValidation:
    def test_unknown_ip_rejected(self):
        with pytest.raises(ParameterError, match="unknown IP"):
            spec_with(
                [ConnectionRequest("c", "cpu", "gpu")],
            )

    def test_duplicate_ips_rejected(self):
        with pytest.raises(ParameterError, match="duplicate"):
            PlatformSpec(ips=("a", "a"), usecases=())

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            PlatformSpec(ips=(), usecases=())


class TestDimensioning:
    def test_small_spec_gets_small_platform(self):
        spec = spec_with(
            [ConnectionRequest("c", "cpu", "mem", forward_slots=2)],
            ips=("cpu", "mem"),
        )
        result = dimension_platform(spec)
        assert result.width * result.height >= 2
        assert result.width * result.height <= 4
        assert result.slot_table_size == 8  # cheapest wheel suffices

    def test_heavy_spec_needs_bigger_wheel(self):
        """Many fat connections between two IPs exceed T=8 on the
        shared NI link, forcing a larger wheel."""
        connections = [
            ConnectionRequest(
                f"c{i}", "cpu", "mem", forward_slots=3, reverse_slots=1
            )
            for i in range(4)
        ]
        spec = spec_with(connections, ips=("cpu", "mem"))
        result = dimension_platform(spec)
        assert result.slot_table_size >= 16

    def test_many_ips_need_bigger_mesh(self):
        ips = tuple(f"ip{i}" for i in range(10))
        spec = PlatformSpec(
            ips=ips,
            usecases=(
                UseCase(
                    "uc",
                    (ConnectionRequest("c", "ip0", "ip9"),),
                ),
            ),
        )
        result = dimension_platform(spec)
        assert result.width * result.height >= 10

    def test_impossible_spec_rejected(self):
        connections = [
            ConnectionRequest(
                f"c{i}", "cpu", "mem", forward_slots=30
            )
            for i in range(4)
        ]
        spec = spec_with(connections, ips=("cpu", "mem"))
        with pytest.raises(AllocationError, match="fits"):
            dimension_platform(spec, slot_table_sizes=(8, 16, 32))

    def test_result_is_buildable_and_allocatable(self):
        spec = spec_with(
            [
                ConnectionRequest("a", "cpu", "mem", forward_slots=2),
                ConnectionRequest("b", "dsp", "io", forward_slots=1),
            ]
        )
        result = dimension_platform(spec)
        topology = result.build_topology()
        from repro.alloc import SlotAllocator

        allocator = SlotAllocator(
            topology=topology, params=result.params
        )
        allocator.allocate_connection(
            ConnectionRequest(
                "a",
                result.placement["cpu"],
                result.placement["mem"],
                forward_slots=2,
            )
        )

    def test_area_reported(self):
        spec = spec_with(
            [ConnectionRequest("c", "cpu", "mem")], ips=("cpu", "mem")
        )
        result = dimension_platform(spec)
        assert result.area_ge > 0
        assert 0 < result.area_mm2("65nm") < 5

    def test_custom_placement_honored(self):
        spec = spec_with(
            [ConnectionRequest("c", "cpu", "mem")], ips=("cpu", "mem")
        )
        placement = {"cpu": "NI00", "mem": "NI10"}
        result = dimension_platform(spec, placement=placement)
        assert result.placement == placement

    def test_bad_placement_rejected(self):
        spec = spec_with(
            [ConnectionRequest("c", "cpu", "mem")], ips=("cpu", "mem")
        )
        with pytest.raises(ParameterError, match="cover"):
            dimension_platform(spec, placement={"cpu": "NI00"})

    def test_parallel_search_reports_no_fit(self):
        connections = [
            ConnectionRequest(f"c{i}", "cpu", "mem", forward_slots=30)
            for i in range(4)
        ]
        spec = spec_with(connections, ips=("cpu", "mem"))
        with pytest.raises(AllocationError, match="fits"):
            dimension_platform(spec)

    def test_engine_pins_every_evaluation(self):
        spec = spec_with(
            [ConnectionRequest("c", "cpu", "mem")], ips=("cpu", "mem")
        )
        bitmask = dimension_platform(spec, engine="bitmask")
        reference = dimension_platform(spec, engine="reference")
        assert (bitmask.width, bitmask.height, bitmask.params) == (
            reference.width,
            reference.height,
            reference.params,
        )

    def test_multiple_usecases_all_fit(self):
        spec = PlatformSpec(
            ips=("cpu", "mem", "dsp"),
            usecases=(
                UseCase(
                    "a",
                    (
                        ConnectionRequest(
                            "x", "cpu", "mem", forward_slots=4
                        ),
                    ),
                ),
                UseCase(
                    "b",
                    (
                        ConnectionRequest(
                            "y", "dsp", "mem", forward_slots=4
                        ),
                    ),
                ),
            ),
        )
        result = dimension_platform(spec)
        assert result.width * result.height >= 3
