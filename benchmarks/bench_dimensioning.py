"""Dimensioning-flow bench: platform cost vs workload demand.

The Æthereal-style flow the paper builds on sizes the NoC for the
application.  This bench sweeps workload intensity and reports the
platform (mesh, wheel, estimated area) the dimensioner picks — the
cost curve a system architect would look at.
"""

from __future__ import annotations

from repro.alloc import (
    ConnectionRequest,
    PlatformSpec,
    UseCase,
    dimension_platform,
)


def spec_for(streams, slots_per_stream):
    ips = tuple(
        name
        for index in range(streams)
        for name in (f"src{index}", f"dst{index}")
    )
    connections = tuple(
        ConnectionRequest(
            f"s{index}",
            f"src{index}",
            f"dst{index}",
            forward_slots=slots_per_stream,
        )
        for index in range(streams)
    )
    return PlatformSpec(
        ips=ips, usecases=(UseCase("uc", connections),)
    )


def test_platform_cost_vs_demand(benchmark):
    def sweep():
        rows = []
        for streams, slots in [(1, 2), (2, 4), (4, 4), (6, 6)]:
            result = dimension_platform(
                spec_for(streams, slots), max_side=5
            )
            rows.append(
                (
                    streams,
                    slots,
                    f"{result.width}x{result.height}",
                    result.slot_table_size,
                    result.area_mm2("65nm"),
                )
            )
        return rows

    rows = benchmark(sweep)
    print("\nDIMENSIONING — platform picked per workload intensity")
    print(
        f"{'streams':>8} {'slots':>6} {'mesh':>6} {'T':>4} "
        f"{'mm2@65nm':>9}"
    )
    for streams, slots, mesh, wheel, area in rows:
        print(
            f"{streams:>8} {slots:>6} {mesh:>6} {wheel:>4} "
            f"{area:>9.3f}"
        )
    areas = [row[4] for row in rows]
    assert areas == sorted(areas)  # more demand -> bigger platform
    assert areas[0] < 0.2  # a single stream fits a tiny platform


def test_wheel_size_escalation(benchmark):
    """Growing per-link demand escalates T before the mesh grows."""

    def sweep():
        rows = []
        for slots in (2, 6, 12, 24):
            spec = PlatformSpec(
                ips=("a", "b"),
                usecases=(
                    UseCase(
                        "uc",
                        (
                            ConnectionRequest(
                                "c",
                                "a",
                                "b",
                                forward_slots=slots,
                            ),
                        ),
                    ),
                ),
            )
            result = dimension_platform(spec, max_side=3)
            rows.append((slots, result.slot_table_size))
        return rows

    rows = benchmark(sweep)
    print("\nDIMENSIONING — wheel size vs single-stream demand")
    for slots, wheel in rows:
        print(f"  {slots:>2} slots requested -> T={wheel}")
    wheels = [wheel for _, wheel in rows]
    assert wheels == sorted(wheels)
    assert wheels[-1] == 32
