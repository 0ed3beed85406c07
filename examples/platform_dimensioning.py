"""The complete toolflow: spec -> dimension -> instantiate -> verify.

The paper "leverage[s] on existing tools for network dimensioning,
analysis and instantiation".  This example runs our version of that
flow end to end: describe the SoC's IPs and use cases, let the
dimensioner pick the cheapest mesh and TDM wheel, build the daelite
instance, configure a use case at run time, and verify the traffic.

Run:  python examples/platform_dimensioning.py
"""

from __future__ import annotations

from repro.alloc import (
    ConnectionRequest,
    PlatformSpec,
    UseCase,
    dimension_platform,
)
from repro.analysis import describe_allocation
from repro.core import DaeliteNetwork, OnlineConnectionManager
from repro.staticcheck import verify_network_state


def main() -> None:
    # 1. The SoC: six IPs, two use cases (a set-top box, like the
    #    paper's motivation: video + cache + control traffic).
    spec = PlatformSpec(
        ips=("cpu", "mem", "decoder", "display", "dsp", "io"),
        usecases=(
            UseCase(
                "playback",
                (
                    ConnectionRequest(
                        "video", "decoder", "display", forward_slots=6
                    ),
                    ConnectionRequest(
                        "fetch", "decoder", "mem", forward_slots=3,
                        reverse_slots=3,
                    ),
                    ConnectionRequest(
                        "cache", "cpu", "mem", forward_slots=1,
                        reverse_slots=2,
                    ),
                ),
            ),
            UseCase(
                "record",
                (
                    ConnectionRequest(
                        "capture", "io", "mem", forward_slots=4
                    ),
                    ConnectionRequest(
                        "encode", "dsp", "mem", forward_slots=4,
                        reverse_slots=2,
                    ),
                    ConnectionRequest(
                        "cache", "cpu", "mem", forward_slots=1,
                        reverse_slots=2,
                    ),
                ),
            ),
        ),
    )

    # 2. Dimension: smallest mesh + wheel that fits every use case.
    result = dimension_platform(spec, max_side=4)
    print(
        f"chosen platform: {result.width}x{result.height} mesh, "
        f"T={result.slot_table_size}, "
        f"~{result.area_mm2('65nm'):.3f} mm^2 @65nm"
    )
    for ip, ni in result.placement.items():
        print(f"  {ip:<8} -> {ni}")

    # 3. Instantiate and bring up the 'playback' use case at run time.
    topology = result.build_topology()
    network = DaeliteNetwork(
        topology, result.params, host_ni=result.placement["cpu"]
    )
    manager = OnlineConnectionManager(network)
    playback = spec.usecases[0]
    for request in playback.connections:
        bound = ConnectionRequest(
            request.label,
            result.placement[request.src_ni],
            result.placement[request.dst_ni],
            forward_slots=request.forward_slots,
            reverse_slots=request.reverse_slots,
        )
        record = manager.open_connection(bound)
        print(
            f"opened {request.label!r} in {record.setup_cycles} cycles"
        )
        print("  " + describe_allocation(
            record.allocation, result.params
        ).splitlines()[1].strip())

    # 4. Verify: first the materialized tables against the use case's
    #    allocations, then a burst of video frames through them.
    verify_network_state(
        network,
        [record.handle for record in manager.connections.values()],
    )
    video = manager.connections["video"]
    src = result.placement["decoder"]
    dst = result.placement["display"]
    words = 120
    network.ni(src).submit_words(
        video.handle.forward.src_channel, list(range(words)), "video"
    )
    received = []
    while len(received) < words:
        network.run(2)
        received.extend(
            w.payload
            for w in network.ni(dst).receive(
                video.handle.forward.dst_channel
            )
        )
    assert received == list(range(words))
    assert network.total_dropped_words == 0
    print(f"streamed {words} video words, zero loss — platform OK")


if __name__ == "__main__":
    main()
