"""Rescuing a fat stream with multipath allocation (MICPRO [29]).

"daelite allows routing one connection over multiple paths at no
additional cost" — routers forward purely on arrival time, so a channel
split over two routes needs no extra hardware.  This example congests
the preferred route of a 12-slot stream until single-path allocation
fails, then places the same request over two paths and streams over both
simultaneously.

Run:  python examples/multipath_bandwidth.py
"""

from __future__ import annotations

from repro.alloc import (
    ChannelRequest,
    SlotAllocator,
    allocate_multipath,
)
from repro.core import DaeliteNetwork
from repro.core.host import ChannelEndpoints
from repro.errors import AllocationError
from repro.params import daelite_parameters
from repro.staticcheck import verify_network_state
from repro.topology import build_mesh


def main() -> None:
    topology = build_mesh(3, 3)
    params = daelite_parameters(slot_table_size=16)
    allocator = SlotAllocator(
        topology=topology, params=params, policy="first"
    )

    # Congest the two links entering the destination router R22 (every
    # NI00 -> NI22 route must use one of them), leaving 6 free slots on
    # each.  The padding channel shifts the second hog's slot window so
    # the two surviving windows are disjoint on the links the multipath
    # parts share (source NI link, destination NI link).
    allocator.allocate_channel(
        ChannelRequest("hog_south", "NI21", "NI12", slots=10),
        path=("NI21", "R21", "R22", "R12", "NI12"),
    )
    allocator.allocate_channel(
        ChannelRequest("pad", "NI12", "NI02", slots=6),
        path=("NI12", "R12", "R02", "NI02"),
    )
    allocator.allocate_channel(
        ChannelRequest("hog_east", "NI12", "NI21", slots=10),
        path=("NI12", "R12", "R22", "R21", "NI21"),
    )

    request = ChannelRequest("fat", "NI00", "NI22", slots=12)
    try:
        allocator.allocate_channel(request)
        raise SystemExit("expected single-path allocation to fail")
    except AllocationError as error:
        print(f"single-path allocation fails: {error}")

    allocation = allocate_multipath(allocator, request, max_paths=4)
    print(
        f"multipath allocation succeeds over "
        f"{allocation.paths_used} paths "
        f"({allocation.total_slots} slots total):"
    )
    for part in allocation.parts:
        print(
            f"  {' -> '.join(part.path)}  slots "
            f"{sorted(part.slots)}"
        )

    # Drive both parts as independent channels of the same logical
    # stream (words are interleaved across paths; daelite pays nothing
    # extra in the routers).
    network = DaeliteNetwork(topology, params, host_ni="NI11")
    handles = [
        network.run_until_configured(
            network.host.setup_path_only(part)
        )
        for part in allocation.parts
    ]
    # setup_path_only returns cycles; re-fetch channel indices from the
    # host bookkeeping by configuring NI channel state directly through
    # packets is already done — look the channels up via the tables.
    src_ni = network.ni("NI00")
    dst_ni = network.ni("NI22")
    # Model-check the programmed tables: each part must materialize as
    # an independent contention-free channel.
    verify_network_state(
        network,
        [
            ChannelEndpoints(
                channel=part,
                src_channel=src_ni.injection_table.channel(
                    min(part.table_slots(0))
                ),
                dst_channel=dst_ni.arrival_table.channel(
                    min(part.table_slots(len(part.path) - 1))
                ),
            )
            for part in allocation.parts
        ],
    )
    words_per_part = 120
    total = 0
    for index, part in enumerate(allocation.parts):
        inject_channel = next(
            iter(
                src_ni.injection_table.channel(slot)
                for slot in part.table_slots(0)
            )
        )
        # Multipath parts run without flow control here (like
        # multicast) to keep the example focused on the data path.
        source = src_ni.source_channel(inject_channel)
        source.flags = 0b01  # enabled, unchecked
        src_ni.submit_words(
            inject_channel,
            list(range(index * 1000, index * 1000 + words_per_part)),
            f"fat#p{index}",
        )
        total += words_per_part

    received = {part.label: 0 for part in allocation.parts}
    dst_ni = network.ni("NI22")
    for _ in range(30_000):
        network.run(1)
        for channel in list(dst_ni.dest_channels):
            received_words = dst_ni.receive(channel)
            for word in received_words:
                received[word.connection] = (
                    received.get(word.connection, 0) + 1
                )
        if (
            sum(
                count
                for label, count in received.items()
                if label.startswith("fat")
            )
            >= total
        ):
            break
    delivered = sum(
        count
        for label, count in received.items()
        if label.startswith("fat")
    )
    print(
        f"streamed {delivered}/{total} words over "
        f"{allocation.paths_used} paths simultaneously"
    )
    assert delivered == total
    assert network.total_dropped_words == 0
    print("multipath bandwidth OK")


if __name__ == "__main__":
    main()
