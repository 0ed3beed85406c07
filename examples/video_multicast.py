"""Video distribution with hardware multicast (paper Fig. 7).

A decoder at NI00 streams a video to three displays.  With daelite's
multicast, the stream crosses the decoder's NI link *once* and is forked
inside the routers; with per-destination unicast connections the same
quality would need three times the source-link bandwidth.

The example also demonstrates the paper's caveat: multicast channels run
without end-to-end flow control, so "the destinations [must] process
data at the same rate as it is delivered".

Run:  python examples/video_multicast.py
"""

from __future__ import annotations

from repro.alloc import MulticastRequest, SlotAllocator
from repro.analysis import multicast_required_drain_rate
from repro.core import DaeliteNetwork
from repro.params import daelite_parameters
from repro.staticcheck import verify_network_state
from repro.topology import build_mesh
from repro.traffic import CbrGenerator, CheckingSink

DISPLAYS = ("NI22", "NI20", "NI02")
FRAME_WORDS = 300


def main() -> None:
    topology = build_mesh(3, 3)
    params = daelite_parameters(slot_table_size=16)

    # One multicast tree, 4/16 slots: a quarter of a link, delivered to
    # every display simultaneously.
    allocator = SlotAllocator(topology=topology, params=params)
    tree = allocator.allocate_multicast(
        MulticastRequest("video", "NI00", DISPLAYS, slots=4)
    )
    print("multicast tree branches:")
    for branch in tree.paths:
        print(f"  {' -> '.join(branch.path)}")
    print(f"slots: {sorted(tree.slots)} (shared by all branches)")

    network = DaeliteNetwork(topology, params, host_ni="NI11")
    handle = network.configure_multicast(tree)
    print(
        f"tree set-up: {handle.setup_cycles} cycles in "
        f"{len(handle.requests)} packets (trunk + partial paths)"
    )
    verify_network_state(network, [handle])

    # The decoder produces at exactly the allocated rate; each display
    # must drain at that rate (no credits protect multicast).
    rate = multicast_required_drain_rate(tree.slots, params)
    period = max(1, int(1 / rate))
    print(f"required per-display drain rate: {rate:.3f} words/cycle")

    decoder = CbrGenerator(
        "decoder",
        lambda payload: network.ni("NI00").submit(
            handle.src_channel, payload, "video"
        ),
        period=period,
        total_words=FRAME_WORDS,
    )
    displays = [
        CheckingSink(
            f"display_{name}",
            (
                lambda ni, channel: lambda n: network.ni(ni).receive(
                    channel, n
                )
            )(name, handle.dst_channels[name]),
        )
        for name in DISPLAYS
    ]
    network.kernel.add(decoder)
    network.kernel.add_all(displays)

    network.kernel.run_until(
        lambda: all(
            display.words_received >= FRAME_WORDS
            for display in displays
        ),
        max_cycles=100_000,
    )

    source_link = network.link("NI00", "R00")
    print(f"frame of {FRAME_WORDS} words delivered to 3 displays")
    print(
        f"source NI link carried {source_link.words_carried} words "
        f"(unicast would need {3 * FRAME_WORDS})"
    )
    for display in displays:
        assert display.clean and display.words_received == FRAME_WORDS
        assert display._last_seq == {"video": FRAME_WORDS - 1}
    assert source_link.words_carried == FRAME_WORDS
    assert network.total_dropped_words == 0
    print("all displays received identical, in-order streams — OK")


if __name__ == "__main__":
    main()
