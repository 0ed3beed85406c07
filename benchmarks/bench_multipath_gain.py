"""C4 — Multipath routing bandwidth gain (after MICPRO [29]).

"daelite allows routing one connection over multiple paths at no
additional cost.  In [29] it was shown that multipath routing can provide
bandwidth gains of 24% on average."

We reproduce the experiment's shape: over many random traffic patterns
on a 4x4 mesh, compare the total bandwidth the allocator can place with
single-path vs multipath allocation.  The gain is reported per pattern
and averaged; on congested patterns it should land in the tens of
percent.
"""

from __future__ import annotations

from repro.alloc import ChannelRequest, SlotAllocator, allocate_multipath
from repro.errors import AllocationError
from repro.params import daelite_parameters
from repro.topology import build_mesh
from repro.traffic import Lcg

SLOT_TABLE_SIZE = 16
PATTERNS = 12
#: Demanding patterns (like the streaming workloads of [29]): two dozen
#: channels asking for half to three quarters of a link each.
REQUESTS_PER_PATTERN = 24


def random_channel_requests(topology, seed):
    lcg = Lcg(seed)
    nis = sorted(element.name for element in topology.nis)
    requests = []
    for index in range(REQUESTS_PER_PATTERN):
        src = nis[lcg.next_below(len(nis))]
        dst = src
        while dst == src:
            dst = nis[lcg.next_below(len(nis))]
        slots = 8 + lcg.next_below(5)  # 8..12 of 16 slots: pressure
        requests.append(
            ChannelRequest(f"r{index}", src, dst, slots=slots)
        )
    return requests


def placed_bandwidth(topology, requests, multipath):
    params = daelite_parameters(slot_table_size=SLOT_TABLE_SIZE)
    allocator = SlotAllocator(
        topology=topology, params=params, policy="first"
    )
    placed = 0
    for request in requests:
        try:
            if multipath:
                allocation = allocate_multipath(
                    allocator, request, max_paths=4
                )
                placed += allocation.total_slots
            else:
                channel = allocator.allocate_channel(request)
                placed += len(channel.slots)
        except AllocationError:
            continue
    return placed


def test_multipath_bandwidth_gain(benchmark):
    topology = build_mesh(4, 4)

    def sweep():
        gains = []
        for seed in range(PATTERNS):
            requests = random_channel_requests(topology, seed)
            single = placed_bandwidth(topology, requests, False)
            multi = placed_bandwidth(topology, requests, True)
            gains.append((seed, single, multi, multi / single - 1.0))
        return gains

    gains = benchmark(sweep)
    print("\nC4 — MULTIPATH BANDWIDTH GAIN (4x4 mesh, T=16)")
    print(f"{'pattern':>8} {'single':>7} {'multi':>6} {'gain':>7}")
    for seed, single, multi, gain in gains:
        print(f"{seed:>8} {single:>7} {multi:>6} {gain:>6.1%}")
    average = sum(gain for *_, gain in gains) / len(gains)
    print(f"  average gain: {average:.1%} (paper [29]: ~24% average)")
    # Shape: individual patterns may wobble a little (greedy order
    # effects), but the average gain is in the tens of percent, as in
    # [29].
    for _, single, multi, gain in gains:
        assert gain >= -0.05
    assert 0.10 <= average <= 0.45
