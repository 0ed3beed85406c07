"""A2 — Ablation: cool-down length vs configuration throughput.

"A cool-down period during which no new configuration packets are
accepted, is enforced after each complete path set-up."  The cool-down
protects slot-table commits; longer cool-downs linearly slow
back-to-back reconfiguration (e.g. a use-case switch).
"""

from __future__ import annotations

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.params import daelite_parameters
from repro.topology import build_mesh


def batch_setup_time(cooldown):
    mesh = build_mesh(3, 3)
    params = daelite_parameters(
        slot_table_size=16, cooldown_cycles=cooldown
    )
    allocator = SlotAllocator(topology=mesh, params=params)
    net = DaeliteNetwork(mesh, params, host_ni="NI11")
    handles = []
    for index, (src, dst) in enumerate(
        [("NI00", "NI22"), ("NI20", "NI02"), ("NI10", "NI12")]
    ):
        conn = allocator.allocate_connection(
            ConnectionRequest(f"c{index}", src, dst)
        )
        handles.append(net.host.setup_paths(conn))
    start = net.kernel.cycle
    net.kernel.run_until(
        lambda: all(handle.done for handle in handles),
        max_cycles=100_000,
    )
    return net.kernel.cycle - start


def test_cooldown_vs_reconfiguration_throughput(benchmark):
    def sweep():
        return [
            (cooldown, batch_setup_time(cooldown))
            for cooldown in (0, 2, 4, 8, 16)
        ]

    rows = benchmark(sweep)
    print("\nA2 — COOL-DOWN vs 6-PACKET BATCH SET-UP TIME")
    for cooldown, cycles in rows:
        print(f"  cooldown={cooldown:>2}: batch={cycles} cycles")
    times = [cycles for _, cycles in rows]
    assert times == sorted(times)
    # 6 packets in the batch: each extra cool-down cycle costs ~6.
    slope = (times[-1] - times[0]) / (rows[-1][0] - rows[0][0])
    print(f"  slope: {slope:.1f} cycles per cool-down cycle")
    assert 5 <= slope <= 7
