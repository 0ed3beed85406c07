"""Fault injection, detection, and online recovery.

The flip side of fast connection set-up: repairing the network at run
time is cheap, because a repair is just one tear-down plus one set-up
over the dedicated configuration network.  This example injects a
deterministic fault campaign (DESIGN.md §9), shows the three detection
layers catching it, and then recovers — soft faults by idempotent
set-up replay, a hard link failure by re-routing around the dead link.

Run:  python examples/fault_recovery.py
"""

from __future__ import annotations

from repro.alloc import ConnectionRequest
from repro.core import DaeliteNetwork, OnlineConnectionManager
from repro.faults import (
    FaultInjector,
    FaultPlan,
    SlotTableUpset,
    StuckAtFault,
)
from repro.params import daelite_parameters
from repro.staticcheck import verify_network_state
from repro.topology import build_mesh
from repro.traffic import CheckingSink


def main() -> None:
    topology = build_mesh(3, 3)
    params = daelite_parameters(slot_table_size=16)
    network = DaeliteNetwork(topology, params, host_ni="NI11")
    manager = OnlineConnectionManager(network)
    stream = manager.open_connection(
        ConnectionRequest("stream", "NI00", "NI22", forward_slots=4)
    )
    path = stream.allocation.forward.path
    print(f"opened 'stream' along {' -> '.join(path)}")

    # A continuously-draining sink with end-to-end sequence checking.
    # Keeping destinations draining is the paper's dimensioning
    # assumption — and what makes credit-register rewrites during
    # recovery safe (DESIGN.md §9.3).
    def drain(count):
        # Dynamic lookup: recovery swaps the handle (and mid-repair the
        # label is briefly absent while the old set-up is torn down).
        record = manager.connections.get("stream")
        if record is None:
            return []
        return network.ni("NI22").receive(
            record.handle.forward.dst_channel, count
        )

    sink = CheckingSink("sink", drain, stats=network.stats)
    network.kernel.add(sink)

    # Phase 1: soft faults — a stuck-at window on the first hop and a
    # slot-table upset.  Declared up front, so the campaign is exactly
    # reproducible (same plan = same fault log on either kernel).
    now = network.kernel.cycle
    plan = FaultPlan(
        seed=7,
        specs=(
            StuckAtFault(
                edge=(path[1], path[2]),
                bit=0,
                value=1,
                from_cycle=now + 10,
                until_cycle=now + 22,
            ),
            SlotTableUpset(
                router=path[1], output=0, slot=3, cycle=now + 40
            ),
        ),
    )
    injector = FaultInjector(network, plan)
    injector.arm()
    network.ni("NI00").submit_words(
        stream.handle.forward.src_channel,
        [2 * i for i in range(30)],
        "stream.epoch1",
    )
    network.run(600)
    injector.disarm()

    print("\nfault counts (injected and detected):")
    for kind, count in sorted(network.stats.fault_counts().items()):
        print(f"  {kind:<14} {count}")
    print("end-to-end findings at the sink:")
    for finding in sink.findings:
        print(f"  {finding}")
    assert not sink.clean  # parity losses surfaced as sequence gaps

    # Soft-fault repair: replay the set-up.  Every packet writes
    # absolute values, so the replay is idempotent — correct entries
    # are untouched, the upset entry and the credit counter are healed.
    cycles = manager.repair_connection("stream")
    print(f"\nreplayed set-up in {cycles} cycles")
    assert manager.verify_connection("stream")  # host read-back

    # Phase 2: a hard failure on the first forward hop.
    report = manager.handle_link_failure((path[1], path[2]))
    (outcome,) = report.outcomes
    new_path = manager.connections["stream"].allocation.forward.path
    print(
        f"link {path[1]}->{path[2]} failed: rerouted in "
        f"{outcome.total_cycles} cycles (teardown "
        f"{outcome.teardown_cycles} + setup {outcome.setup_cycles}), "
        f"new path {' -> '.join(new_path)}"
    )
    assert outcome.recovered

    # The recovered network passes the full model check and delivers a
    # fresh epoch at full bandwidth.
    verify_network_state(network, manager.live_handles)
    base = 0x4000
    network.ni("NI00").submit_words(
        manager.connections["stream"].handle.forward.src_channel,
        [base + i for i in range(20)],
        "stream.epoch2",
    )
    network.run(800)
    fresh = network.stats.delivered_words("stream.epoch2")
    print(f"post-recovery epoch: {fresh}/20 words delivered")
    # Delivered once each, in order and with good parity at the sink.
    assert fresh == 20
    assert sink._last_seq["stream.epoch2"] == 19
    assert not any("stream.epoch2" in f for f in sink.findings)
    print("fault recovery OK")


if __name__ == "__main__":
    main()
