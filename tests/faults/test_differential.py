"""Kernel-differential determinism of the fault subsystem.

The acceptance bar: the same seed and fault plan must produce
byte-identical fault-event logs and identical final network state on
``vector`` mode and the naive every-cycle kernel.  Fault hooks
fire inside ``Link.send`` (whose call sequence the kernel-equivalence
suite already pins down) and scheduled faults ride on start-of-cycle
callbacks, which both modes run before any component evaluates — so
nothing here may depend on the kernel mode.
"""

from __future__ import annotations

import pytest

from repro.alloc import ConnectionRequest, MulticastRequest
from repro.core import DaeliteNetwork, OnlineConnectionManager
from repro.faults import FaultInjector, random_fault_plan
from repro.params import daelite_parameters
from repro.topology import build_mesh

from .conftest import RecordingSink

pytestmark = pytest.mark.differential


def run_campaign(mode: str, seed: int):
    topology = build_mesh(3, 3)
    params = daelite_parameters(slot_table_size=16)
    network = DaeliteNetwork(
        topology, params, host_ni="NI11", kernel_mode=mode
    )
    manager = OnlineConnectionManager(network)
    stream = manager.open_connection(
        ConnectionRequest("stream", "NI00", "NI22", forward_slots=4)
    )
    sync = manager.open_multicast(
        MulticastRequest("sync", "NI11", ("NI00", "NI22"), slots=1)
    )
    plan = random_fault_plan(
        seed,
        network,
        horizon=400,
        start_cycle=network.kernel.cycle + 5,
        bit_flips=4,
        stuck_ats=1,
        link_downs=1,
        table_upsets=2,
        config_drops=1,
        config_corrupts=1,
    )
    injector = FaultInjector(network, plan)
    injector.arm()
    network.ni("NI00").submit_words(
        stream.handle.forward.src_channel, list(range(60)), "s.e1"
    )
    network.ni("NI11").submit_words(
        sync.handle.src_channel, [7] * 10, "m.e1"
    )
    sink = RecordingSink(
        "sink",
        lambda n: network.ni("NI22").receive(
            stream.handle.forward.dst_channel, n
        ),
        stats=network.stats,
    )
    network.kernel.add(sink)
    network.run(900)
    injector.disarm()
    tables = tuple(
        (
            name,
            tuple(
                tuple(column)
                for column in network.routers[name].slot_table._table
            ),
        )
        for name in sorted(network.routers)
    )
    return {
        "plan": plan.describe(),
        "fault_log": network.stats.fault_log(),
        "received": tuple(sink.received),
        "findings": tuple(sink.findings),
        "tables": tables,
        "dropped": network.total_dropped_words,
    }


@pytest.mark.parametrize("seed", [11, 41, 97])
def test_fault_campaign_identical_across_kernels(seed):
    vector = run_campaign("vector", seed)
    naive = run_campaign("naive", seed)
    assert vector["plan"] == naive["plan"]
    assert vector["fault_log"] == naive["fault_log"]
    assert vector["received"] == naive["received"]
    assert vector["findings"] == naive["findings"]
    assert vector["tables"] == naive["tables"]
    assert vector["dropped"] == naive["dropped"]


def test_recovery_identical_across_kernels():
    def recover(mode: str):
        topology = build_mesh(3, 3)
        params = daelite_parameters(slot_table_size=16)
        network = DaeliteNetwork(
            topology, params, host_ni="NI11", kernel_mode=mode
        )
        manager = OnlineConnectionManager(network)
        record = manager.open_connection(
            ConnectionRequest("stream", "NI00", "NI22", forward_slots=4)
        )
        path = record.allocation.forward.path
        report = manager.handle_link_failure((path[1], path[2]))
        new_path = manager.connections[
            "stream"
        ].allocation.forward.path
        return (
            tuple(
                (o.label, o.recovered, o.total_cycles, o.path_hops)
                for o in report.outcomes
            ),
            new_path,
            network.kernel.cycle,
        )

    assert recover("vector") == recover("naive")
