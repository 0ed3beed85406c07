"""Chaos suite: random fault campaigns must always end recoverable.

Property: for any seeded fault schedule within the model's fault
budget, after the recovery drill (idempotent set-up replay for soft
faults, re-routing for hard link failures) the network passes the full
model check (:func:`verify_network_state` — zero findings), every
surviving connection's read-back verifies, and a fresh traffic epoch
flows at full bandwidth.

Every destination keeps a continuously-draining sink attached, as the
paper assumes ("the destinations can process data at the same rate as
it is delivered").  That is load-bearing for recovery: replaying a
set-up rewrites the CREDIT register to its full initial value, and only
a consuming destination keeps the resulting in-flight burst from
overrunning the destination buffer (see DESIGN.md §9).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.alloc import ConnectionRequest, MulticastRequest
from repro.core import DaeliteNetwork, OnlineConnectionManager
from repro.faults import FaultInjector, random_fault_plan
from repro.params import daelite_parameters
from repro.staticcheck import verify_network_state
from repro.topology import build_mesh

from .conftest import RecordingSink

pytestmark = pytest.mark.chaos

#: Fixed seeds for the deterministic CI smoke leg (kept small: each
#: seed is a full build-inject-recover-verify cycle).
CI_SEEDS = (3, 17)


def _connection_sink(network, manager, label):
    """A sink that always drains the label's *current* destination
    channel — recovery replaces handles (and channel indices), so the
    lookup must be dynamic."""

    def receive(count):
        record = manager.connections.get(label)
        if record is None:
            return []
        return network.ni(record.request.dst_ni).receive(
            record.handle.forward.dst_channel, count
        )

    sink = RecordingSink(f"sink.{label}", receive, stats=network.stats)
    network.kernel.add(sink)
    return sink


def _multicast_sink(network, manager, label, dst):
    def receive(count):
        record = manager.multicasts.get(label)
        if record is None:
            return []
        return network.ni(dst).receive(
            record.handle.dst_channels[dst], count
        )

    sink = RecordingSink(
        f"sink.{label}.{dst}", receive, stats=network.stats
    )
    network.kernel.add(sink)
    return sink


def _fresh(sink, base, count):
    """Payloads of the current epoch seen by a sink.

    Bounded to the epoch's exact payload window ``[base, base+count)``:
    a straggler from the *previous* epoch whose payload a stuck-at
    fault pushed above ``base`` (e.g. bit 21 forced high turns payload
    7 into 0x200007) must not be mistaken for fresh delivery."""
    return [p for _, p in sink.received if base <= p < base + count]


def run_chaos(seed: int, fail_a_link: bool) -> None:
    topology = build_mesh(3, 3)
    params = daelite_parameters(slot_table_size=16)
    network = DaeliteNetwork(topology, params, host_ni="NI11")
    manager = OnlineConnectionManager(network)
    manager.open_connection(
        ConnectionRequest("stream", "NI00", "NI22", forward_slots=4)
    )
    manager.open_connection(
        ConnectionRequest("cross", "NI20", "NI02", forward_slots=2)
    )
    manager.open_multicast(
        MulticastRequest("sync", "NI11", ("NI00", "NI22"), slots=1)
    )
    sinks = {
        "stream": _connection_sink(network, manager, "stream"),
        "cross": _connection_sink(network, manager, "cross"),
    }
    sync_sinks = {
        dst: _multicast_sink(network, manager, "sync", dst)
        for dst in ("NI00", "NI22")
    }
    # The sinks drain through bare callables: no engine cycle from here.
    engine_cycles = network.kernel.kernel_stats()["compiled_cycles"]

    plan = random_fault_plan(
        seed,
        network,
        horizon=300,
        start_cycle=network.kernel.cycle + 5,
        bit_flips=seed % 5,
        stuck_ats=1 + seed % 2,
        link_downs=seed % 2,
        table_upsets=1 + seed % 3,
        config_drops=seed % 3,
        config_corrupts=seed % 2,
    )
    injector = FaultInjector(network, plan)
    injector.arm()
    network.ni("NI00").submit_words(
        manager.connections["stream"].handle.forward.src_channel,
        list(range(24)),
        f"stream.e{seed}.1",
    )
    network.ni("NI20").submit_words(
        manager.connections["cross"].handle.forward.src_channel,
        list(range(12)),
        f"cross.e{seed}.1",
    )
    network.run(500)
    injector.disarm()

    # -- recovery drill --------------------------------------------------------
    if fail_a_link:
        path = manager.connections["stream"].allocation.forward.path
        manager.handle_link_failure((path[1], path[2]))
    # Soft faults (table upsets, lost credits) are healed by replaying
    # every surviving label's set-up — replay is idempotent, so this is
    # safe even for labels no fault touched.
    for label in sorted(manager.connections):
        manager.repair_connection(label)
    for label in sorted(manager.multicasts):
        manager.repair_multicast(label)
    network.run(500)  # let first-epoch stragglers arrive

    # -- acceptance gates ------------------------------------------------------
    for label in sorted(manager.connections):
        assert manager.verify_connection(label), (
            f"read-back mismatch on {label!r} after recovery "
            f"(seed {seed})"
        )
    verify_network_state(network, manager.live_handles)

    # Surviving connections meet bandwidth: a fresh epoch (new labels,
    # sequence numbers restart at 0) delivers every word.
    base = 0x4000
    want = {"stream": 20, "cross": 10}
    for label, count in want.items():
        record = manager.connections[label]
        network.ni(record.request.src_ni).submit_words(
            record.handle.forward.src_channel,
            [base + i for i in range(count)],
            f"{label}.e{seed}.2",
        )
    for _ in range(60):
        network.run(100)
        if all(
            len(_fresh(sinks[label], base, want[label])) >= want[label]
            for label in want
        ):
            break
    got = {
        label: len(_fresh(sinks[label], base, want[label]))
        for label in want
    }
    assert got == want, f"post-recovery bandwidth (seed {seed}): {got}"

    # The multicast tree still reaches every destination.
    network.ni("NI11").submit_words(
        manager.multicasts["sync"].handle.src_channel,
        [base + i for i in range(5)],
        f"sync.e{seed}.2",
    )
    network.run(400)
    for dst, sink in sync_sinks.items():
        assert len(_fresh(sink, base, 5)) == 5, (
            f"multicast to {dst} (seed {seed})"
        )
    assert network.kernel.kernel_stats()["compiled_cycles"] == engine_cycles


class TestChaos:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        fail_a_link=st.booleans(),
    )
    def test_random_campaigns_always_recover(self, seed, fail_a_link):
        run_chaos(seed, fail_a_link)

    def test_fixed_seeds_for_ci(self):
        """The deterministic leg CI runs on both kernel modes."""
        for seed in CI_SEEDS:
            run_chaos(seed, fail_a_link=True)
