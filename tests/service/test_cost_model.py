"""What a default fleet's set-ups cost the kernel, as an inequality.

An unconfigured :meth:`ConnectionBroker.mesh_fleet` runs the default
kernel mode, which delivers a response-free configuration packet to the
elements it addresses instead of stepping the broadcast tree: the
module wakes to activate the packet and to finish it, each addressee
wakes once to decode it, and nothing else is evaluated.  A fault wave
steps only the packets a planned config-link fault can touch.  These
are counts, not wall clocks — they hold on any host.
"""

from __future__ import annotations

import pytest

from repro.service import (
    AvailabilityHarness,
    ChurnEngine,
    ConnectionBroker,
    ServiceConfig,
)
from repro.sim.kernel import (
    DEFAULT_KERNEL_MODE,
    KERNEL_MODE_ENV,
    STRICT_REGISTERS_ENV,
)

#: Evaluations the churn may spend beyond two per packet (the module's
#: activation and finish) and one per addressed element.
SLACK_EVALUATIONS = 0


@pytest.fixture
def default_fleet(monkeypatch):
    """One shard built the way a caller who sets nothing gets it —
    whatever mode this CI leg exports for everybody else."""
    monkeypatch.delenv(KERNEL_MODE_ENV, raising=False)
    monkeypatch.delenv(STRICT_REGISTERS_ENV, raising=False)
    broker = ConnectionBroker.mesh_fleet(
        config=ServiceConfig(shards=1), seed=11
    )
    assert broker.shards[0].network.kernel.mode == DEFAULT_KERNEL_MODE
    return broker, ChurnEngine(broker, seed=11, tenants=6, max_live=5)


def test_fault_free_churn_wakes_the_module_and_the_addressees_only(
    default_fleet,
):
    broker, churn = default_fleet
    churn.run(200)
    network = broker.shards[0].network
    stats = network.kernel.kernel_stats()
    packets = network.config_module.completed
    assert stats["config_packets_stepped"] == 0
    assert stats["config_packets_elided"] == len(packets) > 500
    assert stats["evaluations"] <= (
        sum(len(request.packet.addressees) for request in packets)
        + 2 * len(packets)
        + SLACK_EVALUATIONS
    )
    # Stepping the 2x2 tree costs an evaluation per element per word.
    assert stats["evaluations"] < 5 * len(packets)


def test_a_fault_wave_steps_only_the_packets_it_can_touch(default_fleet):
    broker, churn = default_fleet
    config_corrupts = 4
    harness = AvailabilityHarness(
        broker,
        churn,
        seed=11,
        fault_every_ops=100,
        fault_horizon=800,
        config_corrupts=config_corrupts,
    )
    harness.run_campaign(200)
    assert len(harness.waves) == 1
    network = broker.shards[0].network
    stats = network.kernel.kernel_stats()
    stepped = stats["config_packets_stepped"]
    assert 1 <= stepped <= config_corrupts + len(harness.waves)
    assert stats["config_elision_refusals"] == {"fault_hooks_armed": stepped}
    assert stats["config_packets_elided"] > 500
    # The wave was live: a planned corruption caught a word in flight.
    assert any(
        event.kind == "config_corrupt" for event in network.stats.faults
    )
