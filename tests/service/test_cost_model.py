"""What a default fleet's set-ups cost the kernel, as an inequality.

An unconfigured :meth:`ConnectionBroker.mesh_fleet` runs the default
kernel mode, which delivers a response-free configuration packet to the
elements it addresses instead of stepping the broadcast tree: the
module wakes to activate the packet and to finish it, each addressee
wakes once to decode it — its own part of the packet, not every word of
it — and nothing else is evaluated.  A fault wave steps only the
packets a planned config-link fault can touch, and only those feed the
word-level decoder.  These are counts, not wall clocks — they hold on
any host.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config_port import ConfigPort
from repro.core.config_protocol import ConfigDecoder
from repro.service import (
    AvailabilityHarness,
    ChurnEngine,
    ConnectionBroker,
    ServiceConfig,
)
from repro.sim.kernel import DEFAULT_KERNEL_MODE, KERNEL_MODE_ENV

SRC = Path(__file__).resolve().parents[2] / "src"

#: Evaluations the churn may spend beyond two per packet (the module's
#: activation and finish) and one per addressed element.
SLACK_EVALUATIONS = 0


@pytest.fixture
def feeds(monkeypatch):
    """``ConfigDecoder.feed`` calls: ``"all"``, and ``"deposits"`` —
    those made while a port decodes an elided deposit."""
    counted = {"all": 0, "deposits": 0}
    decoding = []
    feed = ConfigDecoder.feed
    decode_deposit = ConfigPort._decode_deposit

    def counting_feed(self, word):
        counted["all"] += 1
        counted["deposits"] += bool(decoding)
        return feed(self, word)

    def marking_decode(self, cycle, word):
        decoding.append(self)
        try:
            return decode_deposit(self, cycle, word)
        finally:
            decoding.pop()

    monkeypatch.setattr(ConfigDecoder, "feed", counting_feed)
    monkeypatch.setattr(ConfigPort, "_decode_deposit", marking_decode)
    return counted


@pytest.fixture
def default_fleet(monkeypatch):
    """One shard built the way a caller who sets nothing gets it —
    whatever mode this CI leg exports for everybody else."""
    monkeypatch.delenv(KERNEL_MODE_ENV, raising=False)
    broker = ConnectionBroker.mesh_fleet(
        config=ServiceConfig(shards=1), seed=11
    )
    assert broker.shards[0].network.kernel.mode == DEFAULT_KERNEL_MODE
    return broker, ChurnEngine(broker, seed=11, tenants=6, max_live=5)


def test_fault_free_churn_wakes_the_module_and_the_addressees_only(
    default_fleet, feeds
):
    broker, churn = default_fleet
    churn.run(200)
    network = broker.shards[0].network
    stats = network.kernel.kernel_stats()
    packets = network.config_module.completed
    assert stats["config_packets_stepped"] == 0
    # Each addressee decodes its own part: no word goes through feed.
    assert feeds == {"all": 0, "deposits": 0}
    assert stats["config_packets_elided"] == len(packets) > 500
    assert stats["evaluations"] <= (
        sum(len(request.packet.addressees) for request in packets)
        + 2 * len(packets)
        + SLACK_EVALUATIONS
    )
    # Stepping the 2x2 tree costs an evaluation per element per word.
    assert stats["evaluations"] < 5 * len(packets)


def test_a_fault_wave_steps_only_the_packets_it_can_touch(
    default_fleet, feeds
):
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
    # The word-level decoder runs for the stepped packets only.
    assert feeds["all"] > 0 and feeds["deposits"] == 0
    # The wave was live: a planned corruption caught a word in flight.
    assert any(
        event.kind == "config_corrupt" for event in network.stats.faults
    )


def test_churn_and_replay_run_without_numpy():
    """A default fleet's set-up waits run on the compiled engine, a
    steady 2x2 CBR flow replays epochs, and neither imports numpy: the
    simulator has no numpy.  A fresh interpreter, since this suite's own
    process may have loaded it."""
    script = (
        "import sys\n"
        "from repro.alloc import ConnectionRequest, SlotAllocator\n"
        "from repro.core import DaeliteNetwork\n"
        "from repro.params import daelite_parameters\n"
        "from repro.service import ChurnEngine, ConnectionBroker, "
        "ServiceConfig\n"
        "from repro.topology import build_mesh\n"
        "from repro.traffic import CbrGenerator, CheckingSink\n"
        "broker = ConnectionBroker.mesh_fleet(\n"
        "    config=ServiceConfig(shards=2), seed=3)\n"
        "ChurnEngine(broker, seed=3, tenants=4, max_live=4).run(120)\n"
        "stats = [shard.network.kernel.kernel_stats()\n"
        "         for shard in broker.shards]\n"
        "mesh, params = build_mesh(2, 2), daelite_parameters()\n"
        "conn = SlotAllocator(topology=mesh, params=params)"
        ".allocate_connection(\n"
        "    ConnectionRequest('cbr', 'NI00', 'NI11', forward_slots=2))\n"
        "net = DaeliteNetwork(mesh, params)\n"
        "handle = net.configure(conn)\n"
        "net.run_until_configured(handle)\n"
        "net.kernel.add(CbrGenerator('gen', period=10, inject=net.ni('NI00')"
        ".injector(handle.forward.src_channel, 'cbr')))\n"
        "net.kernel.add(CheckingSink('sink', receive=net.ni('NI11')"
        ".receiver(handle.forward.dst_channel)))\n"
        "net.run(2000)\n"
        "print(sum(s['compiled_cycles'] for s in stats),\n"
        "      sum(s['cycle'] for s in stats),\n"
        "      net.kernel.kernel_stats()['replayed_epochs'],\n"
        "      'numpy' in sys.modules)\n"
    )
    env = {
        key: value
        for key, value in os.environ.items()
        if key != KERNEL_MODE_ENV
    }
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    compiled, cycles, replayed, numpy_loaded = result.stdout.split()
    assert int(compiled) == int(cycles) > 0
    assert int(replayed) > 0
    assert numpy_loaded == "False"
