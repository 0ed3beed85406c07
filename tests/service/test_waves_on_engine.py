"""Fault waves run in vector mode, and equal ``naive`` there.

An :class:`AvailabilityHarness` wave arms a config-word corruption, two
slot-table upsets and the decoder fault monitors on a live shard.  None
of that keeps the compiled kernel off: the configuration module steps
through the word-level tree only the packet whose flight window holds
the planned corruption — the kernel stops at its activation and defers
(``config_active``) until it has drained — and every other packet's
deposits are decoded and applied through the port code that consults
the monitors.  The shard carries no traffic, so that is the config
plane run alone, with no engine.  The churn digest and the fault log must equal
the ``naive`` kernel's, with the packet path driven both ways.
"""

from __future__ import annotations

import pytest

from repro.core.config_network import ConfigModule
from repro.service import (
    AvailabilityHarness,
    ChurnEngine,
    ConnectionBroker,
    ServiceConfig,
)
from repro.sim.kernel import NAIVE_MODE, VECTOR_MODE, CompileRefusal

from ..differential import plant

pytestmark = pytest.mark.differential

#: Seed 2's corruption lands inside a set-up packet's flight window
#: (and corrupts a word in flight).
TOUCHED = dict(seed=2, ops=120, fault_every_ops=60, fault_horizon=800)
#: A long horizon after ten ops of churn: the corruption falls in the
#: quiet tail, outside every packet's flight window.
UNTOUCHED = dict(seed=0, ops=40, fault_every_ops=20, fault_horizon=6_000)


def run_wave(mode, seed, ops, fault_every_ops, fault_horizon):
    """One seeded wave on a one-shard 2x2 fleet."""
    broker = ConnectionBroker.mesh_fleet(
        config=ServiceConfig(shards=1), seed=seed, kernel_mode=mode
    )
    churn = ChurnEngine(broker, seed=seed, tenants=6, max_live=5)
    harness = AvailabilityHarness(
        broker,
        churn,
        seed=seed,
        fault_every_ops=fault_every_ops,
        fault_horizon=fault_horizon,
        table_upsets=2,
        config_corrupts=1,
    )
    harness.run_campaign(ops)
    assert len(harness.waves) == 1
    network = broker.shards[0].network
    faults = [event.format() for event in network.stats.faults]
    kinds = [event.kind for event in network.stats.faults]
    reasons = [
        outcome.reason
        for record in churn.records
        for outcome in record.outcomes
    ]
    stats = network.kernel.kernel_stats()
    return churn.digest(), faults, kinds, stats, reasons


def test_a_touched_packet_defers_the_engine_and_matches_naive():
    digest, faults, kinds, stats, _ = run_wave(VECTOR_MODE, **TOUCHED)
    reference, reference_faults, *_ = run_wave(NAIVE_MODE, **TOUCHED)
    assert digest == reference
    assert faults == reference_faults
    assert kinds.count("config_corrupt") == 1
    assert kinds.count("table_upset") == 2
    assert CompileRefusal.FAULT_HOOKS_ARMED not in stats["compile_fallbacks"]
    assert stats["config_elision_refusals"] == {"fault_hooks_armed": 1}
    assert stats["compile_deferrals"] == {CompileRefusal.CONFIG_ACTIVE: 1}


def test_an_untouched_wave_never_leaves_the_engine():
    digest, faults, kinds, stats, _ = run_wave(VECTOR_MODE, **UNTOUCHED)
    reference, reference_faults, *_ = run_wave(NAIVE_MODE, **UNTOUCHED)
    assert digest == reference
    assert faults == reference_faults
    assert kinds.count("table_upset") == 2
    assert "config_corrupt" not in kinds
    assert CompileRefusal.FAULT_HOOKS_ARMED not in stats["compile_fallbacks"]
    assert stats["config_packets_stepped"] == 0
    assert stats["compile_deferrals"] == {}
    # The armed wave's quiet tail is engine time.
    assert stats["compiled_cycles"] > UNTOUCHED["fault_horizon"] // 2


def test_planted_mutant_barrier_blind_to_config_hooks_is_killed(
    monkeypatch,
):
    """``next_stepped_cycle`` asking the elision predicate without the
    tree's fault hooks: the config plane, run alone on the traffic-free
    shard, runs into the touched packet's activation, and the module
    streams it onto the word-level tree outside any stepped cycle."""
    plant(
        monkeypatch,
        "self._elision_refusal(request, start, hooks)",
        "self._elision_refusal(request, start, [])",
        owner=ConfigModule,
        method="next_stepped_cycle",
    )
    digest, faults, _, _, reasons = run_wave(VECTOR_MODE, **TOUCHED)
    reference, reference_faults, *_ = run_wave(NAIVE_MODE, **TOUCHED)
    assert (digest, faults) != (reference, reference_faults)
    assert any("next_stepped_cycle missed it" in reason for reason in reasons)
