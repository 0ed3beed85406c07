"""Malformed cache-capacity knobs: the typed degradation regression.

Every parse failure of ``REPRO_REGIME_CACHE`` / ``REPRO_LOWER_CACHE``
must surface as a typed ``unsupported_params`` refusal recorded in
``kernel_stats()``, with the run served bit-exactly by the next engine
down the chain, never as an uncaught exception and never as a silently
truncated value.
"""

from __future__ import annotations

import pytest

from repro.sim.compiled import LOWER_CACHE_ENV
from repro.sim.kernel import CompileRefusal
from repro.sim.vector import REGIME_CACHE_ENV

from .test_vector_equivalence import (
    run_chunked_differential,
    steady_scenario,
)

pytestmark = pytest.mark.differential


@pytest.mark.parametrize("raw", ["eight", "2.5", "1e3"], ids=str)
def test_malformed_regime_cache_env_degrades_typed(monkeypatch, raw):
    monkeypatch.setenv(REGIME_CACHE_ENV, raw)
    net = run_chunked_differential(steady_scenario())
    stats = net.kernel.kernel_stats()
    fallbacks = stats["compile_fallbacks"]
    assert fallbacks.get(CompileRefusal.UNSUPPORTED_PARAMS, 0) > 0
    assert stats["last_refusal"] == CompileRefusal.UNSUPPORTED_PARAMS
    assert "invalid regime-cache setting" in stats["last_refusal_detail"]
    # Only the vector engine owns a regime cache, so the compiled
    # interpreter picks the run up bit-exactly.
    assert stats["compiled_cycles"] > 0


@pytest.mark.parametrize("raw", ["sixteen", "4.5"], ids=str)
def test_malformed_lower_cache_env_degrades_typed(monkeypatch, raw):
    monkeypatch.setenv(LOWER_CACHE_ENV, raw)
    net = run_chunked_differential(steady_scenario())
    stats = net.kernel.kernel_stats()
    fallbacks = stats["compile_fallbacks"]
    assert fallbacks.get(CompileRefusal.UNSUPPORTED_PARAMS, 0) > 0
    assert stats["last_refusal"] == CompileRefusal.UNSUPPORTED_PARAMS
    assert "invalid lowering-cache setting" in stats[
        "last_refusal_detail"
    ]
    # Both table-lowering engines share the knob, so the run lands on
    # the activity kernel — still bit-exact per the differential above.
    assert stats["compiled_cycles"] == 0


def test_zero_cache_capacities_disable_cleanly(monkeypatch):
    """``0`` is a *valid* setting that switches each cache off: no
    refusal, the vector engine still compiles and replays, and neither
    cache records activity."""
    monkeypatch.setenv(REGIME_CACHE_ENV, "0")
    monkeypatch.setenv(LOWER_CACHE_ENV, "0")
    net = run_chunked_differential(steady_scenario())
    stats = net.kernel.kernel_stats()
    assert (
        stats["compile_fallbacks"].get(
            CompileRefusal.UNSUPPORTED_PARAMS, 0
        )
        == 0
    )
    assert stats["compiled_cycles"] > 0
    assert stats["regime_cache_stores"] == 0
    assert stats["lowering_cache_hits"] == 0
