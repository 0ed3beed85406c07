"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/_harness/tests -q

Every workload runs once, traced, at 1/20 of its measured size (set-up
is not scaled, so the two fabrics dominate the ~45 s this takes).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HARNESS), str(HARNESS.parent.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from repro.sim.flit import Word  # noqa: E402
from repro.traffic.generators import CbrGenerator  # noqa: E402
from repro.traffic.sinks import CheckingSink  # noqa: E402
import spans  # noqa: E402
from spans import Trace  # noqa: E402

SPEC = run.benchmark_spec()
SMALL = workloads.RUN_SECONDS / 20
SEED = 2026


@pytest.fixture(scope="module")
def results():
    return {
        item["name"]: workloads.run_workload(
            item["name"], SEED, SMALL, detailed=True
        )
        for item in SPEC["workloads"]
    }


def test_workload_table_matches_benchmark_json():
    assert list(workloads.WORKLOADS) == [
        item["name"] for item in SPEC["workloads"]
    ]
    assert SPEC["run_seconds"] == workloads.RUN_SECONDS
    assert SPEC["paths"] == ["benchmarks/_harness"]
    pins = run.pinned()
    assert pins["run_seconds"] == workloads.RUN_SECONDS
    assert pins["sizes"] == {
        name: workload.sizes(1.0)
        for name, workload in workloads.WORKLOADS.items()
    }
    assert set(pins["sim_digest"]) == set(workloads.WORKLOADS)


def test_every_workload_emits_exactly_the_named_metrics(results):
    end_to_end = {item["name"] for item in SPEC["end_to_end"]}
    per_layer = {item["name"] for item in SPEC["per_layer"]}
    observed = set()
    for name, result in results.items():
        assert set(result["end_to_end"]) == end_to_end | {
            run.FAILED_SHARE["name"]
        }, name
        # A layer a workload does not run may be absent (reported as
        # null); a name BENCHMARK.json does not know may not appear.
        assert set(result["per_layer"]) <= per_layer, name
        observed |= {
            key
            for key, value in result["per_layer"].items()
            if value is not None
        }
        assert result["correct"], name
        assert result["failed"] == 0, name
        # Not-applicable cells have a named stand-in for the driver.
        for metric, value in result["end_to_end"].items():
            assert value is not None or metric in run.STAND_IN, (name, metric)
    assert observed == per_layer


def test_replay_separation(results):
    assert results["fabric_stepped"]["per_layer"]["sim.replay_coverage"] == 0
    assert results["fabric_replay"]["per_layer"]["sim.replay_coverage"] > 0.9
    for name, result in results.items():
        hits = result["per_layer"].get("sim.regime_cache_hits")
        assert bool(hits) == (name == "reconfig_cadence"), name


def test_plan_admission_has_no_simulator(results, monkeypatch):
    spans = results["plan_admission"]["span_self_s"]
    assert not [name for name in spans if name.startswith(("sim.", "core."))]

    def forbidden(*args, **kwargs):
        raise AssertionError("plan_admission built a DaeliteNetwork")

    monkeypatch.setattr(workloads.DaeliteNetwork, "__init__", forbidden)
    result = workloads.run_workload("plan_admission", SEED, SMALL)
    assert result["sim_digest"] == results["plan_admission"]["sim_digest"]


def test_span_self_times_sum_to_total(results):
    for name, result in results.items():
        total = result["end_to_end"]["total_s"]
        assert sum(result["span_self_s"].values()) == pytest.approx(
            total, rel=0.02
        ), name
        assert result["attributed_share"] >= 0.95, name


@pytest.mark.parametrize("name", ["service_churn", "plan_admission"])
def test_same_seed_same_digest(results, name):
    again = workloads.run_workload(name, SEED, SMALL)
    assert again["sim_digest"] == results[name]["sim_digest"]
    assert again["sizes"] == results[name]["sizes"]


def test_different_seed_different_inputs():
    nis = [f"NI{index}" for index in range(16)]
    first = workloads.flow_requests(nis, 48, SEED, slots_max=2)
    assert first == workloads.flow_requests(nis, 48, SEED, slots_max=2)
    assert first != workloads.flow_requests(nis, 48, SEED + 1, slots_max=2)


def test_different_seed_different_digest(results):
    other = workloads.run_workload("plan_admission", SEED + 1, SMALL)
    assert other["sim_digest"] != results["plan_admission"]["sim_digest"]


def test_wrong_sequence_number_fails_the_flow():
    """A sink fed sequence 5 where 0 is due is unclean -> flow fails."""
    words = [Word(payload=1, connection="flow", sequence=5, parity=1)]
    sink = CheckingSink("sink", receive=lambda limit: words)
    generator = CbrGenerator("gen", inject=lambda payload: None, period=64)
    flow = workloads.Flow("flow", generator, sink, bound_cycles=40)
    assert not workloads.flow_failed(flow, max_latency=None)
    sink.evaluate(0)
    assert workloads.flow_failed(flow, max_latency=None)
    assert workloads.flow_failed(
        workloads.Flow("late", generator, CheckingSink("s", lambda n: []), 40),
        max_latency=41,
    )


def test_oracle_allocator_disagreement_raises_failed_share():
    def doctored(verdict, allocation):
        doctored.calls += 1
        return doctored.calls % 100 != 0 and workloads.verdict_agrees(
            verdict, allocation
        )

    doctored.calls = 0
    sizes = workloads.plan_sizes(1 / 20)
    trace = Trace("plan_admission")
    plan = workloads.setup_plan(SEED, sizes, trace, agrees=doctored)
    measured = workloads.measure_plan(plan, sizes, trace)
    assert measured.failed > 0
    assert measured.failed / measured.attempted > 0


def test_missing_counters_report_null():
    class Bare:
        """A network whose kernel lost ``kernel_stats``."""

        kernel = object()

    assert workloads.pick({}, "replayed_cycles") is None
    assert workloads.pick(Bare(), "stats") is None
    assert workloads.call(Bare.kernel, "kernel_stats") == {}
    layer = workloads.kernel_layer([Bare()])
    assert layer["sim.replayed_cycles"] is None
    assert layer["sim.regime_cache_hits"] is None
    trace = Trace("x")
    with trace.span("harness.workload"):
        pass
    measured = workloads.Measured(attempted=1, layer=layer)
    figures = workloads.per_layer(trace, measured, *trace.seconds_by_name())
    assert figures["sim.run_s"] is None


def test_wrap_leaves_private_and_missing_methods_alone():
    class Owner:
        def public(self):
            return 1

        def _private(self):
            return 2

    owner, trace = Owner(), Trace("x", detailed=True)
    trace.wrap(owner, "public", "layer.public")
    trace.wrap(owner, "_private", "layer.private")
    trace.wrap(owner, "gone", "layer.gone")
    assert owner.public() == 1 and owner._private() == 2
    assert trace.names == ["layer.public"]


def stats(median, low, high):
    """Five repeats: two at ``low``, one at ``median``, two at ``high``."""
    return run.summary([low, low, median, high, high])


def test_compare_verdicts():
    lower = {"name": "total_s", "better": "lower", "bound": 0.1}
    higher = {"name": "ops_per_s", "better": "higher", "bound": 0.1}
    assert run.verdict(lower, stats(10, 9.9, 10.1), stats(10.5, 10.4, 10.6)) == "ok"
    assert run.verdict(lower, stats(10, 9.9, 10.1), stats(11.5, 11, 12)) == "worse"
    assert run.verdict(higher, stats(10, 9.9, 10.1), stats(8, 7.9, 8.1)) == "worse"
    assert run.verdict(lower, stats(10, 8, 12), stats(10, 9.9, 10.1)) == "unresolved"
    # Spread wider than the bound, but every B run beats every A run.
    assert run.verdict(lower, stats(10, 9, 12), stats(7, 6, 8)) == "ok"
    assert run.verdict(run.FAILED_SHARE, stats(0, 0, 0), stats(0.01, 0, 0.02)) == "worse"


def test_replays_fold_into_the_per_op_floor(monkeypatch):
    """Three replays: op latencies from the per-op minimum, the rest
    the median; a replay that disagrees on the digest fails the repeat."""
    assert spans.per_op_floor([[3, 1, 5], [2, 4, 6]]) == [2, 1, 5]
    assert spans.op_latency_ms([0.001] * 999)["op_p99_ms"] is None

    def replay(slow, digest="d"):
        ops = [0.001] * 1000
        ops[slow] = 0.5  # the host stalls a different op in each replay
        return {
            "end_to_end": {"setup_s": 1 + slow, "total_s": 9, "ops_per_s": None},
            "op_seconds": ops,
            "failed": 0,
            "correct": True,
            "sim_digest": digest,
            "host_slowdown": 1.0,
        }

    replays = iter([replay(0), replay(2), replay(1)])
    monkeypatch.setattr(run, "spawn", lambda *args: next(replays))
    monkeypatch.setattr(run, "REPLICAS", {"w": 3})
    result = run.repeat("w", SEED, 1)
    assert result["setup_samples"] == [1, 3, 2]
    assert result["end_to_end"] == {
        "setup_s": 2,
        "total_s": 9,
        "ops_per_s": None,
        "op_p50_ms": 1.0,
        "op_p99_ms": 1.0,
    }
    assert result["correct"]
    replays = iter([replay(0), replay(1, "other"), replay(2)])
    assert not run.repeat("w", SEED, 1)["correct"]


def test_single_run_line_follows_the_contract():
    for traced, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [
                sys.executable,
                str(HARNESS / "run.py"),
                "--workload",
                "plan_admission",
                "--seed",
                "7",
                "--seconds",
                str(SMALL),
                "--trace",
                str(traced),
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        assert list(line["metrics"]) == [item["name"] for item in SPEC[key]]
        for item in SPEC[key]:
            value = line["metrics"][item["name"]]
            assert value["unit"] == item["unit"]
            assert isinstance(value["value"], (int, float))
            assert key == "per_layer" or value["value"] > 0
