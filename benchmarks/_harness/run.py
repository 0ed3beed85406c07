"""Cost-attribution benchmark: one command, five workloads.

    python benchmarks/_harness/run.py --seed 2026 [--out FILE] [--trace-out FILE]
        every workload: 5 untraced repeats (end-to-end metrics) plus 1
        traced repeat (per-layer metrics), each in a fresh subprocess
        (three replays per untraced repeat where REPLICAS says so);
        prints every metric by name with its unit; exits non-zero when
        a correctness check fails.
    python benchmarks/_harness/run.py --workload NAME --seed N --seconds S --trace 0|1
        one repeat of one workload; the last line of stdout is the JSON
        object BENCHMARK.json's contract asks for.
    python benchmarks/_harness/run.py compare A.json B.json
        per (metric, workload): both medians, the ratio with its base,
        the bound, and ok / worse / unresolved (inter-quartile spread of
        either side wider than the bound); exits non-zero on worse.

Names, units, directions and bounds are read from the root
``BENCHMARK.json``; see README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from spans import op_latency_ms, per_op_floor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

DEFAULT_SEED = 2026
#: The issue asked for 3 and allowed 5 "if the two-set check still
#: fails": with 3 the only spread is the range, which one disturbed
#: repeat in a set pushes past any bound; with 5 it is the
#: inter-quartile range, which shrugs one off.
UNTRACED_REPEATS = 5
#: Worker modes: a full untraced / traced repeat, or the set-up alone.
UNTRACED, TRACED, SETUP_ONLY = "untraced", "traced", "setup"
#: Set-ups per single run; ``setup_s`` is their median.  Each is a
#: fresh process, so no set-up finds the route / lowering / regime
#: caches of the one before it warm.  The 12x12 config-tree set-up
#: costs ~9 s, so the two fabrics set up once: two more each would add
#: a third to the driver's total time for a spread that measured no
#: smaller (SPREAD.md).  The full pass needs no extra ones: each of
#: its untraced repeats is a set-up sample.
SETUP_SAMPLES = 3
SINGLE_SETUP = ("fabric_replay", "fabric_stepped")
#: Fresh processes that replay one untraced repeat (default 1), on the
#: two workloads that report a p99.  One replay's ``op_p99_ms`` on
#: ``service_churn`` is the 19th slowest of 1 900 ops and reads the
#: host's bursts, not the program: ten runs spread by 0.12 here and by
#: 0.27 / 0.33 on the driver's machine.  The percentiles of three
#: replays' per-op floor spread by 0.02-0.07 (SPREAD.md).  The three
#: also supply the ``SETUP_SAMPLES`` set-ups.
REPLICAS = {"service_churn": 3, "plan_admission": 3}
#: ``failed_share`` is 0 on a healthy tree, so it cannot carry a
#: relative bound in BENCHMARK.json (whose runs report it through
#: ``failed`` / ``attempted``); the full pass and ``compare`` treat it
#: as the ninth end-to-end metric with this absolute bound.
FAILED_SHARE = {
    "name": "failed_share",
    "unit": "share",
    "better": "lower",
    "bound_abs": 0.001,
}
#: BENCHMARK.json's contract wants every end-to-end metric from every
#: workload.  Where a metric does not apply (no simulator, no traffic,
#: fewer than 1000 op samples) the single-run line repeats the named
#: metric of the same run; the full pass and ``compare`` show ``n/a``.
STAND_IN = {
    "sim_cycles_per_s": "ops_per_s",
    "delivered_words_per_s": "ops_per_s",
    "op_p99_ms": "op_p50_ms",
}


def benchmark_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def pinned() -> Dict[str, Any]:
    with open(HERE / "pinned.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- one workload, one process ------------------------------------------------


def worker(argv: Sequence[str]) -> int:
    """``run.py worker NAME SEED SECONDS MODE [TRACE_OUT]`` — the body
    of every subprocess; prints the full result as one JSON line."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import run_workload

    name, seed, seconds, mode = argv[:4]
    result = run_workload(
        name,
        int(seed),
        float(seconds),
        detailed=mode == TRACED,
        trace_out=argv[4] if len(argv) > 4 and argv[4] else None,
        setup_only=mode == SETUP_ONLY,
    )
    print(json.dumps(result))
    return 0


def scrubbed_environment() -> Dict[str, str]:
    """The subprocess environment: no ``REPRO_*`` knob survives, string
    hashing is pinned, and numeric libraries stay on one thread."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONHASHSEED"] = "0"
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def spawn(
    name: str,
    seed: int,
    seconds: float,
    mode: str,
    trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one repeat in a fresh interpreter and wait for it."""
    done = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "worker",
            name,
            str(seed),
            str(seconds),
            mode,
            trace_out or "",
        ],
        env=scrubbed_environment(),
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(
            f"workload {name!r} (seed {seed}) exited with code "
            f"{done.returncode} and no result"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def repeat(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One untraced repeat: ``REPLICAS`` replays of the same seeded
    workload folded into one result.  Op latencies come from the per-op
    floor, every other figure is the median of the replays, and the
    replays must agree on the simulated results."""
    runs = [
        spawn(name, seed, seconds, UNTRACED)
        for _ in range(REPLICAS.get(name, 1))
    ]
    result = runs[0]
    result["setup_samples"] = [run["end_to_end"]["setup_s"] for run in runs]
    if len(runs) > 1:
        result["end_to_end"] = {
            metric: None if None in values else statistics.median(values)
            for metric in result["end_to_end"]
            for values in [[run["end_to_end"][metric] for run in runs]]
        }
        result["end_to_end"].update(
            op_latency_ms(per_op_floor([run["op_seconds"] for run in runs]))
        )
        result["failed"] = max(run["failed"] for run in runs)
        result["correct"] = all(run["correct"] for run in runs) and (
            len({run["sim_digest"] for run in runs}) == 1
        )
        result["host_slowdown"] = statistics.median(
            run["host_slowdown"] for run in runs
        )
    return result


def single(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """One repeat; last stdout line is the contract's JSON object."""
    name = args.workload
    names = [item["name"] for item in spec["workloads"]]
    if name not in names:
        raise SystemExit(
            f"unknown workload {name!r}; expected one of {names}"
        )
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    metrics: Dict[str, Dict[str, Any]] = {}
    if args.trace:
        result = spawn(name, args.seed, seconds, TRACED, args.trace_out)
        for item in spec["per_layer"]:
            value = result["per_layer"].get(item["name"])
            metrics[item["name"]] = {
                "value": 0 if value is None else value,
                "unit": item["unit"],
            }
    else:
        result = repeat(name, args.seed, seconds)
        values = result["end_to_end"]
        setups = result["setup_samples"]
        if name not in SINGLE_SETUP:
            setups += [
                spawn(name, args.seed, seconds, SETUP_ONLY)["setup_s"]
                for _ in range(SETUP_SAMPLES - len(setups))
            ]
        setup_s = statistics.median(setups)
        # total_s keeps counting exactly one set-up: the median one.
        values["total_s"] += setup_s - values["setup_s"]
        values["setup_s"] = setup_s
        for item in spec["end_to_end"]:
            value = values[item["name"]]
            if value is None:
                value = values[STAND_IN[item["name"]]]
            metrics[item["name"]] = {"value": value, "unit": item["unit"]}
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


# -- provenance ---------------------------------------------------------------


def git(*arguments: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *arguments],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def module_version(name: str) -> Optional[str]:
    try:
        return __import__(name).__version__
    except (ImportError, AttributeError):
        return None


def provenance(seed: int) -> Dict[str, Any]:
    """Read at run time, so a record cannot carry a stale SHA."""
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": module_version("numpy"),
        "networkx": module_version("networkx"),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "scrubbed_env": sorted(
            key for key in os.environ if key.startswith("REPRO_")
        ),
    }


# -- the full pass ------------------------------------------------------------


def summary(values: Sequence[float]) -> Dict[str, Any]:
    low, _, high = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": low,
        "q3": high,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def run_all(
    spec: Dict[str, Any], seed: int, trace_out: Optional[str]
) -> Dict[str, Any]:
    seconds = spec["run_seconds"]
    pins = pinned()
    end_to_end = spec["end_to_end"] + [FAILED_SHARE]
    record: Dict[str, Any] = {
        "provenance": provenance(seed),
        "run_seconds": seconds,
        "untraced_repeats": UNTRACED_REPEATS,
        "replicas_per_repeat": REPLICAS,
        "metrics": {item["name"]: item for item in end_to_end},
        "workloads": {},
    }
    if trace_out:
        Path(trace_out).write_text("", encoding="utf-8")
    for item in spec["workloads"]:
        name = item["name"]
        runs = [
            repeat(name, seed, seconds) for _ in range(UNTRACED_REPEATS)
        ]
        traced = spawn(name, seed, seconds, TRACED, trace_out)
        digests = {run["sim_digest"] for run in runs + [traced]}
        metrics = {}
        for metric in end_to_end:
            values = [run["end_to_end"][metric["name"]] for run in runs]
            metrics[metric["name"]] = (
                None
                if None in values
                else {**summary(values), "unit": metric["unit"]}
            )
        total = metrics["total_s"]["median"]
        pin = (
            pins["sim_digest"].get(name)
            if seed == pins["seed"] and seconds == pins["run_seconds"]
            else None
        )
        record["workloads"][name] = {
            "why": item["why"],
            "sizes": runs[0]["sizes"],
            "op_samples": runs[0]["op_samples"],
            "attempted": runs[0]["attempted"],
            "failed": max(run["failed"] for run in runs + [traced]),
            "correct": len(digests) == 1
            and all(run["correct"] for run in runs + [traced]),
            "sim_digest": sorted(digests),
            "sim_digest_pinned_match": (
                None if pin is None else digests == {pin}
            ),
            "end_to_end": metrics,
            "per_layer": traced["per_layer"],
            "per_layer_by_kind": traced["per_layer_by_kind"],
            "host_slowdown": [run["host_slowdown"] for run in runs],
            "trace_overhead": traced["end_to_end"]["total_s"] / total - 1,
            "attributed_share": traced["attributed_share"],
            "layer_self_s": traced["layer_self_s"],
            "span_self_s": traced["span_self_s"],
        }
        show(name, record["workloads"][name], spec)
    return record


def show(name: str, entry: Dict[str, Any], spec: Dict[str, Any]) -> None:
    match = entry["sim_digest_pinned_match"]
    print(
        f"\n== {name}: {'ok' if entry['correct'] else 'FAILED'}; "
        f"{entry['failed']}/{entry['attempted']} failed; "
        f"sim_digest {entry['sim_digest'][0][:16]} "
        f"(pinned: {'n/a' if match is None else match}); "
        f"sizes {entry['sizes']}"
    )
    slowdowns = ", ".join(f"{value:.2f}" for value in entry["host_slowdown"])
    print(
        f"  times are reference seconds; host slowdown of the untraced "
        f"repeats (raw = reference x this): {slowdowns}"
    )
    print(f"  {'end-to-end':<34}{'median':>14}{'min':>14}{'max':>14}  n unit")
    for metric, stats in entry["end_to_end"].items():
        if stats is None:
            print(f"  {metric:<34}{'n/a':>14}")
            continue
        print(
            f"  {metric:<34}{stats['median']:>14.6g}{stats['min']:>14.6g}"
            f"{stats['max']:>14.6g}  {stats['n']} {stats['unit']}"
        )
    print(
        f"  per-layer, traced repeat (trace_overhead "
        f"{entry['trace_overhead']:+.1%}, attributed to named spans "
        f"{entry['attributed_share']:.1%})"
    )
    shares = ", ".join(
        f"{layer} {seconds:.3g}"
        for layer, seconds in entry["layer_self_s"].items()
    )
    print(f"  self time by layer (s): {shares}")
    for item in spec["per_layer"]:
        value = entry["per_layer"].get(item["name"])
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {item['name']:<42}{shown:>14} {item['unit']}")


def full_pass(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    if args.out and provenance(args.seed)["dirty"] is not False:
        raise SystemExit(
            "--out refuses to write a record from a dirty (or non-git) "
            "tree: commit first, so the record's git_sha names the "
            "code that produced it"
        )
    record = run_all(spec, args.seed, args.trace_out)
    if args.out:
        Path(args.out).write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    failed = [
        name
        for name, entry in record["workloads"].items()
        if not entry["correct"]
    ]
    if failed:
        print(f"\ncorrectness check FAILED on: {', '.join(failed)}")
        return 1
    print("\nall workloads correct")
    return 0


# -- compare ------------------------------------------------------------------


def verdict(
    metric: Dict[str, Any], base: Dict[str, Any], other: Dict[str, Any]
) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one (metric, workload)."""
    lower = metric["better"] == "lower"
    a, b = base["median"], other["median"]
    if "bound_abs" in metric:
        return "worse" if b > a + metric["bound_abs"] else "ok"
    bound = metric["bound"]
    if (b > a * (1 + bound)) if lower else (b < a * (1 - bound)):
        return "worse"
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] for side in (base, other)
    )
    every_run_better = (
        other["max"] < base["min"] if lower else other["min"] > base["max"]
    )
    if spread > bound and not every_run_better:
        return "unresolved"
    return "ok"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        other = json.load(handle)
    print(
        f"A = {path_a} ({base['provenance']['git_sha']})  "
        f"B = {path_b} ({other['provenance']['git_sha']})"
    )
    print(
        f"{'workload':<18}{'metric':<24}{'A median':>13}{'B median':>13}"
        f"{'B/A':>8}  bound  verdict"
    )
    worse = 0
    for name, entry in base["workloads"].items():
        peer = other["workloads"].get(name)
        if peer is None:
            continue
        if entry["sim_digest"] != peer["sim_digest"]:
            print(f"{name:<18}sim_digest differs (simulated results changed)")
        for metric in base["metrics"].values():
            a = entry["end_to_end"].get(metric["name"])
            b = peer["end_to_end"].get(metric["name"])
            if a is None or b is None:
                continue
            result = verdict(metric, a, b)
            worse += result == "worse"
            share = (
                f"{b['median'] / a['median']:>8.3f}"
                if a["median"]
                else f"{'-':>8}"
            )
            bound = metric.get("bound", metric.get("bound_abs"))
            print(
                f"{name:<18}{metric['name']:<24}{a['median']:>13.6g}"
                f"{b['median']:>13.6g}{share}  {bound:<5}  {result}"
            )
    return 1 if worse else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments[:1] == ["worker"]:
        return worker(arguments[1:])
    if arguments[:1] == ["compare"]:
        if len(arguments) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(arguments[1], arguments[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", help="write the full-pass record here")
    parser.add_argument("--trace-out", help="write spans here, JSON lines")
    parser.add_argument("--workload", help="run one repeat of this workload")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(arguments)
    spec = benchmark_spec()
    if args.workload:
        return single(args, spec)
    return full_pass(args, spec)


if __name__ == "__main__":
    sys.exit(main())
