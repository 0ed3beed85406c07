"""The five benchmark workloads (see README.md for why each exists).

Every workload is a ``setup(seed, sizes, trace) -> state`` /
``measure(state, sizes, trace) -> Measured`` pair driven by
:func:`run_workload`.  Inputs come from ``seed`` through
``random_traffic_pattern`` / ``Lcg``; the program under test only ever
sees the generated requests.  All timing is ``time.perf_counter``
around calls into public functions of ``repro``, reported in reference
seconds (see ``spans.HostClock``).
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

# repro.alloc first: importing repro.core on its own trips a package
# import cycle (core.host -> alloc -> analysis -> core.network).
from repro.alloc import ConnectionRequest, MulticastRequest, SlotAllocator
from repro.analysis.model import AdmissionOracle
from repro.core import DaeliteNetwork, OnlineConnectionManager
from repro.errors import AllocationError
from repro.params import daelite_parameters
from repro.service import (
    AvailabilityHarness,
    ChurnEngine,
    ConnectionBroker,
    ServiceConfig,
)
from repro.sim.kernel import VECTOR_MODE
from repro.staticcheck import prove_network, verify_network_state
from repro.topology import build_mesh
from repro.traffic.generators import CbrGenerator, Lcg
from repro.traffic.sinks import CheckingSink
from repro.traffic.workloads import random_traffic_pattern

from spans import Trace, layer_self_seconds, op_latency_ms

#: TDM wheel size, the same on every workload.
SLOT_TABLE_SIZE = 32
#: The measured phases below are sized for this ``--seconds`` value;
#: another value scales the op counts / slice lengths linearly.
RUN_SECONDS = 6
HOST_NI = "NI00"
#: Suffix of the by-kind breakdown kept beside a summed dict counter.
BY_KIND = ".by_kind"


# -- tolerant counter access --------------------------------------------------


def pick(source: Any, name: str) -> Any:
    """``source[name]`` or ``source.name``; ``None`` when absent, so a
    renamed counter shows as ``null`` instead of breaking the run."""
    if isinstance(source, dict):
        return source.get(name)
    return getattr(source, name, None)


def call(owner: Any, method: str) -> Any:
    """``owner.method()``, or an empty dict when the method is gone."""
    bound = getattr(owner, method, None)
    return bound() if callable(bound) else {}


def total(value: Any) -> Any:
    """A by-kind dict counter as one number (``None`` stays ``None``)."""
    if isinstance(value, dict):
        return sum(value.values())
    return value


def kernel_counters(networks: Sequence[Any]) -> Dict[str, Any]:
    """``kernel_stats()`` summed over ``networks``; by-kind dicts merge."""
    merged: Dict[str, Any] = {}
    for network in networks:
        for key, value in call(pick(network, "kernel"), "kernel_stats").items():
            if isinstance(value, dict):
                bucket = merged.setdefault(key, {})
                for kind, count in value.items():
                    bucket[kind] = bucket.get(kind, 0) + count
            elif isinstance(value, int) and not isinstance(value, bool):
                merged[key] = merged.get(key, 0) + value
    return merged


def ratio(part: Any, whole: Any) -> Optional[float]:
    if part is None or not whole:
        return None
    return part / whole


def sha256(parts: Sequence[Any]) -> str:
    return hashlib.sha256(
        "\n".join(map(str, parts)).encode("utf-8")
    ).hexdigest()


# -- measurement protocol -----------------------------------------------------


@dataclass
class Measured:
    """What a measured phase hands back.

    ``batches`` hold one dict per timed batch: its raw ``start`` /
    ``end`` readings, the exact counts done in it (``cycles`` /
    ``words`` / ``ops``) and, once :func:`settle` has run, its
    ``seconds``.  Rates are the median over batches, so one disturbed
    batch does not move them.  ``samples`` are per-op seconds.
    """

    samples: List[float] = field(default_factory=list)
    batches: List[Dict[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    layer: Dict[str, Any] = field(default_factory=dict)


@contextmanager
def gc_held() -> Iterator[None]:
    """Hold the cyclic GC off for a measured phase.

    ``StatsCollector`` keeps one record per delivered word, so a
    generational pass landing inside a timed slice costs more than the
    slice; the phase instead collects in :func:`between_batches`
    (untimed for rates, counted in ``total_s``), which is what makes
    the rates repeat.
    """
    gc.disable()
    try:
        yield
    finally:
        gc.unfreeze()
        gc.enable()


def between_batches(trace: Trace) -> None:
    """One explicit ``gc.collect()`` as its own span, then one reading
    of the host's speed.  What survives the collection is frozen until
    the phase ends, so each collection walks only the objects made
    since the last one instead of every word record so far."""
    with trace.span("harness.gc_collect"):
        gc.collect()
        gc.freeze()
    trace.sample_host()


def settle(trace: Trace, timed: Sequence[Dict[str, float]]) -> List[float]:
    """Give every ``start``/``end`` dict its ``seconds`` (reference
    time); call once the host sample after the last one is in."""
    for item in timed:
        item["seconds"] = trace.clock.seconds(item["start"], item["end"])
    return [item["seconds"] for item in timed]


def flow_requests(
    nis: Sequence[str], count: int, seed: int, slots_max: int
) -> List[ConnectionRequest]:
    return random_traffic_pattern(
        nis, count, seed=seed, slots_min=1, slots_max=slots_max
    )


# -- checked traffic ----------------------------------------------------------


@dataclass
class Flow:
    """One generator -> sink stream whose delivery is checked."""

    label: str  # StatsCollector connection label
    generator: CbrGenerator
    sink: CheckingSink
    bound_cycles: int  # oracle worst-case latency


def attach_flow(
    network: DaeliteNetwork,
    flows: List[Flow],
    label: str,
    period: int,
    src_ni: str,
    src_channel: int,
    leaves: Sequence[Tuple[str, int, int]],
) -> None:
    """One CBR generator on the source and one checking sink per
    ``(dst_ni, dst_channel, bound_cycles)`` leaf."""
    generator = CbrGenerator(
        f"gen.{label}",
        inject=network.ni(src_ni).injector(src_channel, label),
        period=period,
    )
    network.kernel.add(generator)
    for dst_ni, dst_channel, bound in leaves:
        sink = CheckingSink(
            f"sink.{label}.{dst_ni}",
            receive=network.ni(dst_ni).receiver(dst_channel),
            words_per_cycle=2,
            stats=network.stats,
        )
        network.kernel.add(sink)
        flows.append(Flow(label, generator, sink, bound))


def flow_failed(flow: Flow, max_latency: Optional[int]) -> bool:
    """A flow fails when its sink saw a bad word, when it delivered
    fewer words than were generated minus what may still be in flight,
    or when a word took longer than the oracle's hard bound."""
    in_flight = flow.bound_cycles // flow.generator.period + 2
    return (
        not flow.sink.clean
        or flow.sink.words_received
        < flow.generator.words_generated - in_flight
        or (max_latency is not None and max_latency > flow.bound_cycles)
    )


def delivered_words(flows: Sequence[Flow]) -> int:
    return sum(flow.sink.words_received for flow in flows)


def check_flows(
    network: DaeliteNetwork, flows: Sequence[Flow], findings: int
) -> Tuple[int, Dict[str, Any]]:
    """Failed-flow count and the exact traffic counters.  Any dropped
    word or model-check finding fails every flow."""
    connections = network.stats.connections
    dropped = network.total_dropped_words
    latencies = {
        label: stats.max_latency for label, stats in connections.items()
    }
    failed = sum(
        flow_failed(flow, latencies.get(flow.label)) for flow in flows
    )
    if dropped or findings:
        failed = len(flows)
    measured = [value for value in latencies.values() if value is not None]
    margins = [
        flow.bound_cycles / latencies[flow.label]
        for flow in flows
        if latencies.get(flow.label)
    ]
    return failed, {
        "traffic.words_injected": sum(
            stats.injected for stats in connections.values()
        ),
        "traffic.words_delivered": delivered_words(flows),
        "traffic.sinks_unclean": sum(
            not flow.sink.clean for flow in flows
        ),
        "traffic.dropped_words": dropped,
        "traffic.max_latency_cycles": max(measured) if measured else None,
        "analysis.bound_over_measured_max": (
            min(margins) if margins else None
        ),
    }


def traffic_digest(network: DaeliteNetwork) -> List[Any]:
    """Per-connection simulated statistics, exact by construction."""
    return [
        (label, stats.injected, stats.ejected, stats.min_latency,
         stats.max_latency)
        for label, stats in sorted(network.stats.connections.items())
    ] + [network.total_dropped_words, network.kernel.cycle]


def trace_kernel(trace: Trace, network: DaeliteNetwork) -> None:
    """Traced repeat: kernel time inside configure / manager / broker
    calls becomes ``sim.step`` spans."""
    trace.wrap(network.kernel, "step", "sim.step", skip_under="sim.")
    trace.wrap(network.kernel, "run_until", "sim.step", skip_under="sim.")


def replayed_cycles(network: DaeliteNetwork) -> int:
    return pick(call(network.kernel, "kernel_stats"), "replayed_cycles") or 0


def timed_slice(
    trace: Trace, network: DaeliteNetwork, cycles: int, op: int
) -> Dict[str, float]:
    """``network.run(cycles)`` as one ``sim.run`` span: when it ran and
    how many of the cycles the kernel replayed."""
    before = replayed_cycles(network)
    with trace.span("sim.run", op) as span:
        network.run(cycles)
    start, end = span.interval
    return {
        "start": start,
        "end": end,
        "cycles": cycles,
        "replayed": replayed_cycles(network) - before,
    }


def slice_rates(slices: Sequence[Dict[str, float]]) -> Dict[str, Any]:
    """Stepped and replayed execution as separate columns: the rate
    over the slices that replayed nothing, and over those that
    replayed at least nine cycles in ten."""
    def rate(chosen: List[Dict[str, float]]) -> Optional[float]:
        seconds = sum(item["seconds"] for item in chosen)
        if not seconds:
            return None
        return sum(item["cycles"] for item in chosen) / seconds

    cycles = sum(item["cycles"] for item in slices)
    return {
        "sim.replay_coverage": ratio(
            sum(item["replayed"] for item in slices), cycles
        ),
        "sim.stepped_cycles_per_s": rate(
            [item for item in slices if item["replayed"] == 0]
        ),
        "sim.replayed_cycles_per_s": rate(
            [
                item
                for item in slices
                if item["replayed"] >= 0.9 * item["cycles"]
            ]
        ),
        "sim.median_slice_cycles_per_s": statistics.median(
            item["cycles"] / item["seconds"] for item in slices
        ),
    }


def kernel_layer(networks: Sequence[Any]) -> Dict[str, Any]:
    """Whole-run kernel counters (exact): stepped + replayed + activity
    cycles add up to the final cycle count."""
    stats = kernel_counters(networks)
    cycle, compiled = pick(stats, "cycle"), pick(stats, "compiled_cycles")
    replayed = pick(stats, "replayed_cycles")
    layer = {
        "sim.stepped_cycles": (
            None if None in (compiled, replayed) else compiled - replayed
        ),
        "sim.replayed_cycles": replayed,
        "sim.activity_cycles": (
            None if None in (cycle, compiled) else cycle - compiled
        ),
    }
    for key in (
        "evaluations",
        "active_cycles",
        "fast_forwarded_cycles",
        "regimes_detected",
        "regime_cache_hits",
        "regime_cache_stores",
        "lowering_cache_hits",
        "lowering_cache_misses",
        "compile_fallbacks",
        "compile_deferrals",
        "replay_refusals",
    ):
        layer[f"sim.{key}"] = total(pick(stats, key))
        if isinstance(pick(stats, key), dict):
            layer[f"sim.{key}{BY_KIND}"] = pick(stats, key)
    return layer


# -- fabric_replay / fabric_stepped -------------------------------------------

#: fabric_replay: one period, so the steady state is periodic and epoch
#: replay does the measured work.
REPLAY_PERIODS = (64,)
#: fabric_stepped: pairwise-coprime periods (lcm 1.67e9, far beyond the
#: window), so no epoch ever repeats and every cycle is stepped — by
#: the input, not by a switch.
STEPPED_PERIODS = (61, 67, 71, 73, 79)

FABRIC_SIDE = 12
FABRIC_UNICAST = 48
FABRIC_TREES = 4
FABRIC_LEAVES = 3
WARM_CYCLES = 4096
SLICES = 16
#: One host-speed reading per this many ``configure`` calls (~0.7 s).
CONFIGURES_PER_HOST_SAMPLE = 4


@dataclass
class Fabric:
    network: DaeliteNetwork
    flows: List[Flow]
    findings: int
    setup_cycles: List[int]
    layer: Dict[str, Any]


def fabric_sizes(scale: float, slice_cycles: int) -> Dict[str, int]:
    return {
        "mesh_side": FABRIC_SIDE,
        "unicast": FABRIC_UNICAST,
        "multicast_trees": FABRIC_TREES,
        "warm_cycles": WARM_CYCLES,
        "slices": SLICES,
        "slice_cycles": max(256, round(slice_cycles * scale)),
    }


def build_fabric(
    seed: int, periods: Sequence[int], trace: Trace
) -> Fabric:
    """The one fabric both ``fabric_*`` workloads run on; they differ
    only in ``periods``."""
    with trace.span("topology.build"):
        topology = build_mesh(FABRIC_SIDE, FABRIC_SIDE)
        params = daelite_parameters(
            slot_table_size=SLOT_TABLE_SIZE, config_word_bits=10
        )
    nis = [e.name for e in topology.nis if e.name != HOST_NI]
    with trace.span("harness.inputs"):
        requests = flow_requests(nis, FABRIC_UNICAST, seed, slots_max=2)
        lcg = Lcg(seed)
        trees = []
        for index in range(FABRIC_TREES):
            picked: List[str] = []
            while len(picked) < FABRIC_LEAVES + 1:
                name = nis[lcg.next_below(len(nis))]
                if name not in picked:
                    picked.append(name)
            trees.append(
                MulticastRequest(
                    f"tree{index}", picked[0], tuple(picked[1:]), slots=2
                )
            )
    allocator = SlotAllocator(topology=topology, params=params)
    oracle = AdmissionOracle(allocator)
    connections, multicasts = [], []
    for request in requests:
        with trace.span("alloc.allocate"):
            connections.append(allocator.allocate_connection(request))
    for request in trees:
        with trace.span("alloc.allocate"):
            multicasts.append(allocator.allocate_multicast(request))
    with trace.span("analysis.oracle"):
        bounds = {
            item.label: oracle.connection_model(
                item
            ).forward.worst_case_latency_cycles
            for item in connections
        }
        bounds.update(
            (item.label, oracle.multicast_model(item).worst_case_latency_cycles)
            for item in multicasts
        )
    with trace.span("core.build"):
        network = DaeliteNetwork(
            topology, params, host_ni=HOST_NI, kernel_mode=VECTOR_MODE
        )
    if trace.detailed:
        trace_kernel(trace, network)
    started_at = network.kernel.cycle
    handles, tree_handles = [], []
    with trace.span("core.config_setup"):
        for index, item in enumerate(connections):
            if index % CONFIGURES_PER_HOST_SAMPLE == 0:
                trace.sample_host()
            handles.append(network.configure(item))
        trace.sample_host()
        for item in multicasts:
            tree_handles.append(network.configure_multicast(item))
    trace.sample_host()
    config_cycles = network.kernel.cycle - started_at
    with trace.span("staticcheck.verify_state"):
        findings = len(
            verify_network_state(
                network, handles + tree_handles, raise_on_error=False
            )
        )
    with trace.span("staticcheck.prove"):
        findings += len(prove_network(network))
    # StatsCollector keeps one latency list per tree, so every leaf is
    # held to the tree's (slowest-leaf) bound.
    streams = [
        (
            item.label,
            item.forward.src_ni,
            handle.forward.src_channel,
            [(
                item.forward.dst_ni,
                handle.forward.dst_channel,
                bounds[item.label],
            )],
        )
        for item, handle in zip(connections, handles)
    ] + [
        (
            item.label,
            item.src_ni,
            handle.src_channel,
            [
                (leaf, handle.dst_channels[leaf], bounds[item.label])
                for leaf in item.dst_nis
            ],
        )
        for item, handle in zip(multicasts, tree_handles)
    ]
    flows: List[Flow] = []
    with trace.span("traffic.attach"):
        for index, (label, src_ni, src_channel, leaves) in enumerate(
            streams
        ):
            attach_flow(
                network,
                flows,
                label,
                periods[index % len(periods)],
                src_ni,
                src_channel,
                leaves,
            )
    trace.sample_host()
    # First run after set-up: the kernel lowers and compiles here.
    with trace.span("sim.engine_acquire"):
        network.run(1)
    with trace.span("sim.warm"):
        network.run(WARM_CYCLES - 1)
    setup_cycles = [handle.setup_cycles for handle in handles]
    return Fabric(
        network,
        flows,
        findings,
        setup_cycles + [handle.setup_cycles for handle in tree_handles],
        {
            "alloc.rejected": 0,
            "core.config_setup_cycles": config_cycles,
            "core.setup_cycles_mean": statistics.mean(setup_cycles),
            "staticcheck.findings": findings,
            "analysis.oracle_calls": len(bounds),
        },
    )


def measure_fabric(
    fabric: Fabric, sizes: Dict[str, int], trace: Trace
) -> Measured:
    network, flows = fabric.network, fabric.flows
    result = Measured(attempted=len(flows))
    with gc_held():
        for index in range(sizes["slices"]):
            words = delivered_words(flows)
            between_batches(trace)
            batch = timed_slice(
                trace, network, sizes["slice_cycles"], index
            )
            batch["words"] = delivered_words(flows) - words
            batch["ops"] = 1
            result.batches.append(batch)
        trace.sample_host()
    result.samples = settle(trace, result.batches)
    with trace.span("sim.stats_drain"):
        result.failed, traffic = check_flows(
            network, flows, fabric.findings
        )
        result.digest = sha256(
            fabric.setup_cycles + traffic_digest(network)
        )
    result.layer = {
        **fabric.layer,
        **traffic,
        **kernel_layer([network]),
        **slice_rates(result.batches),
    }
    return result


# -- reconfig_cadence ---------------------------------------------------------

RECONFIG_SIDE = 8
PERSISTENT_FLOWS = 16
USE_CASE_CONNECTIONS = 4
DWELL_CYCLES = 4096
VERIFY_EVERY = 8


@dataclass
class Cadence:
    network: DaeliteNetwork
    manager: OnlineConnectionManager
    flows: List[Flow]
    live: List[ConnectionRequest]
    idle: List[ConnectionRequest]
    layer: Dict[str, Any]


def reconfig_sizes(scale: float) -> Dict[str, int]:
    return {
        "mesh_side": RECONFIG_SIDE,
        "persistent_flows": PERSISTENT_FLOWS,
        "use_case_connections": USE_CASE_CONNECTIONS,
        "dwell_cycles": DWELL_CYCLES,
        "switches": max(2, round(12 * scale)),
    }


def trace_manager(trace: Trace, manager: OnlineConnectionManager) -> None:
    for method in (
        "open_connection",
        "close_connection",
        "open_connections_batched",
    ):
        trace.wrap(manager, method, "core.online")
    allocator = pick(manager, "allocator")
    trace.wrap(allocator, "allocate_connection", "alloc.allocate")
    trace.wrap(allocator, "release_connection", "alloc.release")


def setup_reconfig(
    seed: int, sizes: Dict[str, int], trace: Trace
) -> Cadence:
    with trace.span("topology.build"):
        topology = build_mesh(RECONFIG_SIDE, RECONFIG_SIDE)
        params = daelite_parameters(
            slot_table_size=SLOT_TABLE_SIZE, config_word_bits=9
        )
    nis = [e.name for e in topology.nis if e.name != HOST_NI]
    with trace.span("harness.inputs"):
        requests = flow_requests(
            nis,
            PERSISTENT_FLOWS + 2 * USE_CASE_CONNECTIONS,
            seed,
            slots_max=2,
        )
        persistent = requests[:PERSISTENT_FLOWS]
        split = PERSISTENT_FLOWS + USE_CASE_CONNECTIONS
        use_case_a = requests[PERSISTENT_FLOWS:split]
        use_case_b = requests[split:]
    with trace.span("core.build"):
        network = DaeliteNetwork(
            topology, params, host_ni=HOST_NI, kernel_mode=VECTOR_MODE
        )
        manager = OnlineConnectionManager(network)
    oracle = AdmissionOracle(manager.allocator)
    if trace.detailed:
        trace_kernel(trace, network)
        trace_manager(trace, manager)
    flows: List[Flow] = []
    opened = []
    with trace.span("core.config_setup"):
        for index, request in enumerate(persistent + use_case_a):
            if index % CONFIGURES_PER_HOST_SAMPLE == 0:
                trace.sample_host()
            opened.append(manager.open_connection(request))
    trace.sample_host()
    with trace.span("traffic.attach"):
        for record in opened[:PERSISTENT_FLOWS]:
            with trace.span("analysis.oracle"):
                bound = oracle.connection_model(
                    record.allocation
                ).forward.worst_case_latency_cycles
            attach_flow(
                network,
                flows,
                record.request.label,
                REPLAY_PERIODS[0],
                record.request.src_ni,
                record.handle.forward.src_channel,
                [(
                    record.request.dst_ni,
                    record.handle.forward.dst_channel,
                    bound,
                )],
            )
    with trace.span("staticcheck.verify_state"):
        findings = len(
            verify_network_state(
                network, manager.live_handles, raise_on_error=False
            )
        )
    with trace.span("sim.engine_acquire"):
        network.run(1)
    with trace.span("sim.warm"):
        network.run(DWELL_CYCLES - 1)
    return Cadence(
        network,
        manager,
        flows,
        use_case_a,
        use_case_b,
        {"staticcheck.findings": findings, "alloc.rejected": 0},
    )


def measure_reconfig(
    state: Cadence, sizes: Dict[str, int], trace: Trace
) -> Measured:
    network, manager, flows = state.network, state.manager, state.flows
    result = Measured(attempted=len(flows))
    findings = state.layer["staticcheck.findings"]
    dwells = []
    with gc_held():
        for index in range(sizes["switches"]):
            cycle, words = network.kernel.cycle, delivered_words(flows)
            between_batches(trace)
            with trace.span("core.switch", index) as switch:
                with trace.span("core.teardown"):
                    for request in state.live:
                        manager.close_connection(request.label)
                with trace.span("core.config_setup"):
                    for request in state.idle:
                        manager.open_connection(request)
            state.live, state.idle = state.idle, state.live
            dwells.append(
                timed_slice(trace, network, sizes["dwell_cycles"], index)
            )
            result.batches.append(
                {
                    "start": switch.interval[0],
                    "end": dwells[-1]["end"],
                    "cycles": network.kernel.cycle - cycle,
                    "words": delivered_words(flows) - words,
                    "ops": 1,
                }
            )
            last = index == sizes["switches"] - 1
            if index % VERIFY_EVERY == VERIFY_EVERY - 1 or last:
                with trace.span("staticcheck.verify_state"):
                    findings += len(
                        verify_network_state(
                            network,
                            manager.live_handles,
                            raise_on_error=False,
                        )
                    )
        trace.sample_host()
    result.samples = settle(trace, result.batches)
    settle(trace, dwells)
    with trace.span("sim.stats_drain"):
        result.failed, traffic = check_flows(network, flows, findings)
        result.digest = sha256(
            manager.setup_history
            + manager.teardown_history
            + traffic_digest(network)
        )
    result.layer = {
        **state.layer,
        **traffic,
        **kernel_layer([network]),
        **slice_rates(dwells),
        "staticcheck.findings": findings,
        "core.config_setup_cycles": sum(manager.setup_history),
        "core.teardown_cycles": sum(manager.teardown_history),
        "core.setup_cycles_mean": statistics.mean(manager.setup_history),
    }
    return result


# -- service_churn ------------------------------------------------------------

SERVICE_RAMP_OPS = 500
RAMP_STEP = 100
#: Churn ops between two host-speed readings (~0.1 s).
SERVICE_BATCH = 50
FAULT_EVERY_OPS = 600
LINK_FAILURE_EVERY_OPS = 1000
#: ``service_churn`` may fail this share of its requests (fault waves
#: land on live connections); every other workload must fail none.
SERVICE_FAILED_SHARE_LIMIT = 0.01


@dataclass
class Service:
    broker: ConnectionBroker
    churn: ChurnEngine
    harness: AvailabilityHarness


def service_sizes(scale: float) -> Dict[str, int]:
    return {
        "shards": 2,
        "tenants": 8,
        "ramp_ops": SERVICE_RAMP_OPS,
        "ops": max(100, round(4000 * scale)),
    }


def setup_service(
    seed: int, sizes: Dict[str, int], trace: Trace
) -> Service:
    with trace.span("core.build"):
        broker = ConnectionBroker.mesh_fleet(
            config=ServiceConfig(
                shards=sizes["shards"], lease_cycles=8000
            ),
            seed=seed,
        )
    churn = ChurnEngine(
        broker, seed=seed, tenants=sizes["tenants"], max_live=5
    )
    harness = AvailabilityHarness(
        broker,
        churn,
        seed=seed,
        fault_every_ops=FAULT_EVERY_OPS,
        fault_horizon=1000,
        link_failure_every_ops=LINK_FAILURE_EVERY_OPS,
    )
    if trace.detailed:
        for shard in broker.shards:
            trace_kernel(trace, shard.network)
            trace_manager(trace, shard.manager)
            trace.wrap(
                pick(shard, "oracle"), "admit_connection", "analysis.oracle"
            )
    # The ramp in steps, so the host clock reads between them; below
    # the first wave / link failure the op sequence is the same.
    for target in range(RAMP_STEP, sizes["ramp_ops"] + 1, RAMP_STEP):
        trace.sample_host()
        with trace.span("service.ramp"):
            harness.run_campaign(target)
    trace.sample_host()
    return Service(broker, churn, harness)


def measure_service(
    state: Service, sizes: Dict[str, int], trace: Trace
) -> Measured:
    broker, churn, harness = state.broker, state.churn, state.harness
    networks = [shard.network for shard in broker.shards]
    last_op = sizes["ramp_ops"] + sizes["ops"]
    result = Measured()
    outcomes_before = sum(len(record.outcomes) for record in churn.records)
    starts: List[float] = []
    ends: List[float] = []
    with gc_held():
        while churn.ops_run < last_op:
            requests = broker.stats.requests
            cycle = sum(network.kernel.cycle for network in networks)
            first = len(starts)
            between_batches(trace)
            for _ in range(SERVICE_BATCH):
                if churn.ops_run >= last_op:
                    break
                # One op = one churn step plus the fault wave / link
                # failure due after it.  ``run_campaign`` rebuilds its
                # whole report on return (linear in the ops so far), so
                # it is called only where the campaign has something
                # due; the seeded op sequence is the same either way.
                due = churn.ops_run + 1
                wave = due % FAULT_EVERY_OPS == 0 and due < last_op
                starts.append(perf_counter())
                if trace.detailed:
                    span = trace.begin("service.op", due)
                if wave or due % LINK_FAILURE_EVERY_OPS == 0:
                    harness.run_campaign(due + wave)
                else:
                    churn.step()
                if trace.detailed:
                    trace.end(span)
                ends.append(perf_counter())
            result.batches.append(
                {
                    "start": starts[first],
                    "end": ends[-1],
                    "cycles": sum(n.kernel.cycle for n in networks)
                    - cycle,
                    "ops": broker.stats.requests - requests,
                }
            )
        trace.sample_host()
    result.samples = list(map(trace.clock.seconds, starts, ends))
    settle(trace, result.batches)
    with trace.span("service.report"):
        report = harness.report()
        outcomes = [
            outcome
            for record in churn.records
            for outcome in record.outcomes
        ][outcomes_before:]
        result.attempted = len(outcomes)
        result.failed = sum(not outcome.ok for outcome in outcomes)
        result.digest = sha256([churn.digest()])
    status = pick(report, "status_counts") or {}
    faults = [
        event
        for network in networks
        for event in pick(pick(network, "stats"), "faults") or ()
    ]
    repair = call(report, "repair_percentiles")
    setup_cycles = [
        cycles
        for shard in broker.shards
        for cycles in pick(pick(shard, "manager"), "setup_history") or ()
    ]
    result.layer = {
        **kernel_layer(networks),
        **{
            f"sim.{key}": value
            for key, value in call(broker, "cache_telemetry").items()
        },
        "core.setup_cycles_mean": (
            statistics.mean(setup_cycles) if setup_cycles else None
        ),
        "faults.waves": len(pick(report, "waves") or ()),
        "faults.link_failures": len(pick(report, "link_failures") or ()),
        "faults.injected": sum(e.category == "inject" for e in faults),
        "faults.detected": sum(e.category == "detect" for e in faults),
        "service.retries": pick(report, "retries"),
        "service.breaker_opens": pick(report, "breaker_opens"),
        "service.repairs": pick(status, "repaired"),
        "service.time_to_repair_p90_cycles": pick(repair, "p90"),
        "service.lease_violations": total(pick(report, "lease_violations")),
        "service.degraded": pick(status, "served_degraded") or 0,
        "service.rejected": pick(status, "rejected") or 0,
        "service.status_counts": total(status),
        f"service.status_counts{BY_KIND}": status,
    }
    return result


# -- plan_admission -----------------------------------------------------------

PLAN_RAMP = 2000
#: Requests between two host-speed readings (~0.13 s).
PLAN_BATCH = 1000
PLAN_LIVE = 200


def verdict_agrees(verdict: Any, allocation: Any) -> bool:
    """Oracle and allocator must tell the same story: admitted and
    claimed with exactly the planned forward slots, or refused by both."""
    if allocation is None:
        return not verdict.admitted
    return verdict.admitted and verdict.planned_slots == tuple(
        sorted(allocation.forward.slots)
    )


@dataclass
class Plan:
    allocator: SlotAllocator
    oracle: AdmissionOracle
    requests: List[ConnectionRequest]
    lcg: Lcg
    agrees: Callable[[Any, Any], bool]
    live: List[Any] = field(default_factory=list)
    decisions: List[Any] = field(default_factory=list)
    admitted: int = 0
    disagreements: int = 0

    def request(self, index: int, trace: Trace) -> None:
        """Probe (read), claim (write), and release once the live set
        is over its watermark (write)."""
        request = self.requests[index]
        detailed = trace.detailed
        if detailed:
            span = trace.begin("analysis.oracle", index)
        verdict = self.oracle.admit_connection(request)
        if detailed:
            trace.end(span)
            span = trace.begin("alloc.allocate", index)
        try:
            allocation = self.allocator.allocate_connection(request)
        except AllocationError:
            allocation = None
        if detailed:
            trace.end(span)
        self.disagreements += not self.agrees(verdict, allocation)
        self.decisions.append(
            (verdict.admitted, verdict.planned_slots)
        )
        if allocation is None:
            return
        self.admitted += 1
        live = self.live
        live.append(allocation)
        if len(live) > PLAN_LIVE:
            victim = self.lcg.next_below(len(live))
            live[victim], live[-1] = live[-1], live[victim]
            if detailed:
                span = trace.begin("alloc.release", index)
            self.allocator.release_connection(live.pop())
            if detailed:
                trace.end(span)


def plan_sizes(scale: float) -> Dict[str, int]:
    return {
        "mesh_side": FABRIC_SIDE,
        "ramp_requests": PLAN_RAMP,
        "live_watermark": PLAN_LIVE,
        "requests": max(PLAN_BATCH // 2, round(38000 * scale)),
    }


def setup_plan(
    seed: int,
    sizes: Dict[str, int],
    trace: Trace,
    agrees: Callable[[Any, Any], bool] = verdict_agrees,
) -> Plan:
    with trace.span("topology.build"):
        topology = build_mesh(FABRIC_SIDE, FABRIC_SIDE)
        params = daelite_parameters(
            slot_table_size=SLOT_TABLE_SIZE, config_word_bits=10
        )
    with trace.span("harness.inputs"):
        requests = flow_requests(
            [element.name for element in topology.nis],
            sizes["ramp_requests"] + sizes["requests"],
            seed,
            slots_max=4,
        )
    allocator = SlotAllocator(topology=topology, params=params)
    plan = Plan(
        allocator, AdmissionOracle(allocator), requests, Lcg(seed), agrees
    )
    ramp = Trace(trace.workload)  # ramp ops are not traced one by one
    for start in range(0, sizes["ramp_requests"], PLAN_BATCH // 2):
        trace.sample_host()
        with trace.span("harness.ramp"):
            for index in range(
                start, min(start + PLAN_BATCH // 2, sizes["ramp_requests"])
            ):
                plan.request(index, ramp)
    trace.sample_host()
    return plan


def measure_plan(
    plan: Plan, sizes: Dict[str, int], trace: Trace
) -> Measured:
    result = Measured()
    first = sizes["ramp_requests"]
    last = first + sizes["requests"]
    admitted, disagreed = plan.admitted, plan.disagreements
    starts: List[float] = []
    ends: List[float] = []
    with gc_held():
        for start in range(first, last, PLAN_BATCH):
            stop = min(start + PLAN_BATCH, last)
            between_batches(trace)
            for index in range(start, stop):
                starts.append(perf_counter())
                plan.request(index, trace)
                ends.append(perf_counter())
            result.batches.append(
                {
                    "start": starts[start - first],
                    "end": ends[-1],
                    "ops": stop - start,
                }
            )
        trace.sample_host()
    result.samples = list(map(trace.clock.seconds, starts, ends))
    settle(trace, result.batches)
    with trace.span("harness.digest"):
        result.digest = sha256(
            plan.decisions + [plan.allocator.ledger.total_claims()]
        )
    requests = sizes["requests"]
    result.attempted = requests
    result.failed = plan.disagreements - disagreed
    result.layer = {
        "alloc.allocate_calls": requests,
        "alloc.rejected": requests - (plan.admitted - admitted),
        "analysis.oracle_calls": requests,
        "analysis.oracle_admit_ratio": ratio(
            sum(
                decision[0]
                for decision in plan.decisions[first:]
            ),
            requests,
        ),
    }
    return result


# -- the workload table -------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    sizes: Callable[[float], Dict[str, int]]
    setup: Callable[[int, Dict[str, int], Trace], Any]
    measure: Callable[[Any, Dict[str, int], Trace], Measured]
    failed_share_limit: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    "fabric_replay": Workload(
        lambda scale: fabric_sizes(scale, 100_000),
        lambda seed, sizes, trace: build_fabric(
            seed, REPLAY_PERIODS, trace
        ),
        measure_fabric,
    ),
    "fabric_stepped": Workload(
        lambda scale: fabric_sizes(scale, 10_000),
        lambda seed, sizes, trace: build_fabric(
            seed, STEPPED_PERIODS, trace
        ),
        measure_fabric,
    ),
    "reconfig_cadence": Workload(
        reconfig_sizes, setup_reconfig, measure_reconfig
    ),
    "service_churn": Workload(
        service_sizes,
        setup_service,
        measure_service,
        failed_share_limit=SERVICE_FAILED_SHARE_LIMIT,
    ),
    "plan_admission": Workload(plan_sizes, setup_plan, measure_plan),
}

#: Per-layer time metric -> the span whose summed duration it reports.
TIME_SPANS = {
    "topology.build_s": "topology.build",
    "alloc.allocate_s": "alloc.allocate",
    "alloc.release_s": "alloc.release",
    "analysis.oracle_s": "analysis.oracle",
    "core.build_s": "core.build",
    "core.config_setup_s": "core.config_setup",
    "core.teardown_s": "core.teardown",
    "sim.engine_acquire_s": "sim.engine_acquire",
    "sim.warm_s": "sim.warm",
    "sim.run_s": "sim.run",
    "sim.gc_collect_s": "harness.gc_collect",
    "sim.stats_drain_s": "sim.stats_drain",
    "sim.step_s": "sim.step",
    "staticcheck.verify_state_s": "staticcheck.verify_state",
    "staticcheck.prove_s": "staticcheck.prove",
}
#: Spans counted where the harness itself does not count the calls.
CALL_SPANS = {
    "alloc.allocate_calls": "alloc.allocate",
    "alloc.release_calls": "alloc.release",
    "analysis.oracle_calls": "analysis.oracle",
}


def per_layer(
    trace: Trace,
    measured: Measured,
    own: Dict[str, float],
    inclusive: Dict[str, float],
) -> Dict[str, Any]:
    """Every per-layer figure of one run; ``None`` = not observed.
    ``own`` / ``inclusive`` are ``trace.seconds_by_name()``."""
    layer: Dict[str, Any] = dict(measured.layer)
    for metric, name in TIME_SPANS.items():
        layer[metric] = inclusive.get(name)
    for metric, name in CALL_SPANS.items():
        if layer.get(metric) is None:
            layer[metric] = trace.count(name) or None
    layer["core.online_self_s"] = own.get("core.online")
    service = [
        seconds for name, seconds in own.items() if name.startswith("service.")
    ]
    layer["service.self_s"] = sum(service) if service else None
    words = sum(batch.get("words", 0) for batch in measured.batches)
    layer["sim.host_us_per_word"] = ratio(
        sum(batch["seconds"] for batch in measured.batches) * 1e6, words
    )
    calls, rejected = layer.get("alloc.allocate_calls"), layer.get(
        "alloc.rejected"
    )
    layer["alloc.accept_ratio"] = (
        None if None in (calls, rejected) else ratio(calls - rejected, calls)
    )
    layer["core.config_host_us_per_cycle"] = ratio(
        (layer["core.config_setup_s"] or 0) * 1e6,
        layer.get("core.config_setup_cycles"),
    )
    return layer


def end_to_end(
    setup_s: float, total_s: float, measured: Measured
) -> Dict[str, Optional[float]]:
    """The nine end-to-end figures; ``None`` = not applicable here."""
    def rate(key: str) -> Optional[float]:
        batches = [b for b in measured.batches if b.get(key)]
        if not batches:
            return None
        return statistics.median(b[key] / b["seconds"] for b in batches)

    return {
        "setup_s": setup_s,
        "total_s": total_s,
        "sim_cycles_per_s": rate("cycles"),
        "delivered_words_per_s": rate("words"),
        "ops_per_s": rate("ops"),
        **op_latency_ms(measured.samples),
        "failed_share": measured.failed / measured.attempted,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float = RUN_SECONDS,
    detailed: bool = False,
    trace_out: Optional[str] = None,
    setup_only: bool = False,
) -> Dict[str, Any]:
    """Run one workload in this process and return its full result
    (``setup_only``: just a ``setup_s`` sample)."""
    workload = WORKLOADS[name]
    sizes = workload.sizes(seconds / RUN_SECONDS)
    trace = Trace(name, detailed)
    with trace.span("harness.workload") as root:
        trace.sample_host()
        with trace.span("harness.setup") as setup:
            state = workload.setup(seed, sizes, trace)
        trace.sample_host()
        if setup_only:
            return {"setup_s": trace.clock.seconds(*setup.interval)}
        measured = workload.measure(state, sizes, trace)
        trace.sample_host()
    total_s = trace.clock.seconds(*root.interval)
    metrics = end_to_end(
        trace.clock.seconds(*setup.interval), total_s, measured
    )
    own, inclusive = trace.seconds_by_name()
    layer = per_layer(trace, measured, own, inclusive)
    if trace_out:
        trace.append_to(trace_out)
    return {
        "workload": name,
        "seed": seed,
        "traced": detailed,
        "sizes": sizes,
        "op_samples": len(measured.samples),
        "op_seconds": measured.samples,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "correct": metrics["failed_share"] <= workload.failed_share_limit,
        "sim_digest": measured.digest,
        "end_to_end": metrics,
        "per_layer": {
            key: value
            for key, value in layer.items()
            if not key.endswith(BY_KIND)
        },
        "per_layer_by_kind": {
            key[: -len(BY_KIND)]: value
            for key, value in layer.items()
            if key.endswith(BY_KIND)
        },
        "host_slowdown": trace.clock.median_slowdown(),
        "span_self_s": own,
        "layer_self_s": layer_self_seconds(own),
        "attributed_share": 1 - own["harness.workload"] / total_s,
    }
