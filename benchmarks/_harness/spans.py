"""In-memory spans and the host clock, timed from outside the program.

A span is ``(name, start, end, parent, op)``: ``name`` is
``<layer>.<what>`` with the layer named after the ``repro`` sub-package
whose public call the span brackets (``harness.*`` for the benchmark's
own bookkeeping), ``start``/``end`` are ``time.perf_counter`` readings,
``parent`` is the index of the enclosing span (``-1`` for the root) and
``op`` identifies the request / slice the span belongs to.  Nothing in
``src/`` reads a clock (rules DT001/DT002); every timestamp is taken
here.

Durations are reported in **reference seconds**: the sandbox's two
shared vCPUs run the same pure-Python loop anywhere between 1x and 2x
its best time, in regimes that last tens of seconds, which no amount
of repeating inside one run averages out.  :class:`HostClock` times a
fixed reference loop at points spread through the run and maps every
``perf_counter`` reading onto a time axis on which the host always
runs at reference speed, so a duration is what it would have been on
the quiet sandbox.  Raw readings stay in the trace file.
"""

from __future__ import annotations

import json
import math
import statistics
from bisect import bisect_right
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The reference loop and what it takes on the quiet sandbox (2.1 GHz
#: Xeon vCPU, CPython 3.11): ``slowdown`` 1.0 means "as fast as that".
REFERENCE_ITERATIONS = 20_000
REFERENCE_SECONDS = 1.0e-3
HOST_SPEED_SPAN = "harness.host_speed"


def reference_loop() -> float:
    """Host seconds for a fixed piece of interpreter-bound work; the
    best of three, so a timer interrupt does not read as a slow host."""
    best = math.inf
    for _ in range(3):
        started = perf_counter()
        acc = 0
        for index in range(REFERENCE_ITERATIONS):
            acc += index * index & 7
        best = min(best, perf_counter() - started)
    return best


class HostClock:
    """``perf_counter`` readings -> seconds at reference host speed.

    Between two samples the host is taken to run at the mean of their
    slowdowns; before the first and after the last, at theirs.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.slowdowns: List[float] = []
        self._reference: List[float] = []

    def sample(self) -> None:
        slowdown = reference_loop() / REFERENCE_SECONDS
        now = perf_counter()
        if self.times:
            mean = (slowdown + self.slowdowns[-1]) / 2
            self._reference.append(
                self._reference[-1] + (now - self.times[-1]) / mean
            )
        else:
            self._reference.append(0.0)
        self.times.append(now)
        self.slowdowns.append(slowdown)

    def reference(self, reading: float) -> float:
        """The reference-time coordinate of one ``perf_counter`` reading."""
        times, slow = self.times, self.slowdowns
        if not times:
            return reading
        after = bisect_right(times, reading)
        if after == 0:
            return (reading - times[0]) / slow[0]
        before = after - 1
        if after == len(times):
            rate = slow[before]
        else:
            rate = (slow[before] + slow[after]) / 2
        return self._reference[before] + (reading - times[before]) / rate

    def seconds(self, start: float, end: float) -> float:
        """``end - start`` in reference seconds."""
        return self.reference(end) - self.reference(start)

    def median_slowdown(self) -> Optional[float]:
        if not self.slowdowns:
            return None
        return statistics.median(self.slowdowns)


class _Span:
    """Context manager closing one span (cheaper than a generator)."""

    __slots__ = ("trace", "index")

    def __init__(self, trace: "Trace", index: int) -> None:
        self.trace = trace
        self.index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc: object) -> None:
        self.trace.end(self.index)

    @property
    def interval(self) -> Tuple[float, float]:
        """Raw ``(start, end)`` readings of the closed span."""
        return self.trace.starts[self.index], self.trace.ends[self.index]


class Trace:
    """Span recorder for one workload run.

    Stage-level spans are always recorded (a few dozen per run).  The
    per-op spans and the method rebinding are requested by workload
    code only when :attr:`detailed` is set — the traced repeat — so the
    untraced repeats that produce the end-to-end metrics pay for
    nothing but two clock reads per op.

    Spans live in five parallel lists of scalars, so a hundred thousand
    of them add nothing for the cyclic GC to walk between batches.
    """

    def __init__(self, workload: str, detailed: bool = False) -> None:
        self.workload = workload
        self.detailed = detailed
        self.clock = HostClock()
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[Any] = []
        self._current = -1

    def begin(self, name: str, op: Any = None) -> int:
        index = len(self.names)
        self.names.append(name)
        self.ends.append(0.0)
        self.parents.append(self._current)
        self.ops.append(op)
        self._current = index
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._current = self.parents[index]

    def span(self, name: str, op: Any = None) -> _Span:
        return _Span(self, self.begin(name, op))

    def sample_host(self) -> None:
        """Time the reference loop here (a span like any other; its
        ``op`` records the slowdown it read)."""
        index = self.begin(HOST_SPEED_SPAN)
        self.clock.sample()
        self.ops[index] = self.clock.slowdowns[-1]
        self.end(index)

    def wrap(
        self,
        owner: Any,
        method: str,
        name: str,
        skip_under: Optional[str] = None,
    ) -> None:
        """Rebind the *public* bound method ``owner.method`` so every
        call is a span.  Used on objects the harness holds, in the
        traced repeat only; a missing method is left alone so a later
        refactor cannot break the benchmark.  ``skip_under`` names a
        span-name prefix under which no nested span is opened (the
        harness's own ``sim.run`` already covers ``kernel.step``)."""
        inner = getattr(owner, method, None)
        if inner is None or method.startswith("_"):
            return
        trace = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if skip_under is not None and trace._current >= 0 and (
                trace.names[trace._current].startswith(skip_under)
            ):
                return inner(*args, **kwargs)
            index = trace.begin(name)
            try:
                return inner(*args, **kwargs)
            finally:
                trace.end(index)

        setattr(owner, method, traced)

    # -- aggregation, in reference seconds ----------------------------------

    def seconds_by_name(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per span name ``(self, inclusive)`` seconds: the summed
        duration minus what children cover, and with them."""
        reference = self.clock.reference
        durations = [
            reference(end) - reference(start)
            for start, end in zip(self.starts, self.ends)
        ]
        own = list(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                own[parent] -= duration
        return _summed(self.names, own), _summed(self.names, durations)

    def count(self, name: str) -> int:
        return self.names.count(name)

    def append_to(self, path: str) -> None:
        """Append the spans (raw readings) to ``path``, one JSON object
        per line."""
        with open(path, "a", encoding="utf-8") as handle:
            for name, start, end, parent, op in zip(
                self.names, self.starts, self.ends, self.parents, self.ops
            ):
                record = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "workload": self.workload,
                    "op": op,
                }
                handle.write(json.dumps(record) + "\n")


def _summed(names: Sequence[str], seconds: Sequence[float]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for name, value in zip(names, seconds):
        totals[name] = totals.get(name, 0.0) + value
    return totals


def layer_self_seconds(self_by_name: Dict[str, float]) -> Dict[str, float]:
    """Fold ``<layer>.<what>`` self times into one figure per layer."""
    layers: Dict[str, float] = {}
    for name, own in self_by_name.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own
    return dict(sorted(layers.items()))


def nearest_rank(ordered: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


#: ``op_p99_ms`` is reported only from this many op samples up.
P99_MIN_SAMPLES = 1000


def op_latency_ms(seconds: Sequence[float]) -> Dict[str, Optional[float]]:
    """``op_p50_ms`` / ``op_p99_ms`` of per-op seconds (``None`` = too
    few samples for that percentile)."""
    ordered = sorted(seconds)
    return {
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_p99_ms": (
            nearest_rank(ordered, 0.99) * 1e3
            if len(ordered) >= P99_MIN_SAMPLES
            else None
        ),
    }


def per_op_floor(replicas: Sequence[Sequence[float]]) -> List[float]:
    """Op by op, the fastest of several replays of one seeded op
    sequence.  The work of op *i* is the same in every replay; what the
    shared host adds on top is one-sided and hits a tenth of the ops by
    +30 % and more, in bursts the reference loop does not see, so the
    minimum is the estimate of what the program costs and the tail
    percentiles of the floor repeat where those of one replay do not
    (SPREAD.md)."""
    return [min(times) for times in zip(*replicas)]
