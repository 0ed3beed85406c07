"""Cycle-driven simulation substrate (kernel, links, flits, stats, trace)."""

from .flit import IDLE_PHIT, Phit, Word
from .kernel import (
    KERNEL_MODE_ENV,
    NAIVE_MODE,
    VECTOR_MODE,
    Component,
    Kernel,
    Register,
    default_kernel_mode,
)
from .link import Link, NarrowLink
from .stats import ConnectionStats, StatsCollector
from .trace import NULL_TRACER, NullTracer, TraceEvent, Tracer

__all__ = [
    "IDLE_PHIT",
    "Phit",
    "Word",
    "KERNEL_MODE_ENV",
    "NAIVE_MODE",
    "VECTOR_MODE",
    "Component",
    "Kernel",
    "Register",
    "default_kernel_mode",
    "Link",
    "NarrowLink",
    "ConnectionStats",
    "StatsCollector",
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "Tracer",
]
