"""Traffic generation: sources, sinks, and paper-motivated workloads."""

from .generators import (
    BurstGenerator,
    CbrGenerator,
    Lcg,
    RandomGenerator,
    TraceGenerator,
)
from .sinks import CheckingSink, ThrottledSink
from .workloads import (
    CacheMissTraffic,
    SyncBroadcast,
    VideoStream,
    random_traffic_pattern,
)

__all__ = [
    "BurstGenerator",
    "CbrGenerator",
    "Lcg",
    "RandomGenerator",
    "TraceGenerator",
    "CheckingSink",
    "ThrottledSink",
    "CacheMissTraffic",
    "SyncBroadcast",
    "VideoStream",
    "random_traffic_pattern",
]
