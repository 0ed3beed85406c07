"""A network's record of what can make its compiled engine stale, kept
as it happens, and the reporting attributes routers and NIs share.

The compiled engine (:mod:`repro.sim.compiled`) must not run past a
schedule write, an armed data-link fault hook, a tracer, a collector
foreign to the network or a config decoder with work pending.  Rather
than scan the mesh for these on every run, a network owns one
:class:`ChangeRecord`, hands it to every element, table and link it
builds, and each of those notes in it what happens to it; the engine's
per-run check (:func:`repro.sim.compiled._check_eligibility`) reads the
record, so it costs what changed, not the mesh.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..sim.stats import StatsCollector
from ..sim.trace import Tracer


class ChangeRecord:
    """What a network's elements, tables and links report as it happens.

    A free-standing element, table or link keeps a record of its own.

    Attributes:
        writes: Schedule writes — every slot-table set or clear and
            every config action an element applies: the compiled
            engine's validity token.
        suspects: Routers and NIs whose eligibility may have changed:
            each enters when it is built, when its tracer or collector
            is set and when its config decoder starts a packet; the
            eligibility check drops those it finds clean.
        hooked_links: Data links with a fault hook, in the order they
            got one.
        hooked_config_links: Config-tree links with a fault hook, in
            the order they got one.
        sourcing: NIs that created a source channel — the only ones
            that can hold a queued word.
        endpoints: NIs that created or dropped a channel endpoint, or
            re-paired a source channel, since the compiled engine last
            resolved their endpoints; the engine empties it.
        queued: NIs a word was submitted to since the data plane was
            last found empty; that test empties it
            (``repro.sim.compiled.NetworkProvider.data_plane_empty``).
    """

    __slots__ = (
        "writes",
        "suspects",
        "hooked_links",
        "hooked_config_links",
        "sourcing",
        "endpoints",
        "queued",
    )

    def __init__(self) -> None:
        self.writes = 0
        self.suspects: Dict[Any, None] = {}
        self.hooked_links: Dict[Any, None] = {}
        self.hooked_config_links: Dict[Any, None] = {}
        self.sourcing: Dict[Any, None] = {}
        self.endpoints: Dict[Any, None] = {}
        self.queued: Dict[Any, None] = {}


class ReportingElement:
    """Mixin: :attr:`tracer` and :attr:`stats`, noted in the element's
    :attr:`changes` when set (the element sets ``changes`` first)."""

    changes: ChangeRecord
    _tracer: Tracer
    _stats: Optional[StatsCollector]

    @property
    def tracer(self) -> Tracer:
        """Event tracer (set by the network builder)."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self.changes.suspects[self] = None

    @property
    def stats(self) -> Optional[StatsCollector]:
        """Statistics collector (set by the network builder)."""
        return self._stats

    @stats.setter
    def stats(self, stats: Optional[StatsCollector]) -> None:
        self._stats = stats
        self.changes.suspects[self] = None
