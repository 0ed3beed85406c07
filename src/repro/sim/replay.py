"""Bulk replay of proven-steady epochs (what ``vector`` mode adds).

The engine in :mod:`repro.sim.compiled` steps the flattened schedule
and, at period boundaries, proves that the network state repeats.  This
module is everything that happens *after* that proof — it never steps a
cycle and holds no data-plane state:

* **Sink templates** — the engine records one epoch's sink events as int
  tuples ``(cycle, connection id, sequence, sink index)`` against the
  connection-name interning table kept here (id 0 is reserved for the
  empty label).
* **Sink crediting** — :meth:`EpochReplay.materialize` credits each
  sink ``K`` times its epoch's words and replays the sink's sequence
  checks.  (The statistics ledger needs no template: a word carries its
  own injection cycle and the ledger keeps counts, which the engine
  credits by the epoch's deltas, ``StatsCollector.credit``.)
* **Regime templates** — a proven-steady epoch is stored fully rebased
  (sink event cycles relative to the epoch start, sequences relative to
  the per-connection anchors, counters as per-epoch deltas) in the
  engine's own LRU, keyed by the boundary signature alone.  The engine
  proves a template only inside one run (two equal signatures one
  period apart, no outside code between them) and loads one at every
  probed boundary, so re-entering a regime the engine has seen — after
  a landing, a config event or a use-case switch back — replays at the
  *first* boundary instead of probing two epochs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

#: Capacity (regimes) of an engine's template store: one entry per
#: distinct steady regime; use-case campaigns rarely cycle through more
#: than a handful.
REGIME_CACHE_CAPACITY = 8


class EpochReplay:
    """Regime templates and bulk materialization for one engine.

    ``templates`` maps a boundary signature to the epoch proved under
    it, ``(delta, rebased sink events)``, least recently used first.
    A template never leaves its engine: the deltas and the sink indices
    are positional in the engine's roster, and an engine is retired
    with its lowering.  Stores are counted on the kernel
    (``regime_cache_stores``); the engine counts the segments it opens.
    """

    def __init__(self, kernel: Any, period: int, sinks: List[tuple]) -> None:
        self.kernel = kernel
        self.period = period
        self.sinks = sinks
        self.conn_ids: Dict[str, int] = {"": 0}  # id 0 <=> "no label"
        self.conn_names: List[str] = [""]
        self.templates: OrderedDict = OrderedDict()

    def intern(self, connection: str) -> int:
        cid = self.conn_ids.get(connection)
        if cid is None:
            cid = len(self.conn_names)
            self.conn_ids[connection] = cid
            self.conn_names.append(connection)
        return cid

    # -- the template store ------------------------------------------------------

    def store(
        self,
        sig: tuple,
        delta: dict,
        events: List[tuple],
        cycle: int,
        anchors: Dict[str, Tuple[int, int]],
    ) -> tuple:
        """Record the epoch ending at ``cycle``, just proved steady, as
        the template of ``sig`` and return it.

        The template is fully rebased: sink event cycles relative to the
        epoch start, sequences relative to the per-connection
        ``anchors`` at the closing boundary, counters as the epoch's
        ``delta`` (``CompiledEngine._epoch_delta``: keyed by link
        position, NI and channel, connection or ledger key).  Loading
        re-anchors against whatever absolute state the matching boundary
        presents, so a template recorded before a config event replays
        bit-exactly at any later boundary with the same signature.
        """
        names = self.conn_names
        start = cycle - self.period
        rebased: List[tuple] = []
        for cyc, cid, seq, sink_index in events:
            conn = names[cid]
            anchor = anchors.get(conn)
            if anchor is not None:
                seq -= anchor[0]
            rebased.append(
                (cyc - start, conn, seq, anchor is not None, sink_index)
            )
        templates = self.templates
        template = templates[sig] = (delta, tuple(rebased))
        templates.move_to_end(sig)
        if len(templates) > REGIME_CACHE_CAPACITY:
            templates.popitem(last=False)
        self.kernel.regime_cache_stores += 1
        return template

    def load(
        self,
        sig: tuple,
        snap: dict,
        cycle: int,
        anchors: Dict[str, Tuple[int, int]],
    ) -> Optional[Tuple[tuple, List[tuple]]]:
        """The template of ``sig`` and its sink events re-anchored to the
        live ``anchors`` and re-timed into the epoch ending at ``cycle``
        — or ``None`` when there is none, or none usable at the boundary
        whose counters ``snap`` holds."""
        template = self.templates.get(sig)
        if template is None:
            return None
        delta, rebased = template
        if not (
            delta["ledger"].keys() <= snap["ledger"].keys()
            and delta["counters"].keys() <= snap["counters"].keys()
        ):
            # A count the template moves that the live ledger or NI
            # lacks (a connection, flow, latency or sequence counter not
            # seen yet) has no boundary value to credit.
            return None
        intern = self.intern
        start = cycle - self.period
        events: List[tuple] = []
        for cyc, conn, seq, anchored, sink_index in rebased:
            if anchored:
                anchor = anchors.get(conn)
                if anchor is None:
                    return None
                seq += anchor[0]
            events.append((cyc + start, intern(conn), seq, sink_index))
        self.templates.move_to_end(sig)
        return template, events

    # -- bulk epoch replay -------------------------------------------------------

    def materialize(
        self,
        epochs: int,
        deltas: Dict[str, int],
        events: List[tuple],
    ) -> None:
        """Credit ``epochs`` steady epochs to the sinks.

        ``deltas`` are the per-connection sequence advances of one
        epoch.  Each sink is credited its epoch's word count ``epochs``
        times and replays its sequence checks.
        """
        sink_by_idx: Dict[int, List[tuple]] = {}
        for cyc, cid, seq, idx in events:
            sink_by_idx.setdefault(idx, []).append((cyc, cid, seq))
        for idx, evs in sink_by_idx.items():
            sink = self.sinks[idx][0]
            sink.words_received += len(evs) * epochs
            self._replay_checking(sink, evs, deltas, epochs)

    def _replay_checking(
        self,
        sink: Any,
        evs: List[tuple],
        deltas: Dict[str, int],
        epochs: int,
    ) -> None:
        """Replay a sink's sequence bookkeeping.

        Fast path: every connection's epoch stream is consecutive,
        matches the sink's last-seen counter, and the per-epoch shift
        equals the stream length — then the whole replay provably
        produces no findings and only advances ``_last_seq``.  Anything
        else walks the sink's own per-word check in the order stepped
        execution performs it (chronological within each epoch, across
        connections).
        """
        names = self.conn_names
        streams: Dict[int, List[int]] = {}
        for _cyc, cid, seq in evs:
            if cid and seq >= 0:
                streams.setdefault(cid, []).append(seq)
        fast = True
        for cid, seqs in streams.items():
            delta = deltas.get(names[cid], 0)
            first, last = seqs[0], seqs[-1]
            consecutive = all(
                b == a + 1 for a, b in zip(seqs, seqs[1:])
            )
            if not (
                consecutive
                and first + delta == last + 1
                and sink._last_seq.get(names[cid]) == last
            ):
                fast = False
                break
        if fast:
            for cid, seqs in streams.items():
                delta = deltas.get(names[cid], 0)
                sink._last_seq[names[cid]] = (
                    seqs[-1] + epochs * delta
                )
            return
        period = self.period
        for k in range(1, epochs + 1):
            for cyc, cid, seq in evs:
                if cid and seq >= 0:
                    sink._check_sequence(
                        cyc + k * period,
                        names[cid],
                        seq + k * deltas.get(names[cid], 0),
                    )
