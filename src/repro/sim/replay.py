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
* **Piecewise-periodic regime cache** — a proven-steady epoch is stored
  fully rebased (sink event cycles relative to the epoch start,
  sequences relative to the per-connection anchors, counters as
  per-epoch deltas) in a per-network LRU keyed (schedule image, traffic
  roster, signature) — the first two hashed once per engine, into one
  prefix the network shares — so re-entering a seen regime replays at
  the *first* boundary instead of re-probing two epochs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Capacity (regimes) of the per-network regime cache: one entry per
#: distinct steady regime; use-case campaigns rarely cycle through more
#: than a handful.
REGIME_CACHE_CAPACITY = 8


def roster_key(
    gens: Sequence[Any], sinks: Sequence[tuple], period: int
) -> tuple:
    """Hashable identity of the traffic roster driving an engine.

    A cached regime is only replayable when the *same* generator and
    sink structure (types, periods, budgets, endpoints, roster order)
    surrounds the matching signature: the per-epoch delta vectors and
    the event template's sink indices are positional in this roster.
    """
    gens_key = []
    for gen in gens:
        inject = getattr(gen, "inject", None)
        gens_key.append(
            (
                type(gen).__name__,
                getattr(gen, "period", 0),
                getattr(gen, "burst_words", 0),
                getattr(gen, "total_words", None),
                getattr(gen, "total_bursts", None),
                None if inject is None else inject.connection,
                None if inject is None else inject.ni.name,
                None if inject is None else inject.channel,
            )
        )
    sinks_key = [
        (
            type(sink).__name__,
            ni.name,
            channel,
            sink_period,
            sink.words_per_cycle,
        )
        for sink, ni, channel, sink_period in sinks
    ]
    return (tuple(gens_key), tuple(sinks_key), period)


class EpochReplay:
    """Regime templates and bulk materialization for one engine.

    ``key`` is the ``(schedule image, roster key)`` prefix of this
    engine's regime-cache entries.  It is hashed once, here: the
    network maps each prefix it has seen to one ``prefix`` object, so
    the entries are keyed ``(prefix, signature)`` and an engine built
    for a schedule seen before shares the templates stored under it.
    The cache itself hangs off the network, so it outlives the engines
    that use-case switches retire; its hit and store counters are kept
    on the kernel.
    """

    def __init__(
        self,
        network: Any,
        key: tuple,
        period: int,
        sinks: List[tuple],
    ) -> None:
        self.stats = network.stats
        self.kernel = network.kernel
        self.period = period
        self.sinks = sinks
        self.conn_ids: Dict[str, int] = {"": 0}  # id 0 <=> "no label"
        self.conn_names: List[str] = [""]
        cache = getattr(network, "_regime_cache", None)
        if cache is None:
            cache = OrderedDict()
            network._regime_cache = cache
            network._regime_prefixes = {}
        self.cache: OrderedDict = cache
        self.prefixes: Dict[tuple, object] = network._regime_prefixes
        self.prefix = self.prefixes.setdefault(key, object())

    def intern(self, connection: str) -> int:
        cid = self.conn_ids.get(connection)
        if cid is None:
            cid = len(self.conn_names)
            self.conn_ids[connection] = cid
            self.conn_names.append(connection)
        return cid

    # -- the piecewise-periodic regime cache --------------------------------------

    def store(
        self,
        sig: tuple,
        delta: dict,
        events: List[tuple],
        cycle: int,
        anchors: Dict[str, Tuple[int, int]],
    ) -> None:
        """Record one proven-steady epoch as a reusable regime template.

        The template is fully rebased: sink event cycles relative to the
        epoch start, sequences relative to the per-connection
        ``anchors`` at the closing boundary, counters as the epoch's
        ``delta`` (``CompiledEngine._epoch_delta``: keyed by link
        position, NI and channel, connection or ledger key, never by
        engine).  Loading re-anchors against whatever absolute state the
        matching boundary presents, so a template recorded before a
        use-case switch replays bit-exactly after switching back.
        """
        cache = self.cache
        key = (self.prefix, sig)
        try:
            cache.move_to_end(key)
            return
        except KeyError:
            pass
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
        cache[key] = (delta, tuple(rebased))
        if len(cache) > REGIME_CACHE_CAPACITY:
            cache.popitem(last=False)
            # A prefix no entry is stored under any more is forgotten.
            kept = {prefix for prefix, _sig in cache}
            prefixes = self.prefixes
            for seen in [k for k, p in prefixes.items() if p not in kept]:
                del prefixes[seen]
        self.kernel.regime_cache_stores += 1

    def load(
        self,
        sig: tuple,
        snap: dict,
        cycle: int,
        anchors: Dict[str, Tuple[int, int]],
    ) -> Optional[Tuple[dict, List[tuple]]]:
        """Rehydrate a cached regime template at a matching boundary.

        Returns ``(delta, events)`` shaped exactly like a live
        two-probe capture: the stored epoch deltas, and the template's
        events re-anchored to the live ``anchors`` and re-timed into the
        epoch ending at ``cycle``.
        """
        cache = self.cache
        key = (self.prefix, sig)
        entry = cache.get(key)
        if entry is None:
            return None
        delta, template = entry
        if not (
            delta["ledger"].keys() <= snap["ledger"].keys()
            and delta["counters"].keys() <= snap["counters"].keys()
        ):
            # A count the template moves that the live ledger or NI
            # lacks (a connection, flow, latency or sequence counter not
            # seen yet) has no boundary value to credit.
            return None
        cache.move_to_end(key)
        intern = self.intern
        start = cycle - self.period
        events: List[tuple] = []
        for cyc, conn, seq, anchored, sink_index in template:
            if anchored:
                anchor = anchors.get(conn)
                if anchor is None:
                    return None
                seq += anchor[0]
            events.append((cyc + start, intern(conn), seq, sink_index))
        self.kernel.regime_cache_hits += 1
        return delta, events

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
