"""Vectorized numpy execution of the compiled flat schedule.

This is the fourth kernel mode (``REPRO_KERNEL_MODE=vector``).  It reuses
the *entire* lowering pipeline of :mod:`repro.sim.compiled` — component
classification, per-phase move maps, the static occupancy walk, steady
period computation — and then lowers the per-phase op tables once more,
into preallocated integer index arrays, so one wheel phase executes as a
handful of fused numpy gathers/scatters over a dense ``(6, R)`` state
matrix instead of a Python loop over a sparse phit dict:

* **State layout** — one int64 column per compiled register, six planes:
  payload, sequence, interned connection id, parity (0 = none, else
  ``parity + 1``), credit bits, and word-valid.  A column is *occupied*
  when the valid or credit plane is non-zero; an all-zero column is an
  idle register.  Connection strings are interned to small ints once per
  compilation (id 0 is reserved for the empty string).
* **Phase lowering** — every op of a phase whose source register is
  statically reachable (per the occupancy walk) becomes one or more
  ``(src, dst)`` index pairs; multicast FORWARD fans out as repeated
  source indices.  Link/router counters become per-op accumulator adds
  folded into the real objects only at flush points, and INJECT /
  ARRIVE ops keep positions so word bookkeeping (stats, channel
  delivery, parity check, credit return) runs scalar on the rare
  occupied entries.  Because the occupancy walk proved every reachable
  ``(register, phase)`` has exactly one consumer and every writer is
  unique, clearing all op sources and scattering the gathered columns
  is collision-free by construction.
* **Epoch replay in bulk** — the same signature/snapshot probing as the
  compiled engine, but materialization re-records the captured epoch's
  events with numpy broadcasting (``k``-major, chronological within
  each epoch) through the stats collector's bulk entry points, shifts
  in-flight words with one masked vector update (parity recomputed via
  an xor fold), and reuses the parent's counter scaling and queue
  shifting verbatim.

Anything the dense encoding cannot represent bit-exactly (payloads or
sequences outside the int64 budget, pre-stamped ``injected_at``,
exotic parity values, non-string connection labels, non-positive
credit words) is refused at import/compile time with a typed
:class:`~repro.sim.kernel.CompileRefusal`, and the provider chain
degrades vector -> compiled -> activity.
"""

from __future__ import annotations

# staticcheck: numpy-hot-path -- int64-closed dense state; see NP rules

import operator
import os
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .compiled import (
    _EV_EJECT,
    _EV_INJECT,
    _EV_SINK,
    _NEVER,
    _OP_ARRIVE,
    _OP_FORWARD,
    _OP_INJECT,
    _OP_MOVE,
    _OP_SEND,
    _PAYLOAD_MASK,
    CompiledEngine,
    compile_network,
)
from .flit import Phit, Word
from .kernel import CompileRefusal
from .stats import FAULT_DETECTED

#: Environment variable: capacity (regimes) of the per-network
#: piecewise-periodic regime cache.  Each entry holds one steady
#: regime's ``(signature, per-epoch deltas, rebased event template)``
#: keyed on (schedule image, traffic roster, signature), so a use-case
#: switch back into a previously observed regime replays at the *first*
#: period boundary instead of re-probing two full epochs.  ``0``
#: disables the cache; malformed values refuse compilation with a typed
#: ``unsupported_params``.
REGIME_CACHE_ENV = "REPRO_REGIME_CACHE"
#: Default regime-cache capacity (one entry per distinct steady regime;
#: use-case campaigns rarely cycle through more than a handful).
REGIME_CACHE_DEFAULT = 8

# State-plane indices of the dense (6, R) register matrix.
_PAY, _SEQ, _CID, _PAR, _CRED, _VAL = range(6)
_PLANES = 6

#: Payloads/sequences/credits must stay strictly below this so every
#: arithmetic shift the replay applies fits in int64 without overflow.
_VALUE_LIMIT = 1 << 62


def _parity64(v: Any) -> Any:
    """Elementwise parity (popcount mod 2) via xor fold."""
    v = v ^ (v >> 32)
    v = v ^ (v >> 16)
    v = v ^ (v >> 8)
    v = v ^ (v >> 4)
    v = v ^ (v >> 2)
    v = v ^ (v >> 1)
    return v & 1


class _PhaseTab:
    """One wheel phase lowered to index arrays.

    ``srcs``/``dsts`` are the movement pairs (multicast expanded);
    ``gsrc`` is ``srcs`` concatenated with the arrival sources so the
    whole phase needs a single gather.  ``lpos``/``fpos``/``ipos`` are
    positions *into the pair list* of link-counter, router-counter and
    injection-record ops; ``clear`` is every op source (movement and
    arrival), i.e. every column that can be occupied this phase.
    """

    __slots__ = (
        "gsrc",
        "dsts",
        "n_mv",
        "lpos",
        "lidx",
        "fpos",
        "fidx",
        "ipos",
        "cpos",
        "n_l",
        "n_f",
        "ameta",
        "clear",
        "acc_p",
        "acc_w",
        "acc_f",
        "empty",
    )

    def __init__(
        self,
        srcs: List[int],
        dsts: List[int],
        lpos: List[int],
        lidx: List[int],
        fpos: List[int],
        fidx: List[int],
        ipos: List[int],
        asrc: List[int],
        ameta: List[tuple],
        clear: List[int],
    ) -> None:
        idx = np.intp
        self.gsrc = np.asarray(srcs + asrc, dtype=idx)
        self.dsts = np.asarray(dsts, dtype=idx)
        self.n_mv = len(srcs)
        self.lpos = np.asarray(lpos, dtype=idx)
        self.lidx = np.asarray(lidx, dtype=idx)
        self.fpos = np.asarray(fpos, dtype=idx)
        self.fidx = np.asarray(fidx, dtype=idx)
        self.ipos = np.asarray(ipos, dtype=idx)
        # One fused gather position list for the three counter/record
        # masks — a single word-occupancy take per phase instead of
        # three (see _apply_tab).
        self.cpos = np.asarray(lpos + fpos + ipos, dtype=idx)
        self.n_l = len(lpos)
        self.n_f = len(fpos)
        self.ameta = tuple(ameta)
        self.clear = np.asarray(clear, dtype=idx)
        self.acc_p = np.zeros(len(lpos), dtype=np.int64)
        self.acc_w = np.zeros(len(lpos), dtype=np.int64)
        self.acc_f = np.zeros(len(fpos), dtype=np.int64)
        self.empty = not (srcs or asrc or clear)


def compile_vector_network(network: Any, token: int) -> Any:
    """Lower ``network`` into a :class:`VectorEngine` (or refuse, typed).

    Runs the full compiled-mode lowering first (inheriting every one of
    its eligibility checks and schedule proofs), then the numpy-specific
    finalization; a refusal at either stage is returned for the provider
    to note before degrading to the compiled interpreter.
    """
    result = compile_network(network, token, engine_cls=VectorEngine)
    if isinstance(result, CompileRefusal):
        return result
    refusal = result.finalize_vector()
    if refusal is not None:
        return refusal
    return result


def _regime_cache_capacity(network: Any) -> Any:
    """Resolve the regime-cache capacity knob (attribute, then env).

    Same contract as the lowering-cache knob: malformed values become a
    typed ``unsupported_params`` refusal, never an escaping exception.
    """
    try:
        value = getattr(network, "regime_cache", None)
        if value is None:
            raw = os.environ.get(REGIME_CACHE_ENV, "").strip()
            if not raw:
                return REGIME_CACHE_DEFAULT
            return max(0, int(raw))
        return max(0, operator.index(value))
    except (TypeError, ValueError, OverflowError) as exc:
        return CompileRefusal(
            CompileRefusal.UNSUPPORTED_PARAMS,
            f"invalid regime-cache setting: {exc}",
        )


class VectorEngine(CompiledEngine):
    """Numpy-lowered executor of the compiled op tables.

    Constructed by :func:`compile_vector_network` through the parent's
    :func:`~repro.sim.compiled.compile_network` (so all schedule proofs
    apply) and then finalized with :meth:`finalize_vector`, which builds
    the dense state matrix and the per-phase index tabs.
    """

    # -- compilation -------------------------------------------------------------

    def finalize_vector(self) -> Optional[CompileRefusal]:
        """Build the numpy lowering; a refusal falls back to compiled."""
        # Trace generators inject their payloads verbatim; validate the
        # not-yet-injected tail once, at compile time, so the hot loop
        # never has to range-check an encode.
        for gen in self.trace_gens:
            for _cycle, payload in gen.trace[gen._index :]:
                if not isinstance(payload, int) or not (
                    0 <= payload < _VALUE_LIMIT
                ):
                    return CompileRefusal(
                        CompileRefusal.UNSUPPORTED_PARAMS,
                        f"trace generator {gen.name!r} payload "
                        f"{payload!r} is outside the vector int64 range",
                    )
        self._conn_ids: Dict[str, int] = {}
        self._conn_names: List[str] = []
        self._intern("")  # id 0 <=> "no word" in a zeroed column
        self._links = list(self.network.links.values())
        self._link_index = {
            id(link): i for i, link in enumerate(self._links)
        }
        self._routers = list(self.network.routers.values())
        self._router_index = {
            id(router): i for i, router in enumerate(self._routers)
        }
        self._scratch_lp = np.zeros(len(self._links), dtype=np.int64)
        self._scratch_lw = np.zeros(len(self._links), dtype=np.int64)
        self._scratch_fw = np.zeros(len(self._routers), dtype=np.int64)

        self._state = np.zeros((_PLANES, len(self.regs)), dtype=np.int64)
        self._tabs = [
            self._lower_phase(phase) for phase in range(self.wheel)
        ]
        capacity = _regime_cache_capacity(self.network)
        if isinstance(capacity, CompileRefusal):
            return capacity
        self._regime_capacity = capacity
        self._regime_cache: Optional[OrderedDict] = None
        if capacity > 0 and self.replay_ok:
            cache = getattr(self.network, "_vector_regime_cache", None)
            if cache is None:
                cache = OrderedDict()
                self.network._vector_regime_cache = cache
            self._regime_cache = cache
        self._regime_roster = self._roster_key()
        # Probe state carried across run_to calls (see run_to).
        self._probe_sig: Any = None
        self._probe_snap: Any = None
        self._probe_events: Optional[List[tuple]] = None
        self._probe_cycle = -1
        self._probe_end = -1
        return None

    def _roster_key(self) -> tuple:
        """Hashable identity of the traffic roster driving this engine.

        A cached regime is only replayable when the *same* generator
        and sink structure (types, periods, budgets, endpoints, roster
        order) surrounds the matching signature: the per-epoch delta
        vectors and the event template's sink indices are positional in
        this roster.
        """
        gens_key = []
        for gen in self.gens:
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
                checking,
                sink.words_per_cycle,
            )
            for sink, ni, channel, sink_period, checking in self.sinks
        ]
        return (tuple(gens_key), tuple(sinks_key), self.period)

    def _intern(self, connection: str) -> int:
        cid = self._conn_ids.get(connection)
        if cid is None:
            cid = len(self._conn_names)
            self._conn_ids[connection] = cid
            self._conn_names.append(connection)
        return cid

    def _lower_phase(self, phase: int) -> _PhaseTab:
        """One phase's move map -> index arrays (occupancy-pruned)."""
        occupancy = self.occupancy
        link_index = self._link_index
        router_index = self._router_index
        srcs: List[int] = []
        dsts: List[int] = []
        lpos: List[int] = []
        lidx: List[int] = []
        fpos: List[int] = []
        fidx: List[int] = []
        ipos: List[int] = []
        asrc: List[int] = []
        ameta: List[tuple] = []
        clear: List[int] = []
        for rid, op in sorted(self.move_map[phase].items()):
            if not (occupancy[rid] >> phase) & 1:
                continue  # statically unreachable: prune
            clear.append(rid)
            tag = op[0]
            if tag == _OP_ARRIVE:
                asrc.append(rid)
                ameta.append((op[1], op[2]))
            elif tag == _OP_MOVE:
                srcs.append(rid)
                dsts.append(op[1])
            elif tag == _OP_SEND:
                lpos.append(len(srcs))
                lidx.append(link_index[id(op[2])])
                srcs.append(rid)
                dsts.append(op[1])
            elif tag == _OP_INJECT:
                lpos.append(len(srcs))
                lidx.append(link_index[id(op[2])])
                ipos.append(len(srcs))
                srcs.append(rid)
                dsts.append(op[1])
            else:  # _OP_FORWARD
                ridx = router_index[id(op[2])]
                for dst in op[1]:
                    fpos.append(len(srcs))
                    fidx.append(ridx)
                    srcs.append(rid)
                    dsts.append(dst)
        # The occupancy walk already refused any (register, phase) with
        # two reachable writers, so the scatter targets are unique.
        assert len(set(dsts)) == len(dsts), (
            f"duplicate scatter destination in wheel phase {phase}"
        )
        return _PhaseTab(
            srcs, dsts, lpos, lidx, fpos, fidx, ipos, asrc, ameta, clear
        )

    # -- state import / export ---------------------------------------------------

    @staticmethod
    def _word_reason(word: Word) -> Optional[str]:
        """Why ``word`` cannot live in the dense int64 encoding."""
        payload = word.payload
        if not isinstance(payload, int) or not (
            0 <= payload < _VALUE_LIMIT
        ):
            return f"has payload {payload!r} outside the int64 budget"
        if not (-_VALUE_LIMIT < word.sequence < _VALUE_LIMIT):
            return f"has sequence {word.sequence!r} outside int64"
        if word.injected_at != -1:
            return "carries a pre-stamped injected_at"
        if word.parity not in (None, 0, 1):
            return f"has non-binary parity {word.parity!r}"
        if not isinstance(word.connection, str):
            return f"has non-string connection {word.connection!r}"
        return None

    def _phit_reason(self, phit: Phit) -> Optional[str]:
        if phit.word is not None:
            reason = self._word_reason(phit.word)
            if reason:
                return reason
        credits = phit.credit_bits
        if credits is not None and (
            not isinstance(credits, int)
            or not (0 < credits < _VALUE_LIMIT)
        ):
            return f"has non-positive credit word {credits!r}"
        return None

    def _import_state(self, cycle: int) -> Optional[CompileRefusal]:
        refusal = self._import_registers(cycle)
        if refusal is not None:
            return refusal
        for rid, phit in self._cur.items():
            reason = self._phit_reason(phit)
            if reason:
                return CompileRefusal(
                    CompileRefusal.UNSUPPORTED_PARAMS,
                    f"in-flight phit in {self.regs[rid].name!r} {reason}",
                )
        # Queued words reach the dense encoding (source queues) or the
        # replay event arrays (dest queues): both need the same budget.
        for ni in self.nis_list:
            for group, channels in (
                ("source", ni.source_channels),
                ("dest", ni.dest_channels),
            ):
                for channel, chan in channels.items():
                    for word in chan.queue:
                        reason = self._word_reason(word)
                        if reason:
                            return CompileRefusal(
                                CompileRefusal.UNSUPPORTED_PARAMS,
                                f"queued word in {ni.name} {group} "
                                f"ch{channel} {reason}",
                            )
        state = self._state
        state[:] = 0
        for rid, phit in self._cur.items():
            col = state[:, rid]
            word = phit.word
            if word is not None:
                col[_PAY] = word.payload
                col[_SEQ] = word.sequence
                col[_CID] = self._intern(word.connection)
                col[_PAR] = 0 if word.parity is None else word.parity + 1
                col[_VAL] = 1
            if phit.credit_bits is not None:
                col[_CRED] = phit.credit_bits
        return None

    def _cur_dict(self) -> Dict[int, Phit]:
        """Decode the dense state back into the parent's sparse form."""
        state = self._state
        occ = (state[_VAL] != 0) | (state[_CRED] != 0)
        names = self._conn_names
        cur: Dict[int, Phit] = {}
        for rid in np.nonzero(occ)[0].tolist():
            col = state[:, rid]
            word = None
            if col[_VAL]:
                par = int(col[_PAR])
                word = Word(
                    payload=int(col[_PAY]),
                    connection=names[int(col[_CID])],
                    sequence=int(col[_SEQ]),
                    parity=None if par == 0 else par - 1,
                )
            credits = int(col[_CRED])
            cur[rid] = Phit(word=word, credit_bits=credits or None)
        return cur

    def _export_state(self) -> None:
        self._cur = self._cur_dict()
        self._export_registers()

    # -- per-phase execution -----------------------------------------------------

    def _apply_tab(
        self,
        tab: _PhaseTab,
        vals: Any,
        cycle: int,
        events: Optional[List[tuple]],
    ) -> None:
        """Counters, clear, scatter, records and arrivals of one tab.

        ``vals`` is the (copied) gather of ``tab.gsrc`` taken *before*
        any column owned by this phase was cleared.
        """
        state = self._state
        n_mv = tab.n_mv
        mv = vals[:, :n_mv]
        wocc = mv[_VAL] != 0
        nl = tab.n_l
        nf = tab.n_f
        if tab.cpos.size:
            cg = wocc.take(tab.cpos)
            if nl:
                wl = cg[:nl]
                tab.acc_w += wl
                tab.acc_p += wl | (mv[_CRED].take(tab.lpos) != 0)
            if nf:
                tab.acc_f += cg[nl : nl + nf]
        if tab.clear.size:
            state[:, tab.clear] = 0
        if n_mv:
            state[:, tab.dsts] = mv
        if tab.ipos.size:
            hits = tab.ipos[cg[nl + nf :]]
            if hits.size:
                stats = self.stats
                names = self._conn_names
                for pos in hits.tolist():
                    cid = int(mv[_CID, pos])
                    seq = int(mv[_SEQ, pos])
                    stats.bulk_record_injections(
                        names[cid], (seq,), (cycle,)
                    )
                    if events is not None:
                        events.append((_EV_INJECT, cycle, cid, seq))
        if tab.ameta:
            av = vals[:, n_mv:]
            hot = np.nonzero((av[_VAL] | av[_CRED]) != 0)[0]
            if hot.size:
                for j in hot.tolist():
                    self._arrive(tab.ameta[j], av[:, j], cycle, events)

    def _arrive(
        self,
        meta: tuple,
        col: Any,
        cycle: int,
        events: Optional[List[tuple]],
    ) -> None:
        """Scalar arrival: delivery, parity check, credits (rare)."""
        ni, channel = meta
        dest = ni.dest_channel(channel)
        if col[_VAL]:
            cid = int(col[_CID])
            seq = int(col[_SEQ])
            par = int(col[_PAR])
            word = Word(
                payload=int(col[_PAY]),
                connection=self._conn_names[cid],
                sequence=seq,
                parity=None if par == 0 else par - 1,
            )
            if word.parity_ok:
                dest.deliver(word)
                self.stats.record_ejection(
                    word, cycle, destination=ni.name
                )
                if events is not None:
                    events.append((_EV_EJECT, cycle, cid, seq, ni.name))
            else:
                ni.dropped_words += 1
                self.stats.record_fault(
                    cycle,
                    FAULT_DETECTED,
                    "parity_error",
                    ni.name,
                    f"ch{channel}: {word!r}",
                )
        credits = int(col[_CRED])
        if credits:
            ni._credit_paired_source(dest, credits)

    # -- counter flush -----------------------------------------------------------

    def _flush_counters(self) -> None:
        """Fold the accumulator arrays into the live link/router objects."""
        lp = self._scratch_lp
        lw = self._scratch_lw
        fw = self._scratch_fw
        lp[:] = 0
        lw[:] = 0
        fw[:] = 0
        for tab in self._tabs:
            if tab.lidx.size:
                np.add.at(lp, tab.lidx, tab.acc_p)
                np.add.at(lw, tab.lidx, tab.acc_w)
                tab.acc_p[:] = 0
                tab.acc_w[:] = 0
            if tab.fidx.size:
                np.add.at(fw, tab.fidx, tab.acc_f)
                tab.acc_f[:] = 0
        links = self._links
        for i in np.nonzero(lp)[0].tolist():
            links[i].phits_carried += int(lp[i])
        for i in np.nonzero(lw)[0].tolist():
            links[i].words_carried += int(lw[i])
        routers = self._routers
        for i in np.nonzero(fw)[0].tolist():
            routers[i].forwarded_words += int(fw[i])

    # -- dense signatures and the piecewise-periodic regime cache -----------------

    def _signature_dense(self, cycle: int) -> tuple:
        """Shift-invariant signature read off the dense state matrix.

        The register part lists the occupied columns in ascending
        register id — entry for entry the sorted flat part
        :meth:`CompiledEngine._signature` builds from the sparse phit
        dict.  Words are identified by connection *name* (never the
        engine-local interned id), which keeps signatures comparable
        across engine incarnations — the property the regime cache
        keys on.
        """
        base = self._sig_anchors()
        rel = self._sig_rel(base)
        names = self._conn_names
        conn_ids = self._conn_ids
        n = len(names)
        seq_anchor = [0] * n
        pay_anchor = [0] * n
        anchored = [False] * n
        for conn, (s, p) in base.items():
            cid = conn_ids.get(conn)
            if cid is not None:
                seq_anchor[cid] = s
                pay_anchor[cid] = p
                anchored[cid] = True
        state = self._state
        occ = (state[_VAL] != 0) | (state[_CRED] != 0)
        entries: List[tuple] = []
        for rid in np.nonzero(occ)[0].tolist():
            col = state[:, rid]
            word_part: Optional[tuple] = None
            if col[_VAL]:
                cid = int(col[_CID])
                if anchored[cid]:
                    word_part = (
                        names[cid],
                        int(col[_SEQ]) - seq_anchor[cid],
                        (int(col[_PAY]) - pay_anchor[cid]) & _PAYLOAD_MASK,
                        None,
                        True,
                    )
                else:
                    par = int(col[_PAR])
                    word_part = (
                        names[cid],
                        int(col[_SEQ]),
                        int(col[_PAY]),
                        None if par == 0 else par - 1,
                        False,
                    )
            credits = int(col[_CRED]) or None
            entries.append((rid, word_part, credits))
        return (tuple(entries),) + self._sig_env(cycle, base, rel)

    def _regime_store(
        self,
        sig: tuple,
        before: dict,
        after: dict,
        events: List[tuple],
        cycle: int,
    ) -> None:
        """Record one proven-steady epoch as a reusable regime template.

        The template is fully rebased: event cycles relative to the
        epoch start, sequences/payloads relative to the per-connection
        anchors at the closing boundary, counter values as per-epoch
        deltas.  Loading re-anchors against whatever absolute state the
        matching boundary presents, so a template recorded before a
        use-case switch replays bit-exactly after switching back.
        """
        cache = self._regime_cache
        if cache is None:
            return
        key = (self.schedule_image, self._regime_roster, sig)
        if key in cache:
            cache.move_to_end(key)
            return
        base = self._sig_anchors()
        names = self._conn_names
        start = cycle - self.period
        rebased: List[tuple] = []
        for event in events:
            tag = event[0]
            rcyc = event[1] - start
            conn = names[event[2]]
            anchor = base.get(conn)
            anch = anchor is not None
            if tag == _EV_INJECT:
                seq = event[3] - anchor[0] if anch else event[3]
                rebased.append((tag, rcyc, conn, seq, anch))
            elif tag == _EV_EJECT:
                seq = event[3] - anchor[0] if anch else event[3]
                rebased.append((tag, rcyc, conn, seq, anch, event[4]))
            else:  # _EV_SINK
                seq = event[3] - anchor[0] if anch else event[3]
                pay = (
                    (event[4] - anchor[1]) & _PAYLOAD_MASK
                    if anch
                    else event[4]
                )
                rebased.append(
                    (tag, rcyc, conn, seq, pay, anch, event[5])
                )
        cache[key] = {
            "chan_keys": after["chan_keys"],
            "fixed_delta": [
                a - b for a, b in zip(after["fixed"], before["fixed"])
            ],
            "chan_delta": [
                a - b
                for a, b in zip(after["chan_vals"], before["chan_vals"])
            ],
            "seq_delta": {
                conn: after["seqs"][conn] - before["seqs"].get(conn, 0)
                for conn in after["seqs"]
            },
            "gw_delta": [
                a - b
                for a, b in zip(after["gen_words"], before["gen_words"])
            ],
            "gb_delta": [
                a - b
                for a, b in zip(
                    after["gen_bursts"], before["gen_bursts"]
                )
            ],
            "events": tuple(rebased),
        }
        cache.move_to_end(key)
        while len(cache) > self._regime_capacity:
            cache.popitem(last=False)
        self.kernel.regime_cache_stores += 1

    def _regime_load(
        self, sig: tuple, snap: dict, cycle: int
    ) -> Optional[Tuple[dict, List[tuple]]]:
        """Rehydrate a cached regime template at a matching boundary.

        Returns ``(before, events)`` shaped exactly like a live
        two-probe capture: ``before`` is the current snapshot minus the
        stored per-epoch deltas (so ``_deltas_clean`` holds by
        construction and ``_replay_horizon``/``_materialize_vec`` apply
        unchanged), and ``events`` are the template's events re-anchored
        to the live sequence counters and re-timed into the epoch
        ending at ``cycle``.
        """
        cache = self._regime_cache
        if cache is None:
            return None
        key = (self.schedule_image, self._regime_roster, sig)
        entry = cache.get(key)
        if entry is None or entry["chan_keys"] != snap["chan_keys"]:
            return None
        cache.move_to_end(key)
        base = self._sig_anchors()
        intern = self._intern
        start = cycle - self.period
        events: List[tuple] = []
        for ev in entry["events"]:
            tag = ev[0]
            cyc = ev[1] + start
            conn = ev[2]
            anchor = base.get(conn)
            if tag == _EV_INJECT:
                seq = ev[3]
                if ev[4]:
                    if anchor is None:
                        return None
                    seq += anchor[0]
                events.append((tag, cyc, intern(conn), seq))
            elif tag == _EV_EJECT:
                seq = ev[3]
                if ev[4]:
                    if anchor is None:
                        return None
                    seq += anchor[0]
                events.append((tag, cyc, intern(conn), seq, ev[5]))
            else:  # _EV_SINK
                seq = ev[3]
                pay = ev[4]
                if ev[5]:
                    if anchor is None:
                        return None
                    seq += anchor[0]
                    pay = (pay + anchor[1]) & _PAYLOAD_MASK
                events.append(
                    (tag, cyc, intern(conn), seq, pay, ev[6])
                )
        before = {
            "fixed": [
                now - d
                for now, d in zip(snap["fixed"], entry["fixed_delta"])
            ],
            "chan_keys": snap["chan_keys"],
            "chan_vals": [
                now - d
                for now, d in zip(
                    snap["chan_vals"], entry["chan_delta"]
                )
            ],
            "seqs": {
                conn: snap["seqs"][conn]
                - entry["seq_delta"].get(conn, 0)
                for conn in snap["seqs"]
            },
            "gen_words": [
                now - d
                for now, d in zip(snap["gen_words"], entry["gw_delta"])
            ],
            "gen_bursts": [
                now - d
                for now, d in zip(
                    snap["gen_bursts"], entry["gb_delta"]
                )
            ],
            "faults": snap["faults"],
            "dropped": snap["dropped"],
            "findings": snap["findings"],
        }
        return before, events

    # -- execution ---------------------------------------------------------------

    def run_to(self, end: int) -> Optional[CompileRefusal]:
        """Advance to ``end``; mirrors the parent's loop structure with
        the dense data plane and bulk replay materialization."""
        kernel = self.kernel
        cycle = kernel.cycle
        if cycle >= end:
            return None
        refusal = self._import_state(cycle)
        if refusal is not None:
            return refusal
        self._note_aperiodic()

        state = self._state
        tabs = self._tabs
        wheel = self.wheel
        credit_cap = self.credit_cap
        gens = self.gens
        intern = self._intern

        # Resolve loop-invariant channel lookups once per run: the
        # compiled configuration is frozen for the duration of a run
        # (config traffic raises a refusal long before this point), so
        # source/dest channel membership cannot change mid-run.
        inj_res: List[List[tuple]] = []
        for ops in self.inj_ops:
            res = []
            for ni, channel, stage_rid, collect in ops:
                source = ni.source_channels.get(channel)
                if source is None:
                    continue
                dest = None
                if collect and source.paired_arrival is not None:
                    dest = ni.dest_channels.get(source.paired_arrival)
                res.append((source, stage_rid, dest))
            inj_res.append(res)
        sink_res = [
            (
                sink,
                ni.dest_channels.get(channel),
                sink_period,
                checking,
                sink_index,
            )
            for sink_index, (
                sink,
                ni,
                channel,
                sink_period,
                checking,
            ) in enumerate(self.sinks)
        ]

        gen_next: List[int] = []
        gen_due = _NEVER
        for gen in gens:
            nxt = gen.next_evaluation(cycle)
            fire = _NEVER if nxt is None else nxt
            gen_next.append(fire)
            if fire < gen_due:
                gen_due = fire

        period = self.period
        replay_ok = self.replay_ok
        events: Optional[List[tuple]] = [] if replay_ok else None
        prev_sig: Any = None
        prev_snap: Any = None
        next_boundary = (
            cycle + (-cycle) % period if replay_ok else _NEVER
        )
        # Resume the probe carried over from the previous run: if that
        # run ended mid-epoch with a boundary signature in hand and we
        # restart at the exact cycle it stopped, keep its signature and
        # partial event recording so the very next boundary can already
        # replay.  Any external mutation in between changes the next
        # boundary signature and simply fails the comparison.
        if (
            replay_ok
            and self._probe_sig is not None
            and self._probe_end == cycle
            and self._probe_cycle == next_boundary - period
        ):
            prev_sig = self._probe_sig
            prev_snap = self._probe_snap
            events = self._probe_events
        self._probe_sig = None
        stepped = 0
        replayed_epochs = 0
        replayed_cycles = 0
        clean_exit = False

        try:
            while cycle < end:
                if cycle == next_boundary:
                    assert events is not None
                    if any(not gen.done for gen in self.trace_gens):
                        prev_sig = None
                        prev_snap = None
                    else:
                        self._flush_counters()
                        sig = self._signature_dense(cycle)
                        snap = self._snapshot(cycle)
                        replay: Any = None
                        if prev_sig is not None and sig == prev_sig:
                            if self._deltas_clean(prev_snap, snap):
                                replay = (prev_snap, events)
                                self._regime_store(
                                    sig, prev_snap, snap, events, cycle
                                )
                        else:
                            if prev_sig is not None:
                                # The steady rhythm broke: whatever
                                # replays next opens a new segment.
                                self._regime_open = False
                            loaded = self._regime_load(sig, snap, cycle)
                            if loaded is not None:
                                replay = loaded
                                kernel.regime_cache_hits += 1
                        if replay is not None:
                            before_r, epoch_events = replay
                            epochs = (end - cycle) // period
                            epochs = min(
                                epochs,
                                self._replay_horizon(before_r, snap),
                            )
                            if epochs >= 1:
                                if not self._regime_open:
                                    self._regime_open = True
                                    kernel.regimes_detected += 1
                                self._materialize_vec(
                                    epochs, before_r, snap, epoch_events
                                )
                                cycle += epochs * period
                                replayed_epochs += epochs
                                replayed_cycles += epochs * period
                                # The landing state is the epoch state
                                # shifted by `epochs` periods, and the
                                # signature is shift-invariant (that is
                                # what matching across one period just
                                # proved), so stay armed: re-snapshot
                                # here and the next boundary can replay
                                # again without re-probing a full epoch.
                                prev_sig = sig
                                prev_snap = self._snapshot(cycle)
                                events.clear()
                                next_boundary = cycle + period
                                gen_due = _NEVER
                                for i, gen in enumerate(gens):
                                    nxt = gen.next_evaluation(cycle)
                                    fire = (
                                        _NEVER if nxt is None else nxt
                                    )
                                    gen_next[i] = fire
                                    if fire < gen_due:
                                        gen_due = fire
                                continue
                        prev_sig = sig
                        prev_snap = snap
                    events.clear()
                    next_boundary = cycle + period

                phase = cycle % wheel
                tab = tabs[phase]
                if not tab.empty:
                    self._apply_tab(
                        tab, state.take(tab.gsrc, axis=1), cycle, events
                    )

                for source, stage_rid, dest in inj_res[phase]:
                    word = (
                        source.take_word() if source.can_send() else None
                    )
                    credits = None
                    if dest is not None and dest.pending_credits:
                        credits = (
                            dest.take_pending_credits(credit_cap) or None
                        )
                    if word is not None or credits:
                        col = state[:, stage_rid]
                        if word is not None:
                            col[_PAY] = word.payload
                            col[_SEQ] = word.sequence
                            col[_CID] = intern(word.connection)
                            col[_PAR] = (
                                0
                                if word.parity is None
                                else word.parity + 1
                            )
                            col[_VAL] = 1
                        if credits:
                            col[_CRED] = credits

                if cycle == gen_due:
                    gen_due = _NEVER
                    for i, gen in enumerate(gens):
                        fire = gen_next[i]
                        if fire == cycle:
                            gen.evaluate(cycle)
                            nxt = gen.next_evaluation(cycle + 1)
                            fire = _NEVER if nxt is None else nxt
                            gen_next[i] = fire
                        if fire < gen_due:
                            gen_due = fire

                for sink, dest, sink_period, checking, sink_index in (
                    sink_res
                ):
                    if dest is None or not dest.queue:
                        continue
                    if cycle < sink.start_cycle:
                        continue
                    if sink_period and cycle % sink_period:
                        continue
                    for word in dest.drain(sink.words_per_cycle):
                        self._consume(sink, checking, cycle, word)
                        if events is not None:
                            events.append(
                                (
                                    _EV_SINK,
                                    cycle,
                                    intern(word.connection),
                                    word.sequence,
                                    word.payload,
                                    sink_index,
                                )
                            )

                cycle += 1
                stepped += 1
            clean_exit = True
        finally:
            if clean_exit and replay_ok and prev_sig is not None:
                self._probe_sig = prev_sig
                self._probe_snap = prev_snap
                self._probe_events = events
                self._probe_cycle = next_boundary - period
                self._probe_end = cycle
            self._flush_counters()
            self._export_state()
            kernel.cycle = cycle
            kernel.compiled_cycles += stepped + replayed_cycles
            kernel.replayed_epochs += replayed_epochs
            kernel.replayed_cycles += replayed_cycles
            kernel._watchers = None
        return None

    # -- bulk epoch replay -------------------------------------------------------

    def _materialize_vec(
        self,
        epochs: int,
        before: dict,
        after: dict,
        events: List[tuple],
    ) -> None:
        """Apply ``epochs`` steady epochs with numpy broadcasting.

        Event streams are re-recorded k-major (all epochs of one
        connection at once) through the stats collector's bulk entry
        points; within each per-connection (and per-sink) stream this
        reproduces exactly the order the parent's k-outer loop would
        produce, and across streams only dict iteration order differs —
        which no comparable state (per-connection latency lists, keyed
        records, received streams) can observe.  Injections land before
        ejections so every replayed ejection finds its record.
        """
        period = self.period
        stats = self.stats
        names = self._conn_names
        deltas = {
            conn: after["seqs"][conn] - before["seqs"][conn]
            for conn in after["seqs"]
        }
        dvec = np.zeros(len(names), dtype=np.int64)
        for conn, delta in deltas.items():
            cid = self._conn_ids.get(conn)
            if cid is not None:
                dvec[cid] = delta
        ks = np.arange(1, epochs + 1, dtype=np.int64)
        kcyc = ks * period  # per-epoch cycle offsets

        inj_by_cid: Dict[int, List[tuple]] = {}
        ej_by_cid: Dict[int, List[tuple]] = {}
        sink_by_idx: Dict[int, List[tuple]] = {}
        for event in events:
            tag = event[0]
            if tag == _EV_INJECT:
                _t, cyc, cid, seq = event
                inj_by_cid.setdefault(cid, []).append((cyc, seq))
            elif tag == _EV_EJECT:
                _t, cyc, cid, seq, dest = event
                ej_by_cid.setdefault(cid, []).append((cyc, seq, dest))
            else:
                _t, cyc, cid, seq, pay, idx = event
                sink_by_idx.setdefault(idx, []).append(
                    (cyc, pay, cid, seq)
                )

        # Per-cid injection records, kept when the flattened run is one
        # +1-consecutive stream: (first sequence, [WordRecord, ...]) —
        # the matching ejections then index this list instead of paying
        # a records-dict lookup per event.
        created: Dict[int, tuple] = {}
        for cid, evs in inj_by_cid.items():
            delta = int(dvec[cid])
            cyc = np.asarray([e[0] for e in evs], dtype=np.int64)
            seq = np.asarray([e[1] for e in evs], dtype=np.int64)
            all_seq = (
                (seq[None, :] + (ks * delta)[:, None]).ravel().tolist()
            )
            inj_cyc = (cyc[None, :] + kcyc[:, None]).ravel()
            made = stats.bulk_record_injections(
                names[cid], all_seq, inj_cyc.tolist()
            )
            if (
                made is not None
                and bool(np.all(seq[1:] - seq[:-1] == 1))
                and int(seq[0]) + delta == int(seq[-1]) + 1
            ):
                created[cid] = (all_seq[0], made, inj_cyc)

        records = stats._records
        for cid, evs in ej_by_cid.items():
            delta = int(dvec[cid])
            conn = names[cid]
            dests = {e[2] for e in evs}
            if len(dests) == 1:
                cyc = np.asarray([e[0] for e in evs], dtype=np.int64)
                seq = np.asarray([e[1] for e in evs], dtype=np.int64)
                # The flattened k-major run is one +1-consecutive stream
                # iff the base epoch is consecutive and each epoch chains
                # into the next (first + delta == last + 1); proving it
                # here lets stats skip its per-event order/gap checks.
                chained = bool(
                    np.all(seq[1:] - seq[:-1] == 1)
                ) and int(seq[0]) + delta == int(seq[-1]) + 1
                all_seq = (
                    (seq[None, :] + (ks * delta)[:, None])
                    .ravel()
                    .tolist()
                )
                ej_cyc = (cyc[None, :] + kcyc[:, None]).ravel()
                found = None
                lat_hint = None
                if chained and cid in created:
                    # Ejections trail injections by the in-flight words
                    # at the epoch boundary: those few leading records
                    # predate this batch and come from the dict, the
                    # rest are the records just created above.  With
                    # both cycle streams in hand the latency column is
                    # one vector subtraction.
                    first_inj, made, inj_cyc = created[cid]
                    e0, e1 = all_seq[0], all_seq[-1]
                    if e1 >= first_inj and e1 - first_inj < len(made):
                        n_old = max(0, min(first_inj, e1 + 1) - e0)
                        try:
                            old = [
                                records[(conn, s)]
                                for s in range(e0, e0 + n_old)
                            ]
                        except KeyError:
                            old = None
                        if old is not None:
                            lo = max(0, e0 - first_inj)
                            found = old + made[lo : e1 - first_inj + 1]
                            lat_hint = [
                                int(c) - r.injected_at
                                for r, c in zip(old, ej_cyc[:n_old])
                            ] + (
                                ej_cyc[n_old:]
                                - inj_cyc[lo : e1 - first_inj + 1]
                            ).tolist()
                stats.bulk_record_ejections(
                    conn,
                    evs[0][2],
                    all_seq,
                    ej_cyc.tolist(),
                    consecutive=chained,
                    found=found,
                    deltas=lat_hint,
                )
            else:
                # Multicast: per-destination streams interleave inside
                # one epoch; keep the parent's exact chronological
                # k-outer order so per-flow checks see the same stream.
                for k in range(1, epochs + 1):
                    off_s = k * delta
                    off_c = k * period
                    for cyc_e, seq_e, dest in evs:
                        stats.bulk_record_ejections(
                            conn,
                            dest,
                            (seq_e + off_s,),
                            (cyc_e + off_c,),
                        )

        for idx, evs in sink_by_idx.items():
            sink, _ni, _ch, _p, checking = self.sinks[idx]
            cyc = np.asarray([e[0] for e in evs], dtype=np.int64)
            pay = np.asarray([e[1] for e in evs], dtype=np.int64)
            cids = np.asarray([e[2] for e in evs], dtype=np.intp)
            de = dvec[cids]
            all_cyc = (cyc[None, :] + kcyc[:, None]).ravel()
            shifted = pay[None, :] + ks[:, None] * de[None, :]
            # Parent semantics: payloads are wrapped only when shifted.
            all_pay = np.where(
                de[None, :] != 0, shifted & _PAYLOAD_MASK, shifted
            ).ravel()
            sink.received.extend(
                zip(all_cyc.tolist(), all_pay.tolist())
            )
            if checking:
                self._replay_checking(sink, evs, dvec, epochs)

        self._scale_counters(epochs, before, after)
        self._shift_state(dvec, epochs)
        self._shift_queues(deltas, epochs)

    def _replay_checking(
        self,
        sink: Any,
        evs: List[tuple],
        dvec: Any,
        epochs: int,
    ) -> None:
        """Replay a CheckingSink's sequence bookkeeping.

        Fast path: every connection's epoch stream is consecutive,
        matches the sink's last-seen counter, and the per-epoch shift
        equals the stream length — then the whole replay provably
        produces no findings and only advances ``_last_seq``.  Anything
        else falls back to the exact scalar walk the parent performs
        (chronological within each epoch, across connections).
        """
        names = self._conn_names
        streams: Dict[int, List[int]] = {}
        for _cyc, _pay, cid, seq in evs:
            if cid and seq >= 0:
                streams.setdefault(cid, []).append(seq)
        fast = True
        for cid, seqs in streams.items():
            delta = int(dvec[cid])
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
                delta = int(dvec[cid])
                sink._last_seq[names[cid]] = (
                    seqs[-1] + epochs * delta
                )
            return
        period = self.period
        for k in range(1, epochs + 1):
            off_c = k * period
            for cyc, _pay, cid, seq in evs:
                if not cid or seq < 0:
                    continue
                conn = names[cid]
                sq = seq + k * int(dvec[cid])
                at = cyc + off_c
                last = sink._last_seq.get(conn)
                expected = 0 if last is None else last + 1
                if sq > expected:
                    sink._record(
                        at,
                        "e2e_gap",
                        f"{conn}: expected seq {expected}, got {sq}",
                    )
                elif sq < expected:
                    sink._record(
                        at,
                        "e2e_out_of_order",
                        f"{conn}: expected seq {expected}, got {sq}",
                    )
                sink._last_seq[conn] = sq

    def _shift_state(self, dvec: Any, epochs: int) -> None:
        """Rewrite in-flight words to their post-replay identities."""
        state = self._state
        dd = dvec[state[_CID]] * (state[_VAL] != 0)
        mask = dd != 0
        if not mask.any():
            return
        shift = dd[mask] * epochs
        pay = (state[_PAY][mask] + shift) & _PAYLOAD_MASK
        state[_PAY][mask] = pay
        state[_SEQ][mask] += shift
        # The parent's shifted() stamps parity unconditionally.
        state[_PAR][mask] = _parity64(pay) + 1
