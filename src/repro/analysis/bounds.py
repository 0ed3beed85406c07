"""Analytical QoS guarantees: bandwidth and worst-case latency.

Contention-free TDM gives *hard* per-connection guarantees that can be
computed in closed form — this is what makes daelite usable "for the
timing analysis and verification of real-time applications".  The
simulator's property tests check every measured latency against these
bounds and every delivered bandwidth against the slot arithmetic.
"""

from __future__ import annotations

from typing import FrozenSet, List

from ..alloc.spec import AllocatedChannel
from ..errors import ParameterError
from ..params import NetworkParameters


def slot_gaps(slots: FrozenSet[int], slot_table_size: int) -> List[int]:
    """Distances (in slots) between consecutive owned slots, cyclically.

    Raises:
        ParameterError: if ``slots`` is empty.
    """
    if not slots:
        raise ParameterError("a channel needs at least one slot")
    ordered = sorted(slots)
    gaps = []
    for index, slot in enumerate(ordered):
        following = ordered[(index + 1) % len(ordered)]
        gaps.append((following - slot - 1) % slot_table_size + 1)
    return gaps


def max_scheduling_wait_cycles(
    slots: FrozenSet[int], params: NetworkParameters
) -> int:
    """Worst-case cycles a word waits for its next injection slot.

    A word that *just* missed an owned slot waits the largest inter-slot
    gap; within the wheel the wait is bounded by
    ``max_gap * words_per_slot`` cycles ("packets need to wait for their
    turn before they can be inserted into the network" — the reason the
    paper argues small TDM slots improve scheduling latency).
    """
    return max(slot_gaps(slots, params.slot_table_size)) * (
        params.words_per_slot
    )


def traversal_latency_cycles(hops: int, params: NetworkParameters) -> int:
    """Pure network traversal: ``hop_cycles`` per router plus the final
    NI input stage."""
    if hops < 0:
        raise ParameterError("negative hop count")
    return params.hop_cycles * hops + 1


def extra_link_delay_cycles(
    channel: AllocatedChannel, params: NetworkParameters
) -> int:
    """Cycles added by pipelined/mesochronous link stages: each extra
    slot of link delay holds a word for one full slot."""
    if not channel.link_delays:
        return 0
    return params.words_per_slot * sum(channel.link_delays)


def in_network_latency_cycles(
    channel: AllocatedChannel, params: NetworkParameters
) -> int:
    """Exact link-to-queue latency of *every* word of the channel.

    In a contention-free TDM schedule a word that has been driven onto
    the source NI-router link proceeds deterministically: ``hop_cycles``
    per router, one cycle for the destination NI input stage, plus one
    slot per extra pipeline stage of the pipelined-link extension.
    This is precisely the quantity the statistics collector measures
    (injection is recorded at link drive, ejection at queue deposit),
    so for a fault-free channel the model predicts the simulator
    *bit-for-bit*: ``min_latency == max_latency ==`` this value.
    """
    return traversal_latency_cycles(channel.hops, params) + (
        extra_link_delay_cycles(channel, params)
    )


def injection_pipeline_cycles(params: NetworkParameters) -> int:
    """NI output pipeline depth (decision to link)."""
    return params.words_per_slot


def worst_case_latency_cycles(
    channel: AllocatedChannel, params: NetworkParameters
) -> int:
    """Upper bound on submit-to-delivery latency of one word.

    Scheduling wait + NI output pipeline + in-network latency (which
    includes any extra pipelined-link slots).  Assumes credits are
    available (the destination drains its queue); a starved
    flow-controlled channel waits additionally for the consumer.
    """
    return (
        max_scheduling_wait_cycles(channel.slots, params)
        + injection_pipeline_cycles(params)
        + in_network_latency_cycles(channel, params)
    )


def scheduling_jitter_cycles(
    slots: FrozenSet[int], params: NetworkParameters
) -> int:
    """Worst-case submit-to-delivery jitter of a channel.

    The in-network part of the latency is a constant, so all variation
    comes from the injection side: a word submitted right at its slot
    waits ~0 cycles, a word that just missed waits the largest gap.
    The delivered stream therefore jitters by at most the maximum
    scheduling wait; the *arrival* spacing of a saturated channel
    additionally never exceeds the largest inter-slot gap.
    """
    return max_scheduling_wait_cycles(slots, params)


def guaranteed_bandwidth_words_per_cycle(
    channel: AllocatedChannel, params: NetworkParameters
) -> float:
    """Guaranteed daelite throughput: every owned slot carries a full
    slot of payload words ("daelite has no header overhead")."""
    return len(channel.slots) / params.slot_table_size


def aelite_bandwidth_words_per_cycle(
    channel: AllocatedChannel,
    params: NetworkParameters,
    merged: bool = True,
) -> float:
    """aelite throughput for the same slot allocation.

    One word per owned slot is a header.  With ``merged`` packets,
    consecutive owned slots (up to 3) share one header; otherwise every
    slot pays one ("one header is required at least every 3 slots").
    """
    slots = sorted(channel.slots)
    size = params.slot_table_size
    words = params.words_per_slot
    if not merged:
        payload = len(slots) * (words - 1)
        return payload / (size * words)
    # Split the owned slots into maximal runs of consecutive slots
    # (cyclically), then charge one header per 3 slots of each run.
    runs: List[int] = []
    run = 1
    for index in range(1, len(slots)):
        if (slots[index] - slots[index - 1]) % size == 1:
            run += 1
        else:
            runs.append(run)
            run = 1
    runs.append(run)
    if len(runs) > 1 and (slots[0] - slots[-1]) % size == 1:
        runs[0] += runs.pop()  # wrap-around run
    payload = 0
    for run_length in runs:
        headers = -(-run_length // 3)
        payload += run_length * words - headers
    return payload / (size * words)


def config_slot_bandwidth_loss(params: NetworkParameters) -> float:
    """Fraction of NI-link data bandwidth aelite loses to its reserved
    configuration slot ("for a slot wheel size of 16 this is a 6.25%
    loss"); daelite loses nothing."""
    return 1.0 / params.slot_table_size


def multicast_required_drain_rate(
    slots: FrozenSet[int], params: NetworkParameters
) -> float:
    """Words/cycle every multicast destination must sustain, since the
    credit mechanism is disabled."""
    return len(slots) / params.slot_table_size
