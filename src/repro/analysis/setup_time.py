"""Connection set-up time analysis — the substrate behind Table III.

Table III reports "the number of cycles required to set up one connection
(request and response path)".  For daelite "the set-up time is dependent
on path length but not on the number of slots used by the connection";
the ideal value "is computed analytically from the number of
configuration words that are being written in each case to which the
cool-down latency was added".  For aelite the set-up time "depends on
multiple factors: distance from configuration node to the source node
and to the destination node, number of slots used by the connection".

This module provides the analytic daelite formula (checked against the
cycle simulator by the tests) and the Table III row generator combining
simulated daelite measurements with the aelite configuration model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..params import NetworkParameters
from ..topology import CONFIG_HOP_CYCLES, ConfigTree


def path_packet_words(hops: int, params: NetworkParameters) -> int:
    """Words of one path set-up packet: header, slot mask, one
    (element, data) pair per element of the path."""
    mask_words = -(
        -params.slot_table_size // params.config_word_bits
    )
    elements = hops + 2  # the two NIs plus the routers
    return 1 + mask_words + 2 * elements


def ideal_setup_cycles(
    hops: int,
    params: NetworkParameters,
    tree: Optional[ConfigTree] = None,
    tree_depth: Optional[int] = None,
    packets: int = 2,
) -> int:
    """Analytic daelite set-up time for ``packets`` path packets.

    Transmission of the words (one per cycle), the propagation of the
    end-of-packet gap to the deepest tree node, and the cool-down —
    independent of the number of slots, exactly the paper's claim.

    Either ``tree`` or ``tree_depth`` supplies the broadcast depth.
    """
    depth = tree.max_depth if tree is not None else (tree_depth or 0)
    per_packet_overhead = CONFIG_HOP_CYCLES * depth + 1 + (
        params.cooldown_cycles
    )
    words = path_packet_words(hops, params)
    return packets * (words + per_packet_overhead)


@dataclass(frozen=True)
class SetupTimeRow:
    """One row of the Table III reproduction."""

    network: str
    scenario: str
    hops: int
    slots: int
    cycles: int
    flavor: str  # "ideal" (analytic) or "measured" (simulated/modelled)


def setup_speedup(
    daelite_cycles: int, aelite_cycles: int
) -> float:
    """aelite-over-daelite set-up time ratio (the paper: "roughly one
    order of magnitude")."""
    return aelite_cycles / daelite_cycles
