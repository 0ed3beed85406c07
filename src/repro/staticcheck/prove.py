"""``--prove``: build representative networks and prove them clean.

The OP rules (:mod:`repro.staticcheck.optable`) verify *live compile
products* — the :class:`~repro.sim.lowering.LoweredArtifacts`
introspection form the engines publish.  This module supplies the
driver: it builds a representative matrix of networks (daelite meshes
at 3x3 / 8x8 / 16x16, plus aelite meshes whose data plane *refuses* to
lower), lowers each through the public
:func:`~repro.sim.compiled.lower_network` entry point, and runs every
prover over the result.

An empty finding list is a proof for the exact ``(substrate, mesh,
schedule)`` configurations shipped: each reachable register has one
writer and one consumer per wheel phase, the claimed occupancy is the
reachable set, and everything unlowerable refuses with a typed,
declared :class:`~repro.sim.kernel.CompileRefusal`.

Run it as ``python -m repro.staticcheck --prove``; third substrates
get the same treatment by handing their configured network to
:func:`prove_network`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .findings import Finding, sort_findings
from .optable import (
    ARTIFACTS_FILE,
    verify_op_tables,
    verify_refusal,
)

#: (mesh side, slot_table_size, config_word_bits or None) — the widths
#: mirror the benchmark fabrics: the config word must address
#: ``side*side*2`` elements.
PROVE_SIZES: Tuple[Tuple[int, int, Optional[int]], ...] = (
    (3, 8, None),
    (8, 16, 9),
    (16, 16, 11),
)


@dataclass(frozen=True)
class ProveCase:
    """One network the prover builds, lowers, and verifies."""

    label: str
    side: int
    build: Callable[[], Any]


def prove_network(network: Any, origin: str = ARTIFACTS_FILE) -> List[Finding]:
    """Lower ``network`` and run every prover over the products.

    A typed refusal from a declared kind is a *clean* outcome — that is
    the completeness contract (OP004).  A successful lowering is
    checked for op-table soundness (OP001–OP003).  Its roster needs no
    second OP004 pass: the lowering exists only because every component
    classified as native, generator or sink (a classification that
    refused is the outcome instead).  No engine is built: the lowering
    is rendered as it is, and it stays in the network's lowering cache
    for the kernel's next compile.
    """
    from ..sim.compiled import lower_network
    from ..sim.kernel import CompileRefusal

    outcome = lower_network(network)
    if isinstance(outcome, CompileRefusal):
        return sort_findings(verify_refusal(outcome, origin))
    return sort_findings(verify_op_tables(outcome.lowered_artifacts(), origin))


def build_daelite_case(
    side: int,
    slot_table_size: int = 16,
    config_word_bits: Optional[int] = None,
) -> Any:
    """A configured ``side`` x ``side`` daelite mesh in vector mode.

    Corner-to-corner CBR traffic (two crossing flows on the smallest
    mesh) exercises injection, forwarding, arrival and sink
    classification, and one three-leaf multicast tree a router fan-out
    and a trajectory with arrivals at three depths;
    the connections are fully configured — the config plane is quiet —
    but no payload has run, which is all lowering needs.
    """
    from ..alloc import ConnectionRequest, MulticastRequest, SlotAllocator
    from ..core import DaeliteNetwork
    from ..params import daelite_parameters
    from ..sim.kernel import VECTOR_MODE
    from ..topology import build_mesh, ni_name
    from ..traffic.generators import CbrGenerator
    from ..traffic.sinks import CheckingSink

    overrides = {"slot_table_size": slot_table_size}
    if config_word_bits is not None:
        overrides["config_word_bits"] = config_word_bits
    params = daelite_parameters(**overrides)
    mesh = build_mesh(side, side)
    corner = ni_name(side - 1, side - 1)
    flows = [("NI00", corner)]
    if side <= 4:
        flows.append((ni_name(side - 1, 0), ni_name(0, side - 1)))
    allocator = SlotAllocator(topology=mesh, params=params)
    connections = [
        allocator.allocate_connection(
            ConnectionRequest(
                f"c{index}", src, dst, forward_slots=2, reverse_slots=1
            )
        )
        for index, (src, dst) in enumerate(flows)
    ]
    tree = allocator.allocate_multicast(
        MulticastRequest(
            "tree",
            ni_name(0, side - 1),
            (
                ni_name(side - 1, side - 1),
                ni_name(side - 1, 0),
                ni_name(side // 2, 0),
            ),
            slots=2,
        )
    )
    network = DaeliteNetwork(mesh, params, kernel_mode=VECTOR_MODE)
    hops = 2 * (side - 1)
    for index, connection in enumerate(connections):
        handle = network.configure(connection)
        src, dst = flows[index]
        generator = CbrGenerator(
            f"gen{index}",
            inject=network.ni(src).injector(
                handle.forward.src_channel, f"c{index}"
            ),
            period=max(40, 2 * hops),
        )
        sink = CheckingSink(
            f"sink{index}",
            receive=network.ni(dst).receiver(handle.forward.dst_channel),
            words_per_cycle=2,
            stats=network.stats,
        )
        network.kernel.add(generator)
        network.kernel.add(sink)
    handle = network.configure_multicast(tree)
    network.kernel.add(
        CbrGenerator(
            "gen.tree",
            inject=network.ni(tree.src_ni).injector(
                handle.src_channel, "tree"
            ),
            period=max(40, 2 * hops),
        )
    )
    for leaf in tree.dst_nis:
        network.kernel.add(
            CheckingSink(
                f"sink.tree.{leaf}",
                receive=network.ni(leaf).receiver(
                    handle.dst_channels[leaf]
                ),
                words_per_cycle=2,
                stats=network.stats,
            )
        )
    return network


def build_aelite_case(side: int) -> Any:
    """A ``side`` x ``side`` aelite mesh — lowering must *refuse*.

    aelite's source-routed data plane has no compiled model; the proof
    obligation here is refusal completeness, not op tables.
    """
    from ..aelite import AeliteNetwork
    from ..params import aelite_parameters
    from ..topology import build_mesh

    return AeliteNetwork(build_mesh(side, side), params=aelite_parameters())


def default_prove_cases(
    sizes: Optional[Sequence[int]] = None,
) -> List[ProveCase]:
    """The shipped prove matrix, optionally filtered to mesh sides."""
    wanted = set(sizes) if sizes else None
    cases: List[ProveCase] = []
    for side, slot_table_size, config_word_bits in PROVE_SIZES:
        if wanted is not None and side not in wanted:
            continue
        cases.append(
            ProveCase(
                label=f"daelite-{side}x{side}",
                side=side,
                build=partial(
                    build_daelite_case,
                    side,
                    slot_table_size=slot_table_size,
                    config_word_bits=config_word_bits,
                ),
            )
        )
        cases.append(
            ProveCase(
                label=f"aelite-{side}x{side}",
                side=side,
                build=partial(build_aelite_case, side),
            )
        )
    return cases


def run_prove(
    sizes: Optional[Sequence[int]] = None,
    report: Optional[Callable[[str], None]] = None,
) -> List[Finding]:
    """Build and prove every case; return the surviving findings.

    ``report`` (when given) receives one line per case, so the CLI can
    show which configurations were proved clean.
    """
    findings: List[Finding] = []
    for case in default_prove_cases(sizes):
        network = case.build()
        case_findings = prove_network(
            network, origin=f"<prove:{case.label}>"
        )
        findings.extend(case_findings)
        if report is not None:
            if case_findings:
                report(
                    f"prove: {case.label}: "
                    f"{len(case_findings)} finding(s)"
                )
            else:
                report(f"prove: {case.label}: proved clean")
    return sort_findings(findings)
