"""Planted-violation corpus for the data-plane provers.

Each ``plant_*`` builder returns ``(artifact, expected_codes)`` — a
hand-crafted :class:`repro.sim.lowering.LoweredArtifacts` carrying
exactly one class of defect, plus the *exact* set of rule codes the prover must report for
it.  ``clean_*`` builders return provably clean artifacts (expected
codes: the empty set) so the corpus also pins the no-false-positive
side.

The shapes are tiny on purpose: three or four registers and a
four-phase wheel — small enough that the expected walk can be checked
by hand in the docstrings.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Tuple

from repro.sim.lowering import (
    LoweredArtifacts,
    LoweredOp,
    LoweredTrajectory,
)
from repro.sim.kernel import CompileRefusal

# -- op-table corpus (OP rules) ------------------------------------------------


def _move(src: int, dst: int) -> LoweredOp:
    return LoweredOp("move", src, (dst,), f"r{dst}")


def _arrive(src: int) -> LoweredOp:
    return LoweredOp("arrive", src, (), "sink.ch0")


def _pipeline(arrival_step: int) -> LoweredArtifacts:
    """Seed (r0, phase 0) -> move -> (r1, 1) -> move -> (r2, 2) -> arrive,
    with a trajectory claiming the arrival at ``arrival_step``."""
    return LoweredArtifacts(
        wheel=4,
        register_names=("r0", "r1", "r2"),
        phase_ops=(
            (_move(0, 1),),
            (_move(1, 2),),
            (_arrive(2),),
            (),
        ),
        seeds=((0, 0),),
        occupancy=(0b0001, 0b0010, 0b0100),
        trajectories=(
            LoweredTrajectory(
                seed=(0, 0),
                steps=((0,), (1,), (2,)),
                inject_step=None,
                arrivals=((arrival_step, "sink.ch0"),),
                effects=((), (), ()),
            ),
        ),
    )


def clean_pipeline() -> Tuple[LoweredArtifacts, FrozenSet[str]]:
    """The three-step pipeline with the trajectory its table walks to."""
    return _pipeline(arrival_step=2), frozenset()


def plant_trajectory_mismatch() -> Tuple[LoweredArtifacts, FrozenSet[str]]:
    """A sound table whose trajectory delivers a cycle early — the
    executor would not run what the table proves: OP005, and only
    OP005 (writers, consumers and occupancy are all in order)."""
    return _pipeline(arrival_step=1), frozenset({"OP005"})


def plant_double_drive() -> Tuple[LoweredArtifacts, FrozenSet[str]]:
    """Two seeded columns both move into (r2, phase 1): OP001."""
    artifact = LoweredArtifacts(
        wheel=4,
        register_names=("r0", "r1", "r2"),
        phase_ops=(
            (_move(0, 2), _move(1, 2)),
            (_arrive(2),),
            (),
            (),
        ),
        seeds=((0, 0), (1, 0)),
        occupancy=(0b0001, 0b0001, 0b0010),
    )
    return artifact, frozenset({"OP001"})


def plant_stale_column() -> Tuple[LoweredArtifacts, FrozenSet[str]]:
    """A seeded column no op ever consumes: OP002 (stale value)."""
    artifact = LoweredArtifacts(
        wheel=4,
        register_names=("r0", "r1", "r2"),
        phase_ops=((), (), (), ()),
        seeds=((0, 0),),
        occupancy=(0b0001, 0, 0),
    )
    return artifact, frozenset({"OP002"})


def plant_duplicated_consumer() -> Tuple[LoweredArtifacts, FrozenSet[str]]:
    """Two ops read (r0, phase 0) — the word duplicates: OP002.

    The walk continues through the *first* consumer only, so r1 is
    driven and consumed while r2 never materializes (and claims no
    occupancy, keeping the expectation exactly ``{OP002}``).
    """
    artifact = LoweredArtifacts(
        wheel=4,
        register_names=("r0", "r1", "r2"),
        phase_ops=(
            (_move(0, 1), _move(0, 2)),
            (_arrive(1),),
            (),
            (),
        ),
        seeds=((0, 0),),
        occupancy=(0b0001, 0b0010, 0),
    )
    return artifact, frozenset({"OP002"})


def plant_occupancy_overclaim() -> Tuple[LoweredArtifacts, FrozenSet[str]]:
    """The claim marks (r0, phase 2) occupied but nothing drives it:
    OP003 — the exact defect that made the compiler's walk refuse."""
    artifact = LoweredArtifacts(
        wheel=4,
        register_names=("r0", "r1", "r2"),
        phase_ops=(
            (_move(0, 1),),
            (_move(1, 2),),
            (_arrive(2),),
            (),
        ),
        seeds=((0, 0),),
        occupancy=(0b0101, 0b0010, 0b0100),
    )
    return artifact, frozenset({"OP003"})


def plant_occupancy_underclaim() -> Tuple[LoweredArtifacts, FrozenSet[str]]:
    """r1 is driven in phase 1 but the claim misses it — a lowering
    would prune its consumer and drop the word: OP003."""
    artifact = LoweredArtifacts(
        wheel=4,
        register_names=("r0", "r1", "r2"),
        phase_ops=(
            (_move(0, 1),),
            (_move(1, 2),),
            (_arrive(2),),
            (),
        ),
        seeds=((0, 0),),
        occupancy=(0b0001, 0, 0b0100),
    )
    return artifact, frozenset({"OP003"})


def plant_ghost_source() -> Tuple[LoweredArtifacts, FrozenSet[str]]:
    """An op reads column 7 of a 3-register file and another drives
    column 9: both out of range, OP003."""
    artifact = LoweredArtifacts(
        wheel=4,
        register_names=("r0", "r1", "r2"),
        phase_ops=(
            (_move(0, 1), _move(7, 2)),
            (_move(1, 9),),
            (),
            (),
        ),
        seeds=((0, 0),),
        occupancy=(0b0001, 0b0010, 0),
    )
    return artifact, frozenset({"OP003"})


def plant_undeclared_refusal() -> Tuple[CompileRefusal, FrozenSet[str]]:
    """A refusal kind outside the declared taxonomy: OP004."""
    return (
        CompileRefusal("quantum_flux", "the dilithium matrix is cracked"),
        frozenset({"OP004"}),
    )


def clean_declared_refusal() -> Tuple[CompileRefusal, FrozenSet[str]]:
    """A typed refusal from the declared taxonomy is a clean outcome."""
    return (
        CompileRefusal(
            CompileRefusal.UNSUPPORTED_COMPONENT, "no compiled model"
        ),
        frozenset(),
    )


#: The whole corpus, for parametrized exactness tests:
#: (name, builder) pairs; each builder -> (artifact, expected codes).
OP_CORPUS = (
    ("clean_pipeline", clean_pipeline),
    ("double_drive", plant_double_drive),
    ("stale_column", plant_stale_column),
    ("duplicated_consumer", plant_duplicated_consumer),
    ("occupancy_overclaim", plant_occupancy_overclaim),
    ("occupancy_underclaim", plant_occupancy_underclaim),
    ("ghost_source", plant_ghost_source),
    ("trajectory_mismatch", plant_trajectory_mismatch),
)

REFUSAL_CORPUS = (
    ("undeclared_refusal", plant_undeclared_refusal),
    ("declared_refusal", clean_declared_refusal),
)
