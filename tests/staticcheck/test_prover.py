"""The data-plane prover: planted corpus exactness and live proofs.

Three obligations:

* **exactness on the planted corpus** — every hand-crafted artifact in
  ``fixtures/planted_artifacts.py`` yields *exactly* its expected rule
  codes (clean builders included: no false positives);
* **soundness on live engines** — the shipped daelite lowering and the
  aelite typed refusal prove clean through the public introspection
  API, and a mutation planted into real artifacts is flagged;
* **the CLI leg** — ``--prove`` drives the matrix and exits 0 on the
  shipped tree, 2 on a size filter that is malformed or matches no
  shipped case.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.sim.compiled import lower_network
from repro.sim.kernel import VECTOR_MODE, CompileRefusal
from repro.staticcheck import (
    build_aelite_case,
    build_daelite_case,
    main,
    prove_network,
    verify_op_tables,
    verify_refusal,
)

from .fixtures.planted_artifacts import OP_CORPUS, REFUSAL_CORPUS


def codes(findings):
    return frozenset(f.rule for f in findings)


# -- planted corpus: exact rule codes, no more, no less ------------------------


@pytest.mark.parametrize(
    "name,builder", OP_CORPUS, ids=[name for name, _ in OP_CORPUS]
)
def test_op_corpus_exact_codes(name, builder):
    artifact, expected = builder()
    findings = verify_op_tables(artifact)
    assert codes(findings) == expected, [f.render() for f in findings]
    if expected:
        assert findings, name


@pytest.mark.parametrize(
    "name,builder",
    REFUSAL_CORPUS,
    ids=[name for name, _ in REFUSAL_CORPUS],
)
def test_refusal_corpus_exact_codes(name, builder):
    refusal, expected = builder()
    assert codes(verify_refusal(refusal)) == expected


def test_findings_carry_register_names():
    """Diagnostics name registers, not bare column ids."""
    artifact, _ = dict(OP_CORPUS)["double_drive"]()
    (finding,) = verify_op_tables(artifact)
    assert "'r2'" in finding.message


# -- live engines: the shipped lowering proves clean ---------------------------


def test_prove_small_daelite_clean():
    network = build_daelite_case(3, slot_table_size=8)
    assert prove_network(network) == []


def test_prove_aelite_refusal_clean():
    assert prove_network(build_aelite_case(3)) == []


def test_lower_network_without_provider_refuses_typed():
    network = build_aelite_case(3)
    network.kernel.compile_provider = None
    outcome = lower_network(network)
    assert isinstance(outcome, CompileRefusal)
    assert outcome.kind == CompileRefusal.NO_PROVIDER
    assert verify_refusal(outcome) == []


def test_mutated_live_artifacts_are_flagged():
    """Flipping one real occupancy bit breaks the proof (OP003)."""
    network = build_daelite_case(3, slot_table_size=8)
    engine = lower_network(network)
    assert not isinstance(engine, CompileRefusal)
    artifacts = engine.lowered_artifacts()
    assert verify_op_tables(artifacts) == []
    occupancy = list(artifacts.occupancy)
    victim = next(
        rid for rid, mask in enumerate(occupancy) if mask
    )
    occupancy[victim] ^= 1 << (occupancy[victim].bit_length() - 1)
    mutated = dataclasses.replace(
        artifacts, occupancy=tuple(occupancy)
    )
    assert "OP003" in codes(verify_op_tables(mutated))


def test_mutated_live_trajectory_is_flagged():
    """Dropping one real trajectory's link-entry step leaves the table
    sound but the executor's claim wrong: OP005, and nothing else."""
    network = build_daelite_case(3, slot_table_size=8)
    artifacts = lower_network(network).lowered_artifacts()
    victim = artifacts.trajectories[0]
    assert victim.inject_step == 1 and victim.arrivals
    mutated = dataclasses.replace(
        artifacts,
        trajectories=(
            dataclasses.replace(victim, inject_step=None),
        )
        + artifacts.trajectories[1:],
    )
    assert codes(verify_op_tables(mutated)) == {"OP005"}


def test_mutated_live_tree_trajectory_is_flagged():
    """The daelite case's multicast tree fans out and arrives at three
    leaves; dropping one leaf's arrival from its trajectory leaves the
    table sound but the claim wrong: OP005, and nothing else."""
    network = build_daelite_case(3, slot_table_size=8)
    artifacts = lower_network(network).lowered_artifacts()
    assert any(
        op.kind == "forward" and len(op.dsts) > 1
        for ops in artifacts.phase_ops
        for op in ops
    )
    index, victim = next(
        (index, trajectory)
        for index, trajectory in enumerate(artifacts.trajectories)
        if len(trajectory.arrivals) == 3
    )
    mutated = dataclasses.replace(
        artifacts,
        trajectories=artifacts.trajectories[:index]
        + (dataclasses.replace(victim, arrivals=victim.arrivals[1:]),)
        + artifacts.trajectories[index + 1 :],
    )
    assert codes(verify_op_tables(mutated)) == {"OP005"}


def test_vector_network_publishes_artifacts():
    """The introspection API is reachable without private attributes:
    a vector-mode network lowers and publishes its op tables."""
    network = build_daelite_case(3, slot_table_size=8)
    assert network.kernel.mode == VECTOR_MODE
    engine = lower_network(network)
    assert not isinstance(engine, CompileRefusal)
    lowered = engine.lowered_artifacts()
    assert len(lowered.phase_ops) == lowered.wheel
    assert len(lowered.occupancy) == len(lowered.register_names)
    assert any(lowered.phase_ops)
    assert [t.seed for t in lowered.trajectories] == list(lowered.seeds)


# -- CLI leg -------------------------------------------------------------------


def test_cli_prove_smallest_size_exits_zero(capsys):
    assert main(["--prove", "--prove-size", "3"]) == 0
    err = capsys.readouterr().err
    assert "daelite-3x3: proved clean" in err
    assert "aelite-3x3: proved clean" in err
    assert "8x8" not in err


def test_cli_prove_accepts_nxn_filter(capsys):
    assert main(["--prove", "--prove-size", "3x3"]) == 0
    assert "daelite-3x3: proved clean" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["huge", "5", "0", "3x4", "3xfoo"])
def test_cli_prove_rejects_malformed_size(capsys, size):
    """A size that is malformed, not square or matches no shipped case
    is a usage error: a filter that proves nothing must not exit
    clean."""
    assert main(["--prove", "--prove-size", size]) == 2
    err = capsys.readouterr().err
    assert "invalid --prove-size" in err
    assert "3 / 8 / 16" in err
