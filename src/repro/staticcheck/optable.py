"""Op-table verifier: re-proving the lowered data plane (OP rules).

The compiled kernel's occupancy walk *refuses* schedules it cannot
prove drop- and collision-free; this module is the independent referee.
It consumes :class:`~repro.sim.lowering.LoweredArtifacts` — the stable
introspection form of the per-phase op tables, injection seeds, claimed
occupancy and claimed trajectories — and re-derives every invariant the
engines rely on, from scratch, with its own walk:

``OP001`` double drive — two reachable writers (ops or injection
seeds) land on one ``(register, phase)``; a phit collision the
hardware would arbitrate nondeterministically.
``OP002`` unconsumed/duplicated column — a reachable ``(register,
phase)`` has no consuming op (the value goes stale and leaks into a
later phase — the read-after-clear discipline breaks) or more than one
(the word is duplicated).
``OP003`` occupancy mismatch — the artifact's claimed occupancy
disagrees with what the seeds actually drive: an op gathers a column
nothing wrote earlier in phase order, or a driven column is missing
from the claim (the engine would refuse a phit parked there as off
the compiled schedule).
``OP004`` refusal incompleteness — a kernel component neither lowers
to a declared classification nor maps to a typed
:class:`~repro.sim.kernel.CompileRefusal` with a kind from the
declared taxonomy.
``OP005`` trajectory mismatch — the artifact's claimed trajectories
(what the executor actually runs: registers per step, the link-entry
step, the arrivals, the counter effects) disagree with what the
prover's own walk of the op table from the same seeds derives.  Judged
only over tables OP001–OP003 found sound: a trajectory through a
colliding or leaking table is not defined.

These rules run against live compile products (like the SC schedule
rules run against live networks), so they appear in ``--list-rules``
but are invoked through :func:`verify_op_tables` /
:func:`verify_refusal` / :func:`verify_components` — chiefly by
``python -m repro.staticcheck --prove``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Tuple

from .findings import Finding, Severity, sort_findings
from .registry import Rule, register

#: Pseudo-path used for artifact findings (there is no source file).
ARTIFACTS_FILE = "<lowered-artifacts>"

OP_RULES: Tuple[Rule, ...] = (
    Rule(
        rule_id="OP001",
        title="double-drive",
        description=(
            "two reachable writers (ops or injection seeds) drive one "
            "(register, phase) — phits would collide"
        ),
        severity=Severity.ERROR,
        kind="prove",
    ),
    Rule(
        rule_id="OP002",
        title="unconsumed-column",
        description=(
            "a reachable (register, phase) has no consuming op (the "
            "stale value leaks into later phases) or more than one "
            "(the word is duplicated)"
        ),
        severity=Severity.ERROR,
        kind="prove",
    ),
    Rule(
        rule_id="OP003",
        title="occupancy-mismatch",
        description=(
            "the claimed occupancy disagrees with what the injection "
            "seeds drive: an undriven gather source, or a driven "
            "column missing from the claim"
        ),
        severity=Severity.ERROR,
        kind="prove",
    ),
    Rule(
        rule_id="OP004",
        title="refusal-incompleteness",
        description=(
            "a kernel component neither lowers nor maps to a typed "
            "CompileRefusal with a declared kind"
        ),
        severity=Severity.ERROR,
        kind="prove",
    ),
    Rule(
        rule_id="OP005",
        title="trajectory-mismatch",
        description=(
            "a claimed trajectory (registers per step, link-entry "
            "step, arrivals, counter effects) differs from the walk "
            "of the op table from its seed — the executor would not "
            "run what the table proves"
        ),
        severity=Severity.ERROR,
        kind="prove",
    ),
)

for _op in OP_RULES:
    register(_op)


def _writer_name(op: Any) -> str:
    """Who drives a column: an op, or an injection seed (``None``)."""
    if op is None:
        return "an injection seed"
    return f"a {op.kind!r} op from {op.src}"


def _reg_name(artifacts: Any, rid: int) -> str:
    names = artifacts.register_names
    if 0 <= rid < len(names):
        return repr(names[rid])
    return f"#{rid} (out of range)"


def verify_op_tables(
    artifacts: Any, origin: str = ARTIFACTS_FILE
) -> List[Finding]:
    """Prove OP001–OP003 and OP005 over one engine's lowered artifacts.

    Re-runs the occupancy walk from the injection seeds over the
    claimed op tables, independently of the compiler that produced
    them, and reports every invariant violation as a finding (the
    walk does not stop at the first one, unlike the compiler's
    refusal).  An empty return is a proof: every reachable
    ``(register, phase)`` has exactly one writer and exactly one
    consumer, the claimed occupancy is exactly the reachable set, and
    the trajectories the executor runs are what the table prescribes.
    """
    findings: List[Finding] = []
    wheel = artifacts.wheel
    n_regs = len(artifacts.register_names)

    def bad(rule: str, message: str, hint: str) -> None:
        findings.append(
            Finding(
                rule=rule,
                severity=Severity.ERROR,
                file=origin,
                line=0,
                message=message,
                hint=hint,
            )
        )

    # Index the op tables: the consumer per (phase, src).  Artifacts
    # are flat tuples, so a planted table *can* hold two consumers of
    # one column — the engines' dict encoding cannot, but a third
    # substrate might; ``duplicated`` lists every consumer of such a
    # column, in table order.
    consumers: List[Dict[int, Any]] = [{} for _ in range(wheel)]
    duplicated: Dict[Tuple[int, int], List[Any]] = {}
    for phase, ops in enumerate(artifacts.phase_ops):
        table = consumers[phase % wheel]
        for op in ops:
            src = op.src
            if not (0 <= src < n_regs):
                bad(
                    "OP003",
                    f"op {op.kind!r} in phase {phase} reads column "
                    f"{src}, outside the {n_regs} registers",
                    "fix the lowering's register interning",
                )
                continue
            first = table.setdefault(src, op)
            if first is not op:
                duplicated.setdefault(
                    (src, phase % wheel), [first]
                ).append(op)

    # Walk reachability from the seeds, checking single-writer and
    # single-consumer at every step.  A writer is the op that drives
    # the column, ``None`` for an injection seed.
    derived = [0] * n_regs
    writer: Dict[Tuple[int, int], Any] = {}
    work: deque = deque()

    def drive(rid: int, phase: int, op: Any) -> None:
        if not (0 <= rid < n_regs):
            bad(
                "OP003",
                f"{_writer_name(op)} drives column {rid}, outside the "
                f"{n_regs} registers",
                "fix the lowering's register interning",
            )
            return
        bit = 1 << phase
        key = (rid, phase)
        if derived[rid] & bit:
            bad(
                "OP001",
                f"{_reg_name(artifacts, rid)} is driven twice in "
                f"wheel phase {phase}: by {_writer_name(writer[key])} "
                f"and by {_writer_name(op)}",
                "make the schedule slot-disjoint so every register "
                "has one writer per phase",
            )
            return
        derived[rid] |= bit
        writer[key] = op
        work.append(key)

    for rid, phase in artifacts.seeds:
        drive(rid, phase, None)
    while work:
        key = work.popleft()
        rid, phase = key
        op = consumers[phase].get(rid)
        if op is None:
            bad(
                "OP002",
                f"{_reg_name(artifacts, rid)} is occupied in wheel "
                f"phase {phase} but no op consumes it — the stale "
                f"value survives into later phases",
                "add the consuming op or stop driving the column",
            )
            continue
        ops = duplicated.get(key)
        if ops is not None:
            kinds = ", ".join(op.kind for op in ops)
            bad(
                "OP002",
                f"{_reg_name(artifacts, rid)} has {len(ops)} "
                f"consumers ({kinds}) in wheel phase {phase} — the "
                f"word would be duplicated",
                "keep exactly one consuming op per occupied column",
            )
            # Continue the walk through the first consumer only, so
            # downstream diagnostics stay deterministic.
        if op.kind == "arrive":
            continue
        nxt = (phase + 1) % wheel
        for dst in op.dsts:
            drive(dst, nxt, op)

    # Claimed occupancy must equal the derived reachable set, in both
    # directions (OP003).
    for rid in range(min(n_regs, len(artifacts.occupancy))):
        claimed = artifacts.occupancy[rid]
        diff = claimed ^ derived[rid]
        if not diff:
            continue
        for phase in range(wheel):
            if not (diff >> phase) & 1:
                continue
            if (claimed >> phase) & 1:
                bad(
                    "OP003",
                    f"{_reg_name(artifacts, rid)} claims occupancy in "
                    f"wheel phase {phase} but nothing drives it — "
                    f"neither an earlier-phase op nor an injection "
                    f"seed",
                    "drop the claim or add the missing driver",
                )
            else:
                bad(
                    "OP003",
                    f"{_reg_name(artifacts, rid)} is driven in wheel "
                    f"phase {phase} but the claimed occupancy misses "
                    f"it — a lowering would prune its consumer and "
                    f"drop the word",
                    "recompute the occupancy masks from the seeds",
                )
    if not findings:
        _verify_trajectories(artifacts, consumers, bad)
    return sort_findings(findings)


def _verify_trajectories(
    artifacts: Any, consumers: List[Dict[int, Any]], bad: Any
) -> None:
    """OP005 over a table already proven single-writer/-consumer: walk
    each seed step by step and compare with the claimed trajectory."""
    wheel = artifacts.wheel
    claimed = {
        trajectory.seed: trajectory
        for trajectory in artifacts.trajectories
    }
    if len(claimed) != len(artifacts.trajectories) or set(claimed) != set(
        artifacts.seeds
    ):
        bad(
            "OP005",
            f"{len(artifacts.trajectories)} trajectories are claimed "
            f"for {len(artifacts.seeds)} seeds, or for other seeds — "
            f"each seed runs exactly one",
            "lower one trajectory per injection seed",
        )
        return
    for seed in artifacts.seeds:
        rid, phase = seed
        frontier = [rid]
        steps = []
        effects = []
        arrivals = []
        inject_step = None
        while frontier:
            steps.append(tuple(sorted(frontier)))
            bumps = []
            reached = []
            for rid in frontier:
                op = consumers[phase][rid]
                if op.kind == "arrive":
                    arrivals.append((len(steps) - 1, op.site))
                    continue
                if op.kind == "inject":
                    inject_step = len(steps) - 1
                if op.kind in ("inject", "send"):
                    bumps.append((op.site, 1))
                reached.extend(op.dsts)
            effects.append(tuple(sorted(bumps)))
            frontier = reached
            phase = (phase + 1) % wheel
        derived = {
            "steps": tuple(steps),
            "inject_step": inject_step,
            "arrivals": tuple(sorted(arrivals)),
            "effects": tuple(effects),
        }
        for field, value in derived.items():
            stated = getattr(claimed[seed], field)
            if stated != value:
                bad(
                    "OP005",
                    f"the trajectory from seed "
                    f"{_reg_name(artifacts, seed[0])} in wheel phase "
                    f"{seed[1]} claims {field} {stated!r} but the op "
                    f"table walks to {value!r}",
                    "re-derive the trajectory from the op table",
                )


def verify_refusal(refusal: Any, origin: str = ARTIFACTS_FILE) -> List[Finding]:
    """Prove OP004 over one :class:`CompileRefusal`.

    A typed refusal with a declared kind is a *clean* outcome (that is
    the completeness contract: unloweable networks refuse, loudly and
    typed); only an undeclared kind is a finding.
    """
    from ..sim.kernel import CompileRefusal

    declared = {
        value
        for name, value in vars(CompileRefusal).items()
        if name.isupper() and isinstance(value, str)
    }
    if refusal.kind in declared:
        return []
    return [
        Finding(
            rule="OP004",
            severity=Severity.ERROR,
            file=origin,
            line=0,
            message=(
                f"refusal kind {refusal.kind!r} ({refusal.detail}) is "
                f"not in the declared CompileRefusal taxonomy"
            ),
            hint="declare the kind on CompileRefusal or reuse one",
        )
    ]


def verify_components(
    network: Any, origin: str = ARTIFACTS_FILE
) -> List[Finding]:
    """Prove OP004 over a network's kernel roster.

    Every component must classify — through the public
    :func:`~repro.sim.compiled.classify_component` contract — as
    native/generator/sink or as a typed refusal with a declared kind.
    A classification that *raises* is the exact failure mode this rule
    exists to catch: an unlowerable component escaping the typed
    degradation chain.
    """
    from ..sim.compiled import _native_ids, classify_component
    from ..sim.kernel import CompileRefusal

    findings: List[Finding] = []
    native = _native_ids(network)
    for component in network.kernel.components:
        try:
            classified = classify_component(network, component, native)
        except Exception as exc:  # the contract is: never raise
            findings.append(
                Finding(
                    rule="OP004",
                    severity=Severity.ERROR,
                    file=origin,
                    line=0,
                    message=(
                        f"classifying component "
                        f"{getattr(component, 'name', component)!r} "
                        f"raised {type(exc).__name__}: {exc} — it "
                        f"must classify or refuse, typed"
                    ),
                    hint="return a CompileRefusal instead of raising",
                )
            )
            continue
        if isinstance(classified, CompileRefusal):
            findings.extend(verify_refusal(classified, origin))
        elif classified[0] not in ("native", "generator", "sink"):
            findings.append(
                Finding(
                    rule="OP004",
                    severity=Severity.ERROR,
                    file=origin,
                    line=0,
                    message=(
                        f"component "
                        f"{getattr(component, 'name', component)!r} "
                        f"classified as undeclared kind "
                        f"{classified[0]!r}"
                    ),
                    hint="keep the classification vocabulary closed",
                )
            )
    return sort_findings(findings)
