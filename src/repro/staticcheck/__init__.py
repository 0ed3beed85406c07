"""Static analysis for the repro code base.

Three analyzer families guard the fast paths whose correctness rests
on convention:

* the **kernel-contract auditor** (:mod:`repro.staticcheck.contract`) —
  AST analysis of every ``Component`` subclass's ``evaluate()``: it
  drives only registers it owns and reads none it drove in the same
  call, and no code outside :mod:`repro.sim` writes a register's
  output around ``Kernel.write_register`` (rules ``KC...``), plus
  determinism (``DT...``) and error-hygiene (``ER...``) rules;
* the **schedule model-checker** (:mod:`repro.staticcheck.schedule`) —
  re-derives, hop by hop, the slot-table state a configured network
  must hold from its live allocation handles and compares cell by cell
  (rules ``SC...``);
* the **data-plane prover** — the op-table verifier
  (:mod:`repro.staticcheck.optable`, rules ``OP...``) re-walks the
  compiled kernel's lowered artifacts from the injection seeds and
  proves single-writer / single-consumer / occupancy-exact / typed
  refusal.  ``python -m repro.staticcheck --prove`` runs it over a
  representative network matrix (:mod:`repro.staticcheck.prove`).

Run the file rules with ``python -m repro.staticcheck [paths]``; call
:func:`verify_network_state` from tests and examples after configuring
a network.
"""

from .cli import check_paths, iter_source_files, main
from .contract import ClassTable, audit_component, audit_contracts
from .findings import (
    Finding,
    Severity,
    Suppression,
    SuppressionIndex,
    sort_findings,
)
from .optable import (
    ARTIFACTS_FILE,
    verify_components,
    verify_op_tables,
    verify_refusal,
)
from .prove import (
    ProveCase,
    build_aelite_case,
    build_daelite_case,
    default_prove_cases,
    prove_network,
    run_prove,
)
from .registry import FileContext, Rule, all_rules, run_file_rules
from .schedule import (
    check_aelite_state,
    check_daelite_state,
    verify_network_state,
)

__all__ = [
    "ARTIFACTS_FILE",
    "ClassTable",
    "FileContext",
    "Finding",
    "ProveCase",
    "Rule",
    "Severity",
    "Suppression",
    "SuppressionIndex",
    "all_rules",
    "audit_component",
    "audit_contracts",
    "build_aelite_case",
    "build_daelite_case",
    "check_aelite_state",
    "check_daelite_state",
    "check_paths",
    "default_prove_cases",
    "iter_source_files",
    "main",
    "prove_network",
    "run_file_rules",
    "run_prove",
    "sort_findings",
    "verify_components",
    "verify_network_state",
    "verify_op_tables",
    "verify_refusal",
]
