"""``python -m repro.staticcheck`` — the analysis driver.

Parses every ``.py`` file under the given paths (default: the installed
``repro`` package source), runs the per-file rules and the project-wide
kernel-contract audit, prints findings and exits non-zero when any
survive suppression.  Schedule rules (``SC...``) need a live network and
therefore run from tests/examples via
:func:`repro.staticcheck.verify_network_state`; the CLI lists them in
``--list-rules`` for discoverability.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, List, Optional, Sequence

from ..errors import StaticCheckError
from .contract import audit_contracts
from .findings import Finding, sort_findings
from .registry import FileContext, all_rules, run_file_rules

# Imported for its registration side effect: the op-table (OP...)
# prover runs from --prove and appears in --list-rules.
from . import optable as _optable  # noqa: F401


def iter_source_files(paths: Sequence[str]) -> List[str]:
    """All ``.py`` files under ``paths`` (files pass through verbatim).

    Raises:
        StaticCheckError: if a path does not exist.
    """
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                dirs[:] = [
                    d for d in dirs if d not in ("__pycache__",)
                ]
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        else:
            raise StaticCheckError(f"no such file or directory: {path!r}")
    return files


def check_paths(
    paths: Sequence[str],
    only: Optional[Iterable[str]] = None,
    respect_suppressions: bool = True,
) -> List[Finding]:
    """Run all applicable rules over ``paths`` and return findings."""
    contexts = [
        FileContext.parse(path) for path in iter_source_files(paths)
    ]
    findings: List[Finding] = []
    for context in contexts:
        findings.extend(
            run_file_rules(
                context,
                only=only,
                respect_suppressions=respect_suppressions,
            )
        )
    findings.extend(
        audit_contracts(
            contexts,
            only=only,
            respect_suppressions=respect_suppressions,
        )
    )
    return sort_findings(findings)


def _default_paths() -> List[str]:
    package_root = os.path.dirname(os.path.dirname(__file__))
    paths = [package_root]
    # In a source checkout the examples ride along in the default
    # audit, so new sim/ consumers cannot escape it; an installed
    # package has no examples directory and skips this.
    repo_root = os.path.dirname(os.path.dirname(package_root))
    examples = os.path.join(repo_root, "examples")
    if os.path.isdir(examples):
        paths.append(examples)
    return paths


def _parse_prove_sizes(
    values: Optional[Sequence[str]],
) -> Optional[List[int]]:
    """``["3", "8x8"]`` -> ``[3, 8]``; ``None`` means every size.

    Raises:
        StaticCheckError: for a value that is not ``N`` or ``NxN`` with
            ``N`` a shipped mesh side — a filter that matches no case
            would prove nothing and still exit clean.
    """
    from .prove import PROVE_SIZES

    if not values:
        return None
    shipped = [side for side, _, _ in PROVE_SIZES]
    sizes: List[int] = []
    for value in values:
        side, cross, other = value.strip().lower().partition("x")
        if (
            side.isdecimal()
            and int(side) in shipped
            and (not cross or other.isdecimal() and int(other) == int(side))
        ):
            sizes.append(int(side))
            continue
        raise StaticCheckError(
            f"invalid --prove-size: {value!r} (want N or NxN, N one of "
            f"the shipped sides {' / '.join(map(str, shipped))})"
        )
    return sizes


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description=(
            "kernel-contract and determinism analysis for the repro "
            "code base"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: the repro "
        "package source)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--no-suppressions",
        action="store_true",
        help="report findings even when an inline suppression covers "
        "them",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--prove",
        action="store_true",
        help="build the representative network matrix, lower it and "
        "run the op-table (OP...) prover instead of the file rules",
    )
    parser.add_argument(
        "--prove-size",
        action="append",
        metavar="N",
        help="restrict --prove to meshes of side N, one of the shipped "
        "sides 3 / 8 / 16 (NxN also accepted; repeatable)",
    )
    options = parser.parse_args(argv)

    if options.list_rules:
        for entry in all_rules():
            print(
                f"{entry.rule_id}  [{entry.severity}] "
                f"({entry.kind})  {entry.title}"
            )
            print(f"    {entry.description}")
        return 0

    only = (
        [part for part in options.rules.split(",") if part.strip()]
        if options.rules
        else None
    )
    if options.prove:
        from .prove import run_prove

        try:
            sizes = _parse_prove_sizes(options.prove_size)
            findings = run_prove(
                sizes=sizes,
                report=lambda line: print(line, file=sys.stderr),
            )
        except StaticCheckError as error:
            print(f"staticcheck: error: {error}", file=sys.stderr)
            return 2
    else:
        paths = list(options.paths) or _default_paths()
        try:
            findings = check_paths(
                paths,
                only=only,
                respect_suppressions=not options.no_suppressions,
            )
        except StaticCheckError as error:
            print(f"staticcheck: error: {error}", file=sys.stderr)
            return 2

    for finding in findings:
        print(finding.render())
    if findings:
        errors = sum(1 for f in findings if f.severity >= 2)
        warnings = len(findings) - errors
        print(
            f"staticcheck: {len(findings)} finding(s) "
            f"({errors} error(s), {warnings} warning(s))",
            file=sys.stderr,
        )
        return 1
    print("staticcheck: no findings", file=sys.stderr)
    return 0
