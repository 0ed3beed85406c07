"""The rule registry: every analyzer rule, discoverable by id.

File rules (the AST analyzers in :mod:`repro.staticcheck.contract`) are
functions from a parsed :class:`FileContext` to findings; they register
themselves with :func:`rule` at import time.  Schedule rules (the
materialized-state model-checker in :mod:`repro.staticcheck.schedule`)
run against a live network rather than a file, so they appear in the
catalog for ``--list-rules`` but are invoked programmatically.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from ..errors import StaticCheckError
from .findings import Finding, Severity, SuppressionIndex


@dataclass
class FileContext:
    """Everything a file rule needs about one source file.

    Attributes:
        path: File path as it should appear in findings.
        source: Raw source text.
        tree: Parsed module AST.
        suppressions: Parsed inline suppression comments.
    """

    path: str
    source: str
    tree: ast.Module
    suppressions: SuppressionIndex

    @staticmethod
    def parse(path: str, source: Optional[str] = None) -> "FileContext":
        """Read and parse one file.

        Raises:
            StaticCheckError: if the file cannot be read or parsed.
        """
        if source is None:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError as exc:
                raise StaticCheckError(
                    f"cannot read {path!r}: {exc}"
                ) from exc
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise StaticCheckError(
                f"cannot parse {path!r}: {exc}"
            ) from exc
        return FileContext(
            path=path,
            source=source,
            tree=tree,
            suppressions=SuppressionIndex.parse(source),
        )


FileRuleFn = Callable[[FileContext], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """Catalog entry of one rule.

    Attributes:
        rule_id: Stable identifier (``KC002``, ``SC003``, ...).
        title: Short name shown by ``--list-rules``.
        description: What the rule checks and why it matters.
        severity: Default severity of its findings.
        kind: ``"file"`` (AST, runs from the CLI) or ``"schedule"``
            (runtime model-checker, runs from tests/examples).
        check: The analyzer function, for file rules.
    """

    rule_id: str
    title: str
    description: str
    severity: Severity
    kind: str = "file"
    check: Optional[FileRuleFn] = None


_REGISTRY: Dict[str, Rule] = {}


def rule(
    rule_id: str,
    title: str,
    description: str,
    severity: Severity = Severity.ERROR,
) -> Callable[[FileRuleFn], FileRuleFn]:
    """Decorator registering a file rule under ``rule_id``."""

    def decorate(fn: FileRuleFn) -> FileRuleFn:
        register(
            Rule(
                rule_id=rule_id,
                title=title,
                description=description,
                severity=severity,
                kind="file",
                check=fn,
            )
        )
        return fn

    return decorate


def register(entry: Rule) -> None:
    """Add a rule to the catalog.

    Raises:
        StaticCheckError: on a duplicate rule id.
    """
    if entry.rule_id in _REGISTRY:
        raise StaticCheckError(
            f"duplicate rule id {entry.rule_id!r}"
        )
    _REGISTRY[entry.rule_id] = entry


def all_rules() -> List[Rule]:
    """The full catalog, sorted by rule id."""
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


def file_rules(
    only: Optional[Iterable[str]] = None,
) -> List[Rule]:
    """File rules to run, optionally restricted to ``only`` ids.

    Raises:
        StaticCheckError: if ``only`` names an unknown rule.
    """
    if only is None:
        return [entry for entry in all_rules() if entry.kind == "file"]
    wanted = {rule_id.strip().upper() for rule_id in only}
    unknown = wanted - set(_REGISTRY)
    if unknown:
        raise StaticCheckError(
            f"unknown rule id(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(_REGISTRY))}"
        )
    return [
        entry
        for entry in all_rules()
        if entry.rule_id in wanted and entry.kind == "file"
    ]


def run_file_rules(
    context: FileContext,
    only: Optional[Iterable[str]] = None,
    respect_suppressions: bool = True,
) -> List[Finding]:
    """Run (selected) file rules over one parsed file."""
    findings: List[Finding] = []
    for entry in file_rules(only):
        assert entry.check is not None
        findings.extend(entry.check(context))
    if respect_suppressions:
        findings = context.suppressions.apply(findings)
    return findings
