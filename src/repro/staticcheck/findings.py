"""Finding records and inline suppression comments.

A :class:`Finding` is one rule violation at one location.  Findings are
plain data — analyzers return them, the CLI renders them, tests assert on
them — so the same rule can gate CI, run inside an integration test, or
be inspected interactively without exception-control-flow gymnastics.

Suppression syntax
------------------

A finding is suppressed by a comment on its line (or on the line directly
above, for statements that are hard to annotate inline)::

    self.mystery.drive(phit)  # staticcheck: ignore[KC002] -- justification
    # staticcheck: ignore[DT001,DT002] -- seeded upstream
    value = roll()

``ignore`` without a rule list suppresses every rule on that line.  The
``-- justification`` tail is optional but the CI gate reviews shipped
suppressions by hand, so write one.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Sequence


class Severity(enum.IntEnum):
    """Ranking of findings; the CLI exits non-zero for any of them."""

    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Attributes:
        rule: Rule identifier, e.g. ``"KC002"``.
        severity: How bad it is; all findings gate the CLI exit code.
        file: Path of the offending file, or a pseudo-path such as
            ``"<network>"`` for runtime (schedule) findings.
        line: 1-based line number, 0 when not applicable.
        message: What is wrong, concretely.
        hint: How to fix it (one actionable sentence).
    """

    rule: str
    severity: Severity
    file: str
    line: int
    message: str
    hint: str = ""

    @property
    def location(self) -> str:
        return f"{self.file}:{self.line}"

    def render(self) -> str:
        """One-line human-readable form used by the CLI."""
        text = (
            f"{self.file}:{self.line}: {self.rule} "
            f"[{self.severity}] {self.message}"
        )
        if self.hint:
            text += f"  (fix: {self.hint})"
        return text


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Stable deterministic order: by file, line, rule, message."""
    return sorted(
        findings,
        key=lambda f: (f.file, f.line, f.rule, f.message),
    )


#: ``# staticcheck: ignore`` or ``# staticcheck: ignore[R1,R2] -- why``.
_SUPPRESS_RE = re.compile(
    r"#\s*staticcheck:\s*ignore"
    r"(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?"
    r"(?:\s*--\s*(?P<why>.*))?"
)


@dataclass(frozen=True)
class Suppression:
    """One parsed suppression comment.

    ``rules`` empty means "suppress everything on this line".
    """

    line: int
    rules: FrozenSet[str]
    justification: str = ""

    def covers(self, rule: str) -> bool:
        return not self.rules or rule in self.rules


@dataclass
class SuppressionIndex:
    """Suppressions of one file, indexed by the line they apply to."""

    by_line: Dict[int, List[Suppression]] = field(default_factory=dict)

    @staticmethod
    def parse(source: str) -> "SuppressionIndex":
        """Scan raw source for suppression comments.

        A comment suppresses its own line; a line that holds *only* the
        comment also suppresses the next line.
        """
        index = SuppressionIndex()
        for number, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            rules = frozenset(
                part.strip().upper()
                for part in (match.group("rules") or "").split(",")
                if part.strip()
            )
            why = (match.group("why") or "").strip()
            suppression = Suppression(
                line=number, rules=rules, justification=why
            )
            index.by_line.setdefault(number, []).append(suppression)
            if text[: match.start()].strip() == "":
                # Standalone comment: applies to the following line too.
                index.by_line.setdefault(number + 1, []).append(
                    suppression
                )
        return index

    def suppressed(self, line: int, rule: str) -> bool:
        return any(
            entry.covers(rule) for entry in self.by_line.get(line, ())
        )

    def apply(
        self, findings: Sequence[Finding]
    ) -> List[Finding]:
        """Drop findings covered by a suppression comment."""
        return [
            finding
            for finding in findings
            if not self.suppressed(finding.line, finding.rule)
        ]
