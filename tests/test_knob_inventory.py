"""Environment knobs and their documentation cannot drift.

Every ``REPRO_*`` name the package source mentions must be documented
in README.md or DESIGN.md, and neither document may name one the source
does not read — a removed knob has to leave the docs in the same change
that removes it, and a new one has to arrive with its documentation.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
KNOB = re.compile(r"REPRO_[A-Z_]+")


def knobs_in(paths) -> set[str]:
    return {
        name for path in paths for name in KNOB.findall(path.read_text())
    }


def test_source_and_docs_name_the_same_knobs():
    source = knobs_in((REPO_ROOT / "src").rglob("*.py"))
    docs = knobs_in([REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md"])
    assert source, "the scan found no knob at all"
    assert source - docs == set(), "knobs read under src/ but undocumented"
    assert docs - source == set(), "documented knobs nothing under src/ reads"
