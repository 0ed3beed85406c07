"""The numpy hot-path lint rules (NP001–NP003).

The rules are opt-in: they fire only in files carrying the
``# staticcheck: numpy-hot-path`` marker at column 0.  The planted
fixture must yield every ``PLANT:`` violation (and nothing else); the
same source without the marker must yield nothing; and the shipped
replay module (the vector kernel's numpy) — which carries the marker —
must stay clean, proving the rules run over it on every default audit.
"""

from __future__ import annotations

import os
from collections import Counter

import repro.sim.replay
from repro.staticcheck import HOT_PATH_MARKER, check_paths
from repro.staticcheck.registry import FileContext, run_file_rules

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "numpy_hot_path_bad.py"
)

NP_RULES = ["NP001", "NP002", "NP003"]


def np_findings(source: str):
    context = FileContext.parse("<fixture>", source=source)
    return run_file_rules(context, only=NP_RULES)


def fixture_source() -> str:
    with open(FIXTURE) as handle:
        return handle.read()


def test_fixture_yields_every_planted_violation():
    source = fixture_source()
    planted = Counter(
        line.split("PLANT:", 1)[1].split("-", 1)[0]
        for line in source.splitlines()
        if "PLANT:" in line
    )
    found = Counter(f.rule for f in np_findings(source))
    assert found == planted


def test_findings_land_on_the_planted_lines():
    source = fixture_source()
    planted_lines = {
        number
        for number, line in enumerate(source.splitlines(), start=1)
        if "PLANT:" in line
    }
    assert {f.line for f in np_findings(source)} == planted_lines


def test_unmarked_source_is_skipped():
    source = fixture_source()
    unmarked = "\n".join(
        line
        for line in source.splitlines()
        if not line.startswith(HOT_PATH_MARKER)
    )
    assert np_findings(unmarked) == []


def test_indented_marker_is_not_an_opt_in():
    """A docstring example of the marker must not opt a file in."""
    source = f'"""Example::\n\n    {HOT_PATH_MARKER}\n"""\nx = 1 / 2\n'
    assert np_findings(source) == []


def test_shipped_vector_kernel_is_marked_and_clean():
    path = repro.sim.replay.__file__
    with open(path) as handle:
        source = handle.read()
    assert any(
        line.startswith(HOT_PATH_MARKER)
        for line in source.splitlines()
    )
    assert check_paths([path], only=NP_RULES) == []
