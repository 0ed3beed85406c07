"""The kernel-contract auditor against the planted fixture corpus and
the real source tree."""

import os
import re

import pytest

import repro
from repro.errors import StaticCheckError
from repro.staticcheck import (
    FileContext,
    audit_contracts,
    check_paths,
    run_file_rules,
)

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "bad_components.py"
)
REPRO_ROOT = os.path.dirname(repro.__file__)


def plant_lines(path):
    """Map each ``PLANT:<id>`` marker to its 1-based line number."""
    lines = {}
    with open(path, "r", encoding="utf-8") as handle:
        for number, text in enumerate(handle, start=1):
            for marker in re.findall(r"PLANT:(\S+)", text):
                lines[marker] = number
    return lines


@pytest.fixture(scope="module")
def fixture_findings():
    return check_paths([FIXTURE])


@pytest.fixture(scope="module")
def markers():
    return plant_lines(FIXTURE)


def test_every_planted_violation_is_caught(fixture_findings, markers):
    caught = {(f.rule, f.line) for f in fixture_findings}
    expected = {
        ("KC002", markers["KC002"]),
        ("KC002", markers["KC002-helper"]),
        ("KC003", markers["KC003"]),
        ("DT001", markers["DT001"]),
        ("DT002", markers["DT002"]),
        ("ER001", markers["ER001"]),
    }
    assert expected <= caught


def test_clean_classes_produce_no_findings(fixture_findings, markers):
    planted = set(markers.values())
    # The suppressed read sits one line below its marker comment.
    planted.add(markers["SUPPRESSED-KC002"] + 1)
    stray = [f for f in fixture_findings if f.line not in planted]
    assert stray == [], [f.render() for f in stray]


def test_suppression_hides_the_justified_finding(
    fixture_findings, markers
):
    suppressed_line = markers["SUPPRESSED-KC002"] + 1
    assert not any(
        f.line == suppressed_line for f in fixture_findings
    )
    unsuppressed = check_paths([FIXTURE], respect_suppressions=False)
    assert any(
        f.rule == "KC002" and f.line == suppressed_line
        for f in unsuppressed
    )


def test_findings_carry_actionable_messages(fixture_findings):
    for finding in fixture_findings:
        assert finding.message
        assert finding.hint
        assert finding.file == FIXTURE
        assert finding.line > 0
        rendered = finding.render()
        assert finding.rule in rendered
        assert f"{FIXTURE}:{finding.line}" in rendered


def test_rule_filter_restricts_output(markers):
    only_kc002 = check_paths([FIXTURE], only=["KC002"])
    assert {f.rule for f in only_kc002} == {"KC002"}
    assert {f.line for f in only_kc002} == {
        markers["KC002"],
        markers["KC002-helper"],
    }


def test_unknown_rule_id_is_rejected():
    with pytest.raises(StaticCheckError):
        check_paths([FIXTURE], only=["KC999"])


def test_missing_path_is_rejected():
    with pytest.raises(StaticCheckError):
        check_paths([os.path.join(REPRO_ROOT, "no_such_dir")])


def test_real_tree_passes_clean():
    findings = check_paths([REPRO_ROOT])
    assert findings == [], [f.render() for f in findings]


def test_register_writes_around_the_door_are_caught():
    """``KC004``: each planted ``.q`` write (an assignment, a tuple
    target, a ``setattr``) is a finding and nothing else in the file is
    — not the door, another attribute or a read."""
    writes = os.path.join(
        os.path.dirname(__file__), "fixtures", "register_writes.py"
    )
    findings = check_paths([writes])
    assert {f.rule for f in findings} == {"KC004"}
    assert {f.line for f in findings} == set(plant_lines(writes).values())


def test_register_writes_inside_the_simulator_are_not_flagged():
    """The kernel and the compiled engine write ``.q`` themselves."""
    sim = os.path.join(REPRO_ROOT, "sim")
    assert check_paths([sim], only=["KC004"]) == []
    source = "def latch(register):\n    register.q = None\n"
    inside = FileContext.parse(os.path.join(sim, "extra.py"), source)
    outside = FileContext.parse(os.path.join(REPRO_ROOT, "extra.py"), source)
    assert run_file_rules(inside, only=["KC004"]) == []
    assert [f.rule for f in run_file_rules(outside, only=["KC004"])] == [
        "KC004"
    ]


def test_auditor_sees_inherited_contracts():
    """A subclass chaining to super().evaluate() inherits the base's
    registers — no phantom KC002 on CleanChild."""
    context = FileContext.parse(FIXTURE)
    findings = audit_contracts([context])
    assert not any("CleanChild" in f.message for f in findings)
    assert not any("CleanRelay" in f.message for f in findings)


def test_file_rules_run_standalone():
    context = FileContext.parse(FIXTURE)
    findings = run_file_rules(context, only=["DT001", "DT002"])
    assert {f.rule for f in findings} == {"DT001", "DT002"}
