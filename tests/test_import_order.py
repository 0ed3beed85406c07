"""Import rules: of the package, and of the test suite itself.

``repro.core`` can be the first ``repro`` import of a process.  It used
to fail (``core.network -> core.host -> alloc -> analysis ->
core.network``); the suite never saw it because ``conftest`` imports
``repro.alloc`` before anything else — hence a fresh interpreter.

No test module imports from another: shared helpers live in
``tests/differential.py`` or a ``conftest.py``, so a test file can be
moved, renamed or deleted without breaking its neighbours.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_core_imports_first():
    result = subprocess.run(
        [sys.executable, "-c", "from repro.core import DaeliteNetwork"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def imported_modules(tree):
    """Every dotted name an ``import`` or ``from ... import`` of
    ``tree`` may load as a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_no_test_module_imports_another():
    offenders = [
        f"{path.relative_to(TESTS)} imports {name}"
        for path in sorted(TESTS.rglob("test_*.py"))
        for name in imported_modules(ast.parse(path.read_text()))
        if any(part.startswith("test_") for part in name.split("."))
    ]
    assert offenders == []
