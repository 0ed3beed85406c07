"""``repro.core`` can be the first ``repro`` import of a process.

It used to fail (``core.network -> core.host -> alloc -> analysis ->
core.network``); the suite never saw it because ``conftest`` imports
``repro.alloc`` before anything else — hence a fresh interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_core_imports_first():
    result = subprocess.run(
        [sys.executable, "-c", "from repro.core import DaeliteNetwork"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
