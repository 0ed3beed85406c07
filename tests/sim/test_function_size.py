"""Size guard on the simulation package.

The engine's loop (``CompiledEngine.run_to``) hands every event kind but
its arrivals to a named handler of ``_Run``; the shared state lives on
that object, not in closures.  These checks keep it that way as new
event kinds and fault hooks land: no function of ``repro.sim`` grows
past ``MAX_LINES``, and ``run_to`` defines no nested function.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.sim

MAX_LINES = 200
SIM = Path(repro.sim.__file__).resolve().parent
RUN_TO = "compiled.py:CompiledEngine.run_to"


def sim_functions():
    """Every function of ``repro.sim``, named ``file:Qualified.name``."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}{child.name}", child
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    return {
        name: node
        for path in sorted(SIM.glob("*.py"))
        for name, node in walk(ast.parse(path.read_text()), f"{path.name}:")
    }


def test_no_function_is_longer_than_the_limit():
    lengths = {
        name: node.end_lineno - node.lineno + 1
        for name, node in sim_functions().items()
    }
    assert RUN_TO in lengths
    assert {name: n for name, n in lengths.items() if n > MAX_LINES} == {}


def test_run_to_defines_no_nested_function():
    run_to = sim_functions()[RUN_TO]
    nested = [
        getattr(node, "name", "lambda")
        for node in ast.walk(run_to)
        if node is not run_to
        and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ]
    assert nested == []
