"""AST lint rules for the numpy hot path (NP rules).

The bulk epoch replay's correctness contract is *int64-closed* event
arrays: every array is ``np.int64``, every value stays strictly below
the ``2**62`` guard (so replay's arithmetic shifts cannot overflow),
and every in-place update is alias-free.  Those properties
are easy to break with idiomatic-looking numpy — an implicit-dtype
constructor silently lands on float64 on some platforms, a true
division or a float constant upcasts a whole expression, and
``arr[idx] += v`` with a repeated integer index silently drops updates
(buffered fancy indexing) where ``np.add.at`` would accumulate.

These rules only fire in files that opt in with a marker comment at
column 0::

    # staticcheck: numpy-hot-path

so ordinary analysis or plotting code is untouched; the marker is the
module's declaration that it lives under the bulk replay's dtype
discipline.  ``sim/replay.py`` carries it, and any third substrate
(ROADMAP's SDM item) that feeds numpy should too.

``NP001`` implicit dtype — a numpy array constructor without an
explicit ``dtype=`` can upcast out of int64.
``NP002`` aliased in-place fancy indexing — ``arr[idx] op= v`` where
``idx`` is an integer index array; repeated indices lose updates.
``NP003`` int64-domain escape — true division, float constants in
arithmetic, ``astype`` to a float type, integer constants at or above
``2**63``, or shifts beyond the ``2**62`` accumulator guard.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from .contract import _dotted, _import_aliases, _resolved_call_name
from .findings import Finding, Severity
from .registry import FileContext, rule

#: Opt-in marker: NP rules only run over files declaring themselves
#: part of the numpy hot path.
HOT_PATH_MARKER = "# staticcheck: numpy-hot-path"

#: Constructors whose dtype defaults are platform- or input-dependent.
_IMPLICIT_DTYPE_CTORS = {
    "numpy.array",
    "numpy.asarray",
    "numpy.zeros",
    "numpy.ones",
    "numpy.empty",
    "numpy.full",
    "numpy.arange",
    "numpy.ndarray",
}

#: Producers of integer index arrays; names assigned from these are
#: treated as fancy indices by NP002.
_INDEX_PRODUCERS = {
    "numpy.nonzero",
    "numpy.flatnonzero",
    "numpy.argsort",
    "numpy.argwhere",
    "numpy.where",
}

#: Accumulator guard: values stay below 2**62 so shifts stay in int64.
_VALUE_LIMIT_BITS = 62


def _is_hot_path(context: FileContext) -> bool:
    # Column 0 only: an indented mention (a docstring example, or this
    # module's own marker definition) is not an opt-in.
    return any(
        line.startswith(HOT_PATH_MARKER)
        for line in context.source.splitlines()
    )


def _normalize(name: str) -> str:
    return ("numpy" + name[2:]) if name.startswith("np.") else name


@rule(
    "NP001",
    "implicit-dtype",
    "a numpy array constructor on the hot path without an explicit "
    "dtype= can upcast out of int64 (platform-dependent defaults)",
)
def check_implicit_dtype(context: FileContext) -> Iterable[Finding]:
    if not _is_hot_path(context):
        return
    aliases = _import_aliases(context.tree)
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _resolved_call_name(node, aliases)
        if name is None:
            continue
        if _normalize(name) not in _IMPLICIT_DTYPE_CTORS:
            continue
        if any(kw.arg == "dtype" for kw in node.keywords):
            continue
        yield Finding(
            rule="NP001",
            severity=Severity.ERROR,
            file=context.path,
            line=node.lineno,
            message=(
                f"{name}(...) without dtype= on the numpy hot path"
            ),
            hint="pass dtype=np.int64 (or np.intp for indices)",
        )


def _index_names(tree: ast.Module, aliases: dict) -> Set[str]:
    """Names bound (anywhere in the module) to integer index arrays."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        # hot = np.nonzero(...)[0] unwraps to the call.
        if isinstance(value, ast.Subscript):
            value = value.value
        if not isinstance(value, ast.Call):
            continue
        called = _resolved_call_name(value, aliases)
        produces_index = called is not None and (
            _normalize(called) in _INDEX_PRODUCERS
        )
        if not produces_index:
            # asarray/array with an index dtype also produces one.
            for kw in value.keywords:
                if kw.arg != "dtype":
                    continue
                dtype = _dotted(kw.value)
                if dtype is not None and _normalize(dtype) in (
                    "numpy.intp",
                    "numpy.int64",
                ):
                    produces_index = True
        if not produces_index:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


@rule(
    "NP002",
    "aliased-inplace-fancy-indexing",
    "arr[idx] op= v with an integer index array buffers the gather — "
    "repeated indices silently lose updates; use np.add.at / ufunc.at",
)
def check_aliased_fancy_indexing(
    context: FileContext,
) -> Iterable[Finding]:
    if not _is_hot_path(context):
        return
    aliases = _import_aliases(context.tree)
    index_names = _index_names(context.tree, aliases)
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.AugAssign):
            continue
        target = node.target
        if not isinstance(target, ast.Subscript):
            continue
        sub = target.slice
        # state[idx] and state[plane, idx] both buffer the gather.
        parts = sub.elts if isinstance(sub, ast.Tuple) else [sub]
        culprit = next(
            (
                part
                for part in parts
                if isinstance(part, ast.Name)
                and part.id in index_names
            ),
            None,
        )
        if culprit is not None:
            sub = culprit
            yield Finding(
                rule="NP002",
                severity=Severity.ERROR,
                file=context.path,
                line=node.lineno,
                message=(
                    f"in-place update through integer index array "
                    f"{sub.id!r} — repeated indices lose increments"
                ),
                hint="use np.add.at(arr, idx, v) to accumulate",
            )


@rule(
    "NP003",
    "int64-domain-escape",
    "an expression on the numpy hot path leaves the int64 domain: "
    "true division, float constants, astype to float, constants "
    "beyond 2**63, or shifts past the 2**62 accumulator guard",
)
def check_int64_domain(context: FileContext) -> Iterable[Finding]:
    if not _is_hot_path(context):
        return
    for node in ast.walk(context.tree):
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                yield Finding(
                    rule="NP003",
                    severity=Severity.ERROR,
                    file=context.path,
                    line=node.lineno,
                    message="true division upcasts int64 to float64",
                    hint="use // (floor division) on the hot path",
                )
                continue
            if isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult, ast.Pow)
            ):
                for side in (node.left, node.right):
                    if isinstance(side, ast.Constant) and isinstance(
                        side.value, float
                    ):
                        yield Finding(
                            rule="NP003",
                            severity=Severity.ERROR,
                            file=context.path,
                            line=node.lineno,
                            message=(
                                f"float constant {side.value!r} in "
                                f"arithmetic upcasts int64 arrays"
                            ),
                            hint="keep hot-path constants integral",
                        )
                        break
            if isinstance(node.op, ast.LShift) and isinstance(
                node.right, ast.Constant
            ):
                if (
                    isinstance(node.right.value, int)
                    and node.right.value > _VALUE_LIMIT_BITS
                ):
                    yield Finding(
                        rule="NP003",
                        severity=Severity.ERROR,
                        file=context.path,
                        line=node.lineno,
                        message=(
                            f"left shift by {node.right.value} "
                            f"exceeds the 2**62 accumulator guard"
                        ),
                        hint="values must stay below 1 << 62",
                    )
        elif isinstance(node, ast.Constant):
            if (
                isinstance(node.value, int)
                and not isinstance(node.value, bool)
                and abs(node.value) >= 1 << 63
            ):
                yield Finding(
                    rule="NP003",
                    severity=Severity.ERROR,
                    file=context.path,
                    line=node.lineno,
                    message=(
                        f"integer constant {node.value} does not fit "
                        f"in int64"
                    ),
                    hint="hot-path constants must fit in int64",
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "astype"
                and node.args
            ):
                dtype = _dotted(node.args[0])
                if dtype is not None and "float" in _normalize(dtype):
                    yield Finding(
                        rule="NP003",
                        severity=Severity.ERROR,
                        file=context.path,
                        line=node.lineno,
                        message=(
                            f"astype({dtype}) leaves the int64 domain"
                        ),
                        hint="keep hot-path arrays integral",
                    )
