"""The kernel-contract auditor: AST analysis of ``Component`` subclasses.

The kernel's two-phase discipline (:mod:`repro.sim.kernel`): a
component drives only the registers it created with
``make_register()`` and reads each register's ``.q`` before it drives
it.  The auditor re-derives each component's register accesses from
the source of ``evaluate()`` (and the helpers it calls, one level deep),
so a breach is caught without running the code path that makes it.

Kernel-contract rules (project-wide — they need the full class table to
resolve inheritance, so they do not run through the per-file registry):

``KC002``
    ``evaluate()`` calls ``.drive()`` on a register the component does
    not own — a double-drive hazard the runtime check only catches when
    both drivers fire in the same cycle.  (``.send()`` on links is the
    sanctioned way to write someone else's register.)
``KC003``
    ``evaluate()`` reads ``.q`` of a register it drove *earlier in the
    same call*.  Under two-phase semantics ``.q`` still holds last
    cycle's value, so the ordering usually signals an intent to observe
    the freshly driven value.  Warning severity: the code is legal, just
    misleading — reorder to read-before-drive.
``KC004``
    A ``.q = ...`` or ``setattr(..., "q", ...)`` outside
    :mod:`repro.sim` (a per-file rule): between cycles a register's
    output is written through ``Kernel.write_register``, which notes it
    for the compiled engine's next entry.

Per-file determinism / error-hygiene rules (registered with the rule
registry): ``DT001`` (module-global ``random``), ``DT002`` (wall-clock
reads), ``ER001`` (raising builtin exceptions instead of
:mod:`repro.errors` types).

The analysis is deliberately conservative in what it *resolves*: only
attribute paths rooted at ``self`` (through local aliases and subscripts,
which normalize to ``[*]``) produce events.  An access it cannot resolve
is skipped, never flagged — the known-bad fixture corpus pins down the
patterns it must catch.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .findings import Finding, Severity, sort_findings
from .registry import FileContext, Rule, register, rule

#: Attribute whose read observes a register's output.
_READ_ATTR = "q"

#: Methods treated as register writes.
_DRIVE_METHOD = "drive"

#: Helper-inlining depth below ``evaluate()``.
_MAX_HELPER_DEPTH = 1


# ---------------------------------------------------------------------------
# Class table
# ---------------------------------------------------------------------------


@dataclass
class ClassInfo:
    """Everything the auditor knows about one class definition."""

    name: str
    context: FileContext
    node: ast.ClassDef
    base_names: List[str]
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: ``self.<root>`` attributes assigned from ``make_register(...)``.
    owned_roots: Set[str] = field(default_factory=set)
    is_component: bool = False


def _base_name(expr: ast.expr) -> Optional[str]:
    """Rightmost name segment of a base-class expression."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _contains_make_register(expr: ast.expr) -> bool:
    """Whether any sub-expression calls ``*.make_register(...)``."""
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "make_register"
        ):
            return True
    return False


def _scan_class(context: FileContext, node: ast.ClassDef) -> ClassInfo:
    info = ClassInfo(
        name=node.name,
        context=context,
        node=node,
        base_names=[
            name
            for name in (_base_name(base) for base in node.bases)
            if name is not None
        ],
    )
    for item in node.body:
        if isinstance(item, ast.FunctionDef):
            info.methods[item.name] = item
    for method in info.methods.values():
        for stmt in ast.walk(method):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            if (
                target is not None
                and value is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and _contains_make_register(value)
            ):
                info.owned_roots.add(target.attr)
    return info


class ClassTable:
    """All classes across the analyzed files, with Component lineage."""

    def __init__(self, contexts: Iterable[FileContext]) -> None:
        self.by_name: Dict[str, ClassInfo] = {}
        for context in contexts:
            for node in ast.walk(context.tree):
                if isinstance(node, ast.ClassDef):
                    self.by_name[node.name] = _scan_class(context, node)
        self._mark_components()

    def _mark_components(self) -> None:
        component_names = {"Component"}
        changed = True
        while changed:
            changed = False
            for info in self.by_name.values():
                if info.is_component:
                    continue
                if any(
                    base in component_names for base in info.base_names
                ):
                    info.is_component = True
                    component_names.add(info.name)
                    changed = True

    def components(self) -> List[ClassInfo]:
        """Component subclasses, excluding ``Component`` itself, in a
        deterministic (file, line) order."""
        return sorted(
            (
                info
                for info in self.by_name.values()
                if info.is_component
            ),
            key=lambda info: (info.context.path, info.node.lineno),
        )

    def mro(self, info: ClassInfo) -> List[ClassInfo]:
        """The class plus every analyzed ancestor (C3 niceties skipped —
        the component hierarchy is single-inheritance)."""
        seen: List[ClassInfo] = []
        stack = [info]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.append(current)
            for base in current.base_names:
                parent = self.by_name.get(base)
                if parent is not None:
                    stack.append(parent)
        return seen

    def owned_roots(self, info: ClassInfo) -> Set[str]:
        roots: Set[str] = set()
        for ancestor in self.mro(info):
            roots |= ancestor.owned_roots
        return roots

    def find_method(
        self, info: ClassInfo, name: str, start: int = 0
    ) -> Optional[Tuple[ClassInfo, ast.FunctionDef]]:
        """Resolve ``name`` along the MRO, starting at position
        ``start`` (used to dispatch ``super().method()``)."""
        for ancestor in self.mro(info)[start:]:
            method = ancestor.methods.get(name)
            if method is not None:
                return ancestor, method
        return None


# ---------------------------------------------------------------------------
# Event extraction from evaluate()
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegisterEvent:
    """One register access inside (the closure of) ``evaluate()``.

    ``kind`` is ``"read"`` (``.q``) or ``"drive"``;
    ``path`` is normalized (``self.…``, subscripts as ``[*]``);
    ``context``/``line`` locate the access lexically, which may be in a
    base-class file when the event comes from an inlined ``super()``
    call.
    """

    kind: str
    path: str
    context: FileContext
    line: int


class _EventWalker:
    """Walks ``evaluate()`` in source order, inlining ``self`` helper
    calls one level deep and ``super().evaluate()`` at equal depth."""

    def __init__(self, table: ClassTable, info: ClassInfo) -> None:
        self.table = table
        self.info = info
        self.events: List[RegisterEvent] = []
        self._active: Set[Tuple[str, str]] = set()

    def walk(self) -> List[RegisterEvent]:
        found = self.table.find_method(self.info, "evaluate")
        if found is None:
            return []
        owner, method = found
        self._walk_method(owner, method, depth=0)
        return self.events

    # -- statements --------------------------------------------------------

    def _walk_method(
        self, owner: ClassInfo, method: ast.FunctionDef, depth: int
    ) -> None:
        key = (owner.name, method.name)
        if key in self._active:
            return
        self._active.add(key)
        try:
            aliases: Dict[str, str] = {}
            self._walk_body(method.body, aliases, owner, depth)
        finally:
            self._active.discard(key)

    def _walk_body(
        self,
        body: Sequence[ast.stmt],
        aliases: Dict[str, str],
        owner: ClassInfo,
        depth: int,
    ) -> None:
        for stmt in body:
            self._walk_stmt(stmt, aliases, owner, depth)

    def _walk_stmt(
        self,
        stmt: ast.stmt,
        aliases: Dict[str, str],
        owner: ClassInfo,
        depth: int,
    ) -> None:
        if isinstance(stmt, ast.Assign):
            self._emit_expr(stmt.value, aliases, owner, depth)
            if len(stmt.targets) == 1 and isinstance(
                stmt.targets[0], ast.Name
            ):
                path = self._resolve(stmt.value, aliases)
                name = stmt.targets[0].id
                if path is not None:
                    aliases[name] = path
                else:
                    aliases.pop(name, None)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._emit_expr(stmt.value, aliases, owner, depth)
                if isinstance(stmt.target, ast.Name):
                    path = self._resolve(stmt.value, aliases)
                    if path is not None:
                        aliases[stmt.target.id] = path
                    else:
                        aliases.pop(stmt.target.id, None)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._emit_expr(stmt.iter, aliases, owner, depth)
            if isinstance(stmt.target, ast.Name):
                path = self._resolve(stmt.iter, aliases)
                if path is not None:
                    aliases[stmt.target.id] = path + "[*]"
                else:
                    aliases.pop(stmt.target.id, None)
            self._walk_body(stmt.body, aliases, owner, depth)
            self._walk_body(stmt.orelse, aliases, owner, depth)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._emit_expr(stmt.test, aliases, owner, depth)
            self._walk_body(stmt.body, aliases, owner, depth)
            self._walk_body(stmt.orelse, aliases, owner, depth)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._emit_expr(item.context_expr, aliases, owner, depth)
            self._walk_body(stmt.body, aliases, owner, depth)
            return
        if isinstance(stmt, ast.Try):
            self._walk_body(stmt.body, aliases, owner, depth)
            for handler in stmt.handlers:
                self._walk_body(handler.body, aliases, owner, depth)
            self._walk_body(stmt.orelse, aliases, owner, depth)
            self._walk_body(stmt.finalbody, aliases, owner, depth)
            return
        # Expr, Return, Raise, AugAssign, Assert, ... — scan expressions.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._emit_expr(child, aliases, owner, depth)

    # -- expressions -------------------------------------------------------

    def _emit_expr(
        self,
        expr: ast.expr,
        aliases: Dict[str, str],
        owner: ClassInfo,
        depth: int,
    ) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._handle_call(node, aliases, owner, depth)
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == _READ_ATTR
                and isinstance(node.ctx, ast.Load)
            ):
                path = self._resolve(node.value, aliases)
                if path is not None and path.startswith("self."):
                    self.events.append(
                        RegisterEvent(
                            kind="read",
                            path=path,
                            context=owner.context,
                            line=node.lineno,
                        )
                    )

    def _handle_call(
        self,
        node: ast.Call,
        aliases: Dict[str, str],
        owner: ClassInfo,
        depth: int,
    ) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == _DRIVE_METHOD:
            path = self._resolve(func.value, aliases)
            if path is not None and path.startswith("self."):
                self.events.append(
                    RegisterEvent(
                        kind="drive",
                        path=path,
                        context=owner.context,
                        line=node.lineno,
                    )
                )
            return
        # self.helper(...) — inline one level below evaluate().
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and depth < _MAX_HELPER_DEPTH
        ):
            found = self.table.find_method(self.info, func.attr)
            if found is not None:
                helper_owner, helper = found
                self._walk_method(helper_owner, helper, depth + 1)
            return
        # super().method(...) — continue in the base class at the same
        # depth: it is still the component's own evaluate() closure.
        if (
            isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
        ):
            lineage = self.table.mro(self.info)
            try:
                position = lineage.index(owner)
            except ValueError:
                position = 0
            found = self.table.find_method(
                self.info, func.attr, start=position + 1
            )
            if found is not None:
                base_owner, base_method = found
                self._walk_method(base_owner, base_method, depth)

    # -- path resolution ---------------------------------------------------

    def _resolve(
        self, expr: ast.expr, aliases: Dict[str, str]
    ) -> Optional[str]:
        """Normalized ``self``-rooted path of ``expr``, or ``None``."""
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return "self"
            return aliases.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._resolve(expr.value, aliases)
            if base is None:
                return None
            return f"{base}.{expr.attr}"
        if isinstance(expr, ast.Subscript):
            base = self._resolve(expr.value, aliases)
            if base is None:
                return None
            return f"{base}[*]"
        return None


def _root_of(path: str) -> str:
    """First attribute segment of a normalized ``self.…`` path."""
    rest = path[len("self.") :]
    for index, char in enumerate(rest):
        if char in ".[":
            return rest[:index]
    return rest


# ---------------------------------------------------------------------------
# The project-wide contract audit
# ---------------------------------------------------------------------------

KC_RULES: Tuple[Rule, ...] = (
    Rule(
        rule_id="KC002",
        title="undeclared-register-write",
        description=(
            "evaluate() drives a register the component does not own — "
            "a double-drive hazard; write through Link.send() instead"
        ),
        severity=Severity.ERROR,
        kind="project",
    ),
    Rule(
        rule_id="KC003",
        title="drive-then-read",
        description=(
            "evaluate() reads .q of a register it drove earlier in the "
            "same call; .q still holds last cycle's value — reorder to "
            "read-before-drive"
        ),
        severity=Severity.WARNING,
        kind="project",
    ),
)

for _kc in KC_RULES:
    register(_kc)


def audit_component(
    table: ClassTable, info: ClassInfo
) -> List[Finding]:
    """Contract findings for one component class (unsuppressed)."""
    events = _EventWalker(table, info).walk()
    if not events:
        return []
    owned = table.owned_roots(info)
    findings: List[Finding] = []
    driven: Set[str] = set()
    for event in events:
        if event.kind == "drive":
            driven.add(event.path)
            if _root_of(event.path) not in owned:
                findings.append(
                    Finding(
                        rule="KC002",
                        severity=Severity.ERROR,
                        file=event.context.path,
                        line=event.line,
                        message=(
                            f"component {info.name!r} drives "
                            f"{event.path!r} which it does not own — "
                            f"double-drive hazard"
                        ),
                        hint=(
                            "only drive registers created with "
                            "make_register(); cross-component writes go "
                            "through Link.send()"
                        ),
                    )
                )
            continue
        # read
        if event.path in driven:
            findings.append(
                Finding(
                    rule="KC003",
                    severity=Severity.WARNING,
                    file=event.context.path,
                    line=event.line,
                    message=(
                        f"component {info.name!r} reads "
                        f"{event.path!r}.q after driving "
                        f"{event.path!r} earlier in the same "
                        f"evaluate() — .q still holds last cycle's "
                        f"value"
                    ),
                    hint=(
                        "read .q before calling drive() so the "
                        "two-phase intent is explicit"
                    ),
                )
            )
    return findings


def audit_contracts(
    contexts: Sequence[FileContext],
    only: Optional[Iterable[str]] = None,
    respect_suppressions: bool = True,
) -> List[Finding]:
    """Run the kernel-contract audit over a set of parsed files."""
    wanted = (
        None
        if only is None
        else {rule_id.strip().upper() for rule_id in only}
    )
    table = ClassTable(contexts)
    findings: List[Finding] = []
    by_path = {context.path: context for context in contexts}
    for info in table.components():
        for finding in audit_component(table, info):
            if wanted is not None and finding.rule not in wanted:
                continue
            if respect_suppressions:
                home = by_path.get(finding.file)
                if home is not None and home.suppressions.suppressed(
                    finding.line, finding.rule
                ):
                    continue
            findings.append(finding)
    return sort_findings(findings)


@rule(
    "KC004",
    "register-write-outside-the-door",
    "writes a register's output (.q) outside repro.sim — write it "
    "through Kernel.write_register, which notes it for the compiled "
    "engine's next entry",
)
def check_register_writes(context: FileContext) -> Iterable[Finding]:
    if "repro/sim/" in os.path.normpath(context.path).replace(os.sep, "/"):
        return
    for node in ast.walk(context.tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            written = any(
                isinstance(target, ast.Attribute)
                and target.attr == "q"
                and isinstance(target.ctx, ast.Store)
                for outer in targets
                for target in ast.walk(outer)
            )
        else:
            written = (
                isinstance(node, ast.Call)
                and _dotted(node.func) == "setattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "q"
            )
        if written:
            yield Finding(
                rule="KC004",
                severity=Severity.ERROR,
                file=context.path,
                line=node.lineno,
                message="writes a register's output .q outside repro.sim",
                hint="write it through kernel.write_register(register, value)",
            )


# ---------------------------------------------------------------------------
# Per-file determinism and error-hygiene rules
# ---------------------------------------------------------------------------

_NONDET_RANDOM = {
    "betavariate",
    "choice",
    "choices",
    "expovariate",
    "gauss",
    "getrandbits",
    "normalvariate",
    "randbytes",
    "randint",
    "random",
    "randrange",
    "sample",
    "shuffle",
    "triangular",
    "uniform",
}

_WALLCLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_BUILTIN_EXCEPTIONS = {
    "ArithmeticError",
    "AssertionError",
    "AttributeError",
    "BaseException",
    "Exception",
    "IOError",
    "IndexError",
    "KeyError",
    "LookupError",
    "OSError",
    "OverflowError",
    "RuntimeError",
    "StopIteration",
    "TypeError",
    "ValueError",
    "ZeroDivisionError",
}


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted things they import.

    ``import time as t`` → ``{"t": "time"}``; ``from random import
    randint`` → ``{"randint": "random.randint"}``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            for name in node.names:
                aliases[name.asname or name.name] = (
                    f"{node.module}.{name.name}"
                )
    return aliases


def _dotted(expr: ast.expr) -> Optional[str]:
    """Pure ``Name.attr.attr…`` chain as a dotted string."""
    parts: List[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name):
        return None
    parts.append(expr.id)
    return ".".join(reversed(parts))


def _resolved_call_name(
    node: ast.Call, aliases: Dict[str, str]
) -> Optional[str]:
    dotted = _dotted(node.func)
    if dotted is None:
        return None
    head, _, tail = dotted.partition(".")
    head = aliases.get(head, head)
    return f"{head}.{tail}" if tail else head


@rule(
    "DT001",
    "unseeded-random",
    "module-global random (or an unseeded random.Random()) makes "
    "simulations irreproducible and breaks the Hypothesis differential "
    "suites — use repro.traffic.Lcg or random.Random(seed)",
)
def check_unseeded_random(context: FileContext) -> Iterable[Finding]:
    aliases = _import_aliases(context.tree)
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _resolved_call_name(node, aliases)
        if name is None:
            continue
        flagged = False
        if name.startswith("random.") and (
            name.split(".", 1)[1] in _NONDET_RANDOM
        ):
            flagged = True
        if name == "random.Random" and not (node.args or node.keywords):
            flagged = True
        if name.startswith("numpy.random.") or name.startswith(
            "np.random."
        ):
            flagged = True
        if flagged:
            yield Finding(
                rule="DT001",
                severity=Severity.ERROR,
                file=context.path,
                line=node.lineno,
                message=(
                    f"call to {name}() draws from process-global "
                    f"random state — simulations become "
                    f"irreproducible"
                ),
                hint=(
                    "use repro.traffic.Lcg or a random.Random(seed) "
                    "instance threaded through explicitly"
                ),
            )


@rule(
    "DT002",
    "wall-clock-read",
    "reading wall-clock time inside the library makes runs "
    "non-deterministic; cycle counts are the only clock",
)
def check_wall_clock(context: FileContext) -> Iterable[Finding]:
    aliases = _import_aliases(context.tree)
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _resolved_call_name(node, aliases)
        if name in _WALLCLOCK:
            yield Finding(
                rule="DT002",
                severity=Severity.ERROR,
                file=context.path,
                line=node.lineno,
                message=(
                    f"call to {name}() reads the wall clock — "
                    f"simulation behaviour must depend only on the "
                    f"cycle counter"
                ),
                hint=(
                    "derive timing from kernel cycles; benchmarks "
                    "measure externally"
                ),
            )


@rule(
    "ER001",
    "non-domain-raise",
    "domain failures must raise repro.errors types with actionable "
    "messages, not builtin exceptions",
)
def check_domain_raises(context: FileContext) -> Iterable[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        name: Optional[str] = None
        if isinstance(exc, ast.Name):
            name = exc.id
        if name in _BUILTIN_EXCEPTIONS:
            yield Finding(
                rule="ER001",
                severity=Severity.ERROR,
                file=context.path,
                line=node.lineno,
                message=(
                    f"raises builtin {name} — callers cannot "
                    f"discriminate library failures from bugs"
                ),
                hint=(
                    "raise a repro.errors subclass (ParameterError, "
                    "TopologyError, SimulationError, ...) with an "
                    "actionable message"
                ),
            )
