"""The project rule catalog (R001–R005).

Each rule encodes one invariant the serving stack's correctness
arguments lean on; the catalog is documented for humans in
``docs/architecture.md``.  Module rules take a parsed
:class:`~repro.analysis.engine.Module`; the project rule R003 takes the
whole module list.
"""

from __future__ import annotations

import ast
import re
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Set, Tuple

from .engine import Module, Violation
from .faultpoints import discover_in_tree

GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_]\w*)")
CALLER_HOLDS_RE = re.compile(r"#\s*caller-holds:\s*([A-Za-z_][\w,\s]*)")

# Wall-clock/sleep calls banned outside the injectable-Clock seam.  The
# serving stack schedules purely against ``Clock.now()`` so tests and
# chaos runs replay deterministically on FakeClock; ``time.perf_counter``
# stays legal (pure duration measurement, no scheduling authority).
FORBIDDEN_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.sleep",
        "time.monotonic",
        "time.monotonic_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

CLOCK_EXEMPT_FILES = ("serving/clock.py",)

# The one blessed home for serving-layer error types.
SERVING_ERRORS_FILE = "serving/errors.py"
BANNED_RAISE_TYPES = frozenset(
    {"RuntimeError", "Exception", "BaseException", "OSError", "IOError",
     "EnvironmentError"}
)


# ---------------------------------------------------------------------------
# Shared helpers


def _import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Local name → canonical dotted prefix for clock-relevant imports."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.name in ("time", "datetime"):
                    aliases[name.asname or name.name] = name.name
        elif isinstance(node, ast.ImportFrom) and node.module in (
            "time",
            "datetime",
        ):
            for name in node.names:
                canonical = f"{node.module}.{name.name}"
                aliases[name.asname or name.name] = canonical
    return aliases


def _dotted_parts(node: ast.expr) -> Optional[List[str]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _forbidden_clock_calls(module: Module) -> List[Tuple[int, str]]:
    """``(line, canonical_name)`` for every banned wall-clock call."""
    aliases = _import_aliases(module.tree)
    hits: List[Tuple[int, str]] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        parts = _dotted_parts(node.func)
        if not parts:
            continue
        canonical = aliases.get(parts[0])
        if canonical is None:
            continue
        full = ".".join([canonical, *parts[1:]])
        if full in FORBIDDEN_CLOCK_CALLS:
            hits.append((node.lineno, full))
    return hits


# ---------------------------------------------------------------------------
# R001 / R005 — clock discipline


def rule_r001_clock_discipline(module: Module) -> List[Violation]:
    """Library code schedules via the injectable Clock, never the OS."""
    if module.role != "src":
        return []
    if module.rel.endswith(CLOCK_EXEMPT_FILES):
        return []
    return [
        Violation(
            "R001",
            module.rel,
            line,
            f"{name}() outside serving/clock.py — route timing through the "
            "injectable Clock or waive with a documented rationale",
        )
        for line, name in _forbidden_clock_calls(module)
    ]


def rule_r005_deterministic_tests(module: Module) -> List[Violation]:
    """Tier-1 tests run on FakeClock: no real sleeps or wall clocks."""
    if module.role != "tests":
        return []
    return [
        Violation(
            "R005",
            module.rel,
            line,
            f"{name}() in tier-1 tests — drive time with FakeClock.advance "
            "so the suite stays deterministic and sleep-free",
        )
        for line, name in _forbidden_clock_calls(module)
    ]


# ---------------------------------------------------------------------------
# R002 — lock discipline


def _guarded_attributes(
    klass: ast.ClassDef, module: Module
) -> Dict[str, str]:
    """Attribute → lock name, from GuardedBy descriptors and comments."""
    guarded: Dict[str, str] = {}
    for statement in klass.body:
        if (
            isinstance(statement, ast.Assign)
            and len(statement.targets) == 1
            and isinstance(statement.targets[0], ast.Name)
            and isinstance(statement.value, ast.Call)
        ):
            callee = statement.value.func
            name = (
                callee.id
                if isinstance(callee, ast.Name)
                else callee.attr if isinstance(callee, ast.Attribute) else ""
            )
            if name == "GuardedBy" and statement.value.args:
                lock = statement.value.args[0]
                if isinstance(lock, ast.Constant) and isinstance(
                    lock.value, str
                ):
                    guarded[statement.targets[0].id] = lock.value
    init = _method(klass, "__init__")
    if init is not None:
        for node in ast.walk(init):
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                target = node.target
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                match = GUARDED_BY_RE.search(module.comment_on(node.lineno))
                if match:
                    guarded[target.attr] = match.group(1)
    return guarded


def _method(klass: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for statement in klass.body:
        if (
            isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
            and statement.name == name
        ):
            return statement
    return None


def _caller_holds(function: ast.FunctionDef, module: Module) -> Set[str]:
    """Locks a ``# caller-holds:`` annotation says are already held.

    The annotation may trail the ``def`` line (anywhere down to the
    first body statement) or sit on comment lines directly above the
    ``def`` / its decorators.
    """
    start = function.lineno
    if function.decorator_list:
        start = min(start, *(d.lineno for d in function.decorator_list))
    end = function.body[0].lineno if function.body else function.lineno
    lines = list(range(start, end + 1))
    above = start - 1
    while above >= 1 and above in module.comments:
        lines.append(above)
        above -= 1
    held: Set[str] = set()
    for line in lines:
        match = CALLER_HOLDS_RE.search(module.comment_on(line))
        if match:
            held.update(
                token.strip()
                for token in match.group(1).split(",")
                if token.strip()
            )
    return held


class _LockScopeVisitor(ast.NodeVisitor):
    """Walk a method body tracking which ``with self.<lock>`` blocks are
    lexically open, flagging guarded-attribute touches outside them."""

    def __init__(
        self,
        guarded: Dict[str, str],
        lock_names: Set[str],
        held: Set[str],
        module: Module,
    ):
        self.guarded = guarded
        self.lock_names = lock_names
        self.held = set(held)
        self.module = module
        self.violations: List[Violation] = []

    def _self_attr(self, node: ast.expr) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node) -> None:
        granted = []
        for item in node.items:
            attr = self._self_attr(item.context_expr)
            if attr is not None and attr in self.lock_names:
                if attr not in self.held:
                    granted.append(attr)
                    self.held.add(attr)
            else:
                self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        for statement in node.body:
            self.visit(statement)
        for attr in granted:
            self.held.discard(attr)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = self._self_attr(node)
        if attr is not None and attr in self.guarded:
            needed = self.guarded[attr]
            if needed not in self.held:
                self.violations.append(
                    Violation(
                        "R002",
                        self.module.rel,
                        node.lineno,
                        f"self.{attr} touched without holding {needed} "
                        f"(declared guarded-by {needed})",
                    )
                )
        self.generic_visit(node)


def rule_r002_lock_discipline(module: Module) -> List[Violation]:
    """Attributes declared guarded-by a lock are only touched under it.

    Guard declarations are lexical: a ``# guarded-by: _lock`` comment on
    the ``__init__`` assignment, or a class-level ``GuardedBy("_lock")``
    descriptor.  ``__init__`` itself is exempt (single-threaded
    construction); helpers called with the lock held declare it with
    ``# caller-holds: _lock`` on the ``def`` line.
    """
    violations: List[Violation] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        guarded = _guarded_attributes(node, module)
        if not guarded:
            continue
        lock_names = set(guarded.values())
        for statement in node.body:
            if not isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if statement.name == "__init__":
                continue
            visitor = _LockScopeVisitor(
                guarded,
                lock_names,
                _caller_holds(statement, module),
                module,
            )
            for child in statement.body:
                visitor.visit(child)
            violations.extend(visitor.violations)
    return violations


# ---------------------------------------------------------------------------
# R003 — fault-point coverage (project rule)


def rule_r003_fault_point_coverage(
    modules: List[Module],
) -> List[Violation]:
    """Every ``_fault(...)`` seam is pinned by at least one test literal.

    The crash sweep enumerates seams dynamically via
    ``record_fault_points``, so drift hides easily: a new seam silently
    joins the sweep without any test asserting it exists.  This rule
    statically recovers the seam set and requires each name to be
    matched (``fnmatch`` either direction) by a string literal somewhere
    under ``tests/`` — in practice the golden set in the drift test plus
    the targeted crash-at literals.
    """
    serialization = next(
        (
            m
            for m in modules
            if m.role == "src" and m.rel.endswith("core/serialization.py")
        ),
        None,
    )
    if serialization is None:
        return []
    seams = discover_in_tree(serialization.tree)
    violations: List[Violation] = []
    if not seams:
        return [
            Violation(
                "R003",
                serialization.rel,
                1,
                "no _fault(...) seams found — the durability protocol "
                "lost its crash instrumentation",
            )
        ]
    literals: Set[str] = set()
    for module in modules:
        if module.role != "tests":
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    for pattern, line in seams:
        covered = any(
            literal == pattern
            or fnmatchcase(literal, pattern)
            or fnmatchcase(pattern, literal)
            for literal in literals
        )
        if not covered:
            violations.append(
                Violation(
                    "R003",
                    serialization.rel,
                    line,
                    f"fault point {pattern!r} is not referenced by any "
                    "crash-sweep test — add it to the drift test's golden "
                    "seam set",
                )
            )
    return violations


# ---------------------------------------------------------------------------
# R004 — serving error taxonomy


def rule_r004_error_taxonomy(module: Module) -> List[Violation]:
    """Serving code raises typed errors, not bare stdlib RuntimeErrors.

    Callers key recovery decisions off the ``serving/errors.py`` types
    (backpressure vs. crash vs. quarantine), so an untyped raise is a
    control-flow hole.  Value/Type/Key errors stay legal — misuse of an
    API is not a serving condition.
    """
    if module.role != "src" or "serving/" not in module.rel:
        return []
    if module.rel.endswith(SERVING_ERRORS_FILE):
        return []
    violations: List[Violation] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = None
        if isinstance(exc, ast.Name):
            name = exc.id
        elif isinstance(exc, ast.Attribute):
            name = exc.attr
        if name in BANNED_RAISE_TYPES:
            violations.append(
                Violation(
                    "R004",
                    module.rel,
                    node.lineno,
                    f"raise {name} in serving code — use a typed error "
                    "from serving/errors.py so callers can key recovery "
                    "off the exception type",
                )
            )
    return violations


MODULE_RULES = {
    "R001": rule_r001_clock_discipline,
    "R002": rule_r002_lock_discipline,
    "R004": rule_r004_error_taxonomy,
    "R005": rule_r005_deterministic_tests,
}

PROJECT_RULES = {
    "R003": rule_r003_fault_point_coverage,
}
