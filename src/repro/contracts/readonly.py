"""Rule family 3: pipeline outcomes are read-only downstream.

A :class:`repro.core.engine.PipelineOutcome` (and everything reachable from
one — the inference report, the RTT summary, the feasibility/crossing maps)
is **shared**: ``RemotePeeringStudy.outcome`` is computed once and read by
every consumer of the study, and although each run (``.sweep()`` included)
builds fresh outcome containers, the objects inside them — feasibility
analyses, crossings, routers, evidence values — are the step-result
cache's, handed to every later run with an unchanged key.  A consumer that
mutates one — an experiment annotating ``outcome.feasible``, an analysis
popping entries out of a replayed report — corrupts every other consumer of
the same objects, in an order-dependent way that no single test sees.

This rule therefore treats outcome values as tainted inside the consumer
packages (``experiments``, ``analysis``, ``validation``) and flags any
attribute assignment, element assignment/deletion or mutating method call
through them.  Taint starts at

* names annotated with an outcome type (:data:`READONLY_CLASSES`),
* reads of an ``.outcome`` attribute or ``.sweep(...)`` call (the study's
  entry points),

and propagates through attribute access, subscripts, ``.values()`` /
``.items()`` / ``.get()`` and loop targets iterating a tainted expression.
Fresh objects a consumer builds for itself (metrics dataclasses, local
accumulators) are untouched — taint only flows out of outcome reads.
"""

from __future__ import annotations

import ast

from repro.contracts.model import Violation
from repro.contracts.tree import (
    ModuleInfo,
    SourceTree,
    annotation_text,
    walk_scope,
)

#: Method calls that mutate a dict / list / set receiver in place.
MUTATING_METHODS: frozenset[str] = frozenset(
    {
        "append",
        "extend",
        "insert",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "add",
        "discard",
        "remove",
        "sort",
        "reverse",
    }
)

#: Annotations that mark a parameter/variable as replayed pipeline output.
READONLY_CLASSES: tuple[str, ...] = (
    "PipelineOutcome",
    "InferenceReport",
    "RTTCampaignSummary",
)

#: Packages (relative to the analyzed package) the rule applies to.
CONSUMER_PACKAGES: tuple[str, ...] = ("experiments", "analysis", "validation")

#: Accessor calls through which taint flows from receiver to result.
_TRANSPARENT_CALLS: frozenset[str] = frozenset({"values", "items", "keys", "get"})


def _is_readonly_annotation(text: str) -> bool:
    return any(name in text for name in READONLY_CLASSES)


class _FunctionScan:
    """Taint tracking and mutation detection within one consumer function."""

    def __init__(
        self,
        module: ModuleInfo,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        violations: list[Violation],
        display_path: str,
    ) -> None:
        self.module = module
        self.func = func
        self.qualname = qualname
        self.violations = violations
        self.display_path = display_path
        self.tainted: set[str] = set()

    # -------------------------------------------------------------- #
    def _tainted_expr(self, node: ast.expr) -> bool:
        """Whether an expression denotes (part of) a replayed outcome."""
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Attribute):
            if node.attr == "outcome":
                return True  # any `<study>.outcome` read is a source
            return self._tainted_expr(node.value)
        if isinstance(node, ast.Subscript):
            return self._tainted_expr(node.value)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr == "sweep":
                    return True  # sweep outcomes hold cache-shared objects
                if func.attr in _TRANSPARENT_CALLS:
                    return self._tainted_expr(func.value)
        if isinstance(node, ast.IfExp):
            return self._tainted_expr(node.body) or self._tainted_expr(node.orelse)
        return False

    def _taint_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.tainted.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._taint_target(element)
        elif isinstance(target, ast.Starred):
            self._taint_target(target.value)

    def _bind(self) -> None:
        args = self.func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if _is_readonly_annotation(annotation_text(arg.annotation)):
                self.tainted.add(arg.arg)
        # Flow-insensitive fixpoint: propagate taint through assignments and
        # loop targets until no new names are tainted.
        changed = True
        while changed:
            changed = False
            before = len(self.tainted)
            for node in walk_scope(self.func):
                if isinstance(node, ast.Assign):
                    if self._tainted_expr(node.value):
                        for target in node.targets:
                            self._taint_target(target)
                elif isinstance(node, ast.AnnAssign):
                    if _is_readonly_annotation(annotation_text(node.annotation)) or (
                        node.value is not None and self._tainted_expr(node.value)
                    ):
                        self._taint_target(node.target)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    if self._tainted_expr(node.iter):
                        self._taint_target(node.target)
                elif isinstance(node, ast.NamedExpr):
                    if self._tainted_expr(node.value):
                        self._taint_target(node.target)
                elif isinstance(node, ast.comprehension):
                    if self._tainted_expr(node.iter):
                        self._taint_target(node.target)
            changed = len(self.tainted) != before

    # -------------------------------------------------------------- #
    def scan(self) -> None:
        self._bind()
        for node in walk_scope(self.func):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    self._check_target(target, node)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._check_target(target, node, deleting=True)
            elif isinstance(node, ast.Call):
                self._check_call(node)

    def _check_target(
        self, target: ast.expr, node: ast.stmt, *, deleting: bool = False
    ) -> None:
        if isinstance(target, ast.Attribute) and self._tainted_expr(target.value):
            op = "del" if deleting else "attribute-assignment"
            self._emit(node, target.attr, op)
        elif isinstance(target, ast.Subscript) and self._tainted_expr(target.value):
            op = "del" if deleting else "element-assignment"
            self._emit(node, self._describe(target.value), op)

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
            and self._tainted_expr(func.value)
        ):
            self._emit(node, self._describe(func.value), f".{func.attr}()")

    @staticmethod
    def _describe(node: ast.expr) -> str:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Subscript):
            return _FunctionScan._describe(node.value)
        return "<expr>"

    def _emit(self, node: ast.AST, name: str, operation: str) -> None:
        self.violations.append(
            Violation(
                rule="readonly",
                kind="outcome-mutation",
                path=self.display_path,
                line=getattr(node, "lineno", 0),
                context=f"{self.module.module}:{self.qualname}",
                detail=f"{name}:{operation}",
                message=(
                    f"mutation ({operation}) of {name!r}, which is reached from a "
                    "replayed PipelineOutcome — outcomes share objects with the "
                    "step cache and other runs; copy the data before editing it"
                ),
            )
        )


def check_readonly_outcomes(tree: SourceTree) -> list[Violation]:
    """Run rule family 3 over the consumer packages of a source tree."""
    violations: list[Violation] = []
    prefixes = tuple(f"{tree.package}.{name}" for name in CONSUMER_PACKAGES)
    for module in tree.modules.values():
        if not module.module.startswith(prefixes):
            continue
        display = tree.display_path(module.path)
        _scan_scope(module, module.node.body, "", violations, display)
    violations.sort(key=lambda v: (v.path, v.line))
    return violations


def _scan_scope(
    module: ModuleInfo,
    body: list[ast.stmt],
    prefix: str,
    violations: list[Violation],
    display: str,
) -> None:
    for statement in body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{statement.name}"
            _FunctionScan(module, statement, qualname, violations, display).scan()
            _scan_scope(
                module, statement.body, f"{qualname}.", violations, display
            )
        elif isinstance(statement, ast.ClassDef):
            _scan_scope(
                module, statement.body, f"{statement.name}.", violations, display
            )
