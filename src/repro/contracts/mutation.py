"""Rule family 2: journal mutation discipline for Versioned containers.

Every mutable backing collection of a :class:`repro.versioning.Versioned`
container (the observed dataset's dicts, the campaign results' lists, the
report's results map...) must only be mutated from the container's **own
module** — where the journal-emitting mutators live — or from the exempt
versioning machinery itself (``_EXEMPT_MODULES``: :mod:`repro.versioning`).
A direct mutation anywhere else
(``dataset.interface_asn[ip] = ...``, ``result.vantage_points.update(...)``,
``del report.results[key]``) silently bypasses both the change journal and
the generation stamp: derived indexes and the step-result cache keep serving
stale state until an unrelated size change happens to re-key them.

The rule discovers Versioned subclasses and their mutable fields
syntactically (so it follows the tree under analysis, fixtures included) and
resolves mutation receivers conservatively:

* a receiver constructed from a known class (``x = PingCampaignResult()``),
  annotated with one (``def f(dataset: ObservedDataset)``) or being ``self``
  inside a class body is resolved to that class — violations are certain;
* an unresolvable receiver is flagged only when the mutated attribute name
  is *unique* to Versioned containers across the tree; names shared with
  ordinary classes (e.g. ``SourceSnapshot``'s mirror fields) are skipped
  rather than guessed at.

Aliases of a backing collection (``facs = dataset.as_facilities`` followed
by ``facs[asn] = ...``, or the value returned by ``.setdefault``/``.get``)
are tracked one level deep within a function.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.contracts.model import Violation
from repro.contracts.tree import ClassInfo, ModuleInfo, SourceTree, walk_scope

#: Modules exempt from the rule, relative to the analyzed package: the
#: versioning machinery itself.
_EXEMPT_MODULES: tuple[str, ...] = ("versioning",)

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


@dataclass(frozen=True)
class _FieldOwners:
    """Where one versioned mutable field name is defined."""

    classes: tuple[str, ...]
    modules: tuple[str, ...]
    ambiguous: bool  # also declared by a non-versioned class somewhere


def _collect_field_owners(tree: SourceTree) -> dict[str, _FieldOwners]:
    versioned_by_name = {info.name for info in tree.versioned_classes}
    owners: dict[str, _FieldOwners] = {}
    fields: dict[str, tuple[set[str], set[str]]] = {}
    for info in tree.versioned_classes:
        for field_name in info.mutable_fields:
            classes, modules = fields.setdefault(field_name, (set(), set()))
            classes.add(info.name)
            modules.add(info.module)
    for field_name, (classes, modules) in fields.items():
        ambiguous = any(
            field_name in info.fields
            for definitions in tree.classes_by_name.values()
            for info in definitions
            if info.name not in versioned_by_name
        )
        owners[field_name] = _FieldOwners(
            classes=tuple(sorted(classes)),
            modules=tuple(sorted(modules)),
            ambiguous=ambiguous,
        )
    return owners


class _FunctionScan:
    """Receiver typing and mutation-site detection within one function."""

    def __init__(
        self,
        checker: "MutationChecker",
        module: ModuleInfo,
        owner: ClassInfo | None,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
    ) -> None:
        self.checker = checker
        self.module = module
        self.owner = owner
        self.func = func
        self.qualname = qualname
        #: var name -> class name it was constructed from / annotated with.
        self.types: dict[str, str] = {}
        #: var name -> versioned field it aliases the backing collection of.
        self.aliases: dict[str, str] = {}

    # -------------------------------------------------------------- #
    def _class_for_name(self, name: str) -> str | None:
        """A constructor/annotation name resolved to a known class name."""
        if name in self.checker.tree.classes_by_name:
            return name
        imported = self.module.imports.get(name, "")
        tail = imported.rsplit(".", 1)[-1]
        if tail in self.checker.tree.classes_by_name:
            return tail
        return None

    def _annotation_class(self, annotation: ast.expr | None) -> str | None:
        if annotation is None:
            return None
        text = ast.unparse(annotation)
        for token in text.replace("[", " ").replace("]", " ").replace("|", " ").split():
            token = token.strip('"\',').rsplit(".", 1)[-1]
            resolved = self._class_for_name(token)
            if resolved is not None:
                return resolved
        return None

    def _bind(self) -> None:
        args = self.func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            resolved = self._annotation_class(arg.annotation)
            if resolved is not None:
                self.types[arg.arg] = resolved
        if self.owner is not None:
            self.types["self"] = self.owner.name
        for node in walk_scope(self.func):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                if isinstance(target, ast.Name):
                    resolved = self._annotation_class(node.annotation)
                    if resolved is not None:
                        self.types[target.id] = resolved
            if not isinstance(target, ast.Name) or value is None:
                continue
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                resolved = self._class_for_name(value.func.id)
                if resolved is not None:
                    self.types[target.id] = resolved
            backing = self._backing_field(value)
            if backing is not None:
                self.aliases[target.id] = backing

    def _backing_field(self, value: ast.expr) -> str | None:
        """The versioned field whose backing collection ``value`` aliases."""
        expr = value
        # x = recv.field.setdefault(...) / recv.field.get(...) share backing.
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("setdefault", "get")
        ):
            expr = expr.func.value
        if isinstance(expr, ast.Attribute):
            field_name = self._tracked_field(expr)
            if field_name is not None:
                return field_name
        return None

    # -------------------------------------------------------------- #
    def _receiver_class(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return self.types.get(node.id)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return self._class_for_name(node.func.id)
        return None

    def _exempt_module(self) -> bool:
        package = self.checker.tree.package
        return any(
            self.module.module == f"{package}.{suffix}"
            for suffix in _EXEMPT_MODULES
        )

    def _tracked_field(self, attribute: ast.Attribute) -> str | None:
        """The versioned field this attribute access denotes, if flagged.

        Applies the whole receiver-resolution policy; returns ``None`` when
        the access is allowed here (own module, non-versioned receiver or
        ambiguous unresolved name).
        """
        field_name = attribute.attr
        owners = self.checker.field_owners.get(field_name)
        if owners is None:
            return None
        receiver = self._receiver_class(attribute.value)
        if receiver is not None:
            if receiver not in owners.classes:
                return None  # a known non-versioned class's own attribute
            if self.module.module in owners.modules:
                return None  # the container's own module
            if self._exempt_module():
                return None
            return field_name
        if self.module.module in owners.modules:
            return None
        if self._exempt_module():
            return None
        if owners.ambiguous:
            return None
        return field_name

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
                    self._check_target(target, node, op="del")
            elif isinstance(node, ast.Call):
                self._check_call(node)

    def _check_target(
        self, target: ast.expr, node: ast.stmt, *, op: str | None = None
    ) -> None:
        if isinstance(target, ast.Subscript):
            base = target.value
            operation = op or "subscript-assignment"
            if isinstance(base, ast.Attribute):
                field_name = self._tracked_field(base)
                if field_name is not None:
                    self._emit(node, field_name, operation)
            elif isinstance(base, ast.Name) and base.id in self.aliases:
                self._emit(node, self.aliases[base.id], f"{operation}-via-alias")
        elif isinstance(target, ast.Attribute) and op != "del":
            field_name = self._tracked_field(target)
            if field_name is not None:
                self._emit(node, field_name, "rebind")
        elif isinstance(target, ast.Attribute) and op == "del":
            field_name = self._tracked_field(target)
            if field_name is not None:
                self._emit(node, field_name, "del")

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in MUTATING_METHODS:
            return
        base = func.value
        if isinstance(base, ast.Attribute):
            field_name = self._tracked_field(base)
            if field_name is not None:
                self._emit(node, field_name, f".{func.attr}()")
        elif isinstance(base, ast.Name) and base.id in self.aliases:
            self._emit(node, self.aliases[base.id], f".{func.attr}()-via-alias")

    def _emit(self, node: ast.AST, field_name: str, operation: str) -> None:
        owners = self.checker.field_owners[field_name]
        self.checker.emit(
            path=self.module.path,
            line=getattr(node, "lineno", 0),
            context=f"{self.module.module}:{self.qualname}",
            detail=f"{field_name}:{operation}",
            message=(
                f"direct mutation ({operation}) of Versioned field "
                f"{field_name!r} (container {', '.join(owners.classes)}) outside "
                f"its defining module — use the container's journal-emitting "
                f"mutator, or invalidate_caches() via a mutator added to "
                f"{', '.join(owners.modules)}"
            ),
        )


class MutationChecker:
    """Runs rule family 2 over every module of a source tree."""

    def __init__(self, tree: SourceTree) -> None:
        self.tree = tree
        self.field_owners = _collect_field_owners(tree)
        self.violations: list[Violation] = []

    def emit(
        self, *, path: Path, line: int, context: str, detail: str, message: str
    ) -> None:
        self.violations.append(
            Violation(
                rule="mutation",
                kind="direct-mutation",
                path=self.tree.display_path(path),
                line=line,
                context=context,
                detail=detail,
                message=message,
            )
        )

    def run(self) -> list[Violation]:
        for module in self.tree.modules.values():
            self._scan_scope(module, module.node.body, owner=None, prefix="")
        self.violations.sort(key=lambda v: (v.path, v.line))
        return self.violations

    def _scan_scope(
        self,
        module: ModuleInfo,
        body: list[ast.stmt],
        owner: ClassInfo | None,
        prefix: str,
    ) -> None:
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{statement.name}"
                _FunctionScan(self, module, owner, statement, qualname).scan()
                self._scan_scope(module, statement.body, owner, f"{qualname}.")
            elif isinstance(statement, ast.ClassDef):
                class_info = None
                for candidate in self.tree.classes_by_name.get(statement.name, []):
                    if candidate.node is statement:
                        class_info = candidate
                self._scan_scope(
                    module, statement.body, class_info, f"{statement.name}."
                )


def check_mutation_discipline(tree: SourceTree) -> list[Violation]:
    """Run rule family 2 over a source tree."""
    return MutationChecker(tree).run()
