"""Parsed-source model shared by the contract-checker rules.

One :class:`SourceTree` parses every module under a ``repro`` package root
exactly once and exposes the class-level facts the rules need:

* every class definition with its base names, annotated fields and
  ``self.<name> = ...`` constructor fields;
* the transitive descendants of :class:`repro.versioning.Versioned`;
* per-module import aliasing (``from x import Y as Z``), so receivers can be
  resolved back to the classes they were constructed from.

Everything here is purely syntactic — no module under analysis is imported,
so the checker can run over patched copies of the tree (the self-test
fixtures) exactly as it runs over the live checkout.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.contracts.model import ContractCheckError

#: Builtin container constructors whose values make a field "mutable" for the
#: mutation-discipline rule.
_MUTABLE_BUILTINS = ("dict", "list", "set", "deque", "defaultdict", "Counter")


def walk_scope(func: ast.AST) -> "list[ast.AST]":
    """Every node of one function scope, pruning nested def/class bodies.

    Unlike :func:`ast.walk`, statements inside nested functions and classes
    are *not* yielded — they are separate scopes and are scanned separately,
    so yielding them here would double-report their findings.
    """
    nodes: list[ast.AST] = []
    stack: list[ast.AST] = [func]
    while stack:
        node = stack.pop()
        nodes.append(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.append(child)
    return nodes


def annotation_text(node: ast.AST | None) -> str:
    """The source text of an annotation, or ``""`` when absent."""
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except ValueError:  # pragma: no cover - defensive; unparse rarely fails
        return ""


def is_mutable_annotation(text: str) -> bool:
    """Whether an annotation denotes a plain mutable container field."""
    cleaned = text.strip().strip('"').strip("'")
    return cleaned.startswith(_MUTABLE_BUILTINS) or cleaned.startswith(
        ("Dict[", "List[", "Set[")
    )


def _is_mutable_default(node: ast.expr | None) -> bool:
    """Whether a field default/value builds a mutable builtin container."""
    if node is None:
        return False
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _MUTABLE_BUILTINS:
            return True
        # dataclasses.field(default_factory=dict) and friends.
        if isinstance(func, ast.Name) and func.id == "field":
            for keyword in node.keywords:
                if keyword.arg == "default_factory":
                    factory = keyword.value
                    if (
                        isinstance(factory, ast.Name)
                        and factory.id in _MUTABLE_BUILTINS
                    ):
                        return True
    return False


@dataclass
class ClassInfo:
    """Syntactic facts about one class definition."""

    name: str
    module: str
    path: Path
    node: ast.ClassDef
    base_names: tuple[str, ...]
    #: field name -> annotation text ("" when the field has no annotation).
    fields: dict[str, str] = field(default_factory=dict)
    #: fields whose annotation or default marks them as mutable containers.
    mutable_fields: set[str] = field(default_factory=set)

    def method(self, name: str) -> ast.FunctionDef | None:
        """The named method's AST, if defined directly on this class."""
        for statement in self.node.body:
            if isinstance(statement, ast.FunctionDef) and statement.name == name:
                return statement
        return None


@dataclass
class ModuleInfo:
    """One parsed module of the analyzed tree."""

    module: str
    path: Path
    node: ast.Module
    #: local name -> fully qualified imported name ("repro.core.engine.Foo").
    imports: dict[str, str] = field(default_factory=dict)


def _collect_class(info: ClassInfo) -> None:
    """Fill a class's field tables from its body and constructors."""
    for statement in info.node.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            text = annotation_text(statement.annotation)
            info.fields[statement.target.id] = text
            if is_mutable_annotation(text) or _is_mutable_default(statement.value):
                info.mutable_fields.add(statement.target.id)
        elif isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    info.fields.setdefault(target.id, "")
                    if _is_mutable_default(statement.value):
                        info.mutable_fields.add(target.id)
    for method_name in ("__init__", "__post_init__"):
        method = info.method(method_name)
        if method is None:
            continue
        for node in ast.walk(method):
            target: ast.expr | None = None
            value: ast.expr | None = None
            annotation = ""
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                annotation = annotation_text(node.annotation)
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                info.fields.setdefault(target.attr, annotation)
                if is_mutable_annotation(annotation) or _is_mutable_default(value):
                    info.mutable_fields.add(target.attr)


class SourceTree:
    """Every module under one ``repro`` package root, parsed once."""

    def __init__(self, root: Path) -> None:
        self.root = root.resolve()
        if not (self.root / "__init__.py").is_file():
            raise ContractCheckError(
                f"{root} is not a package root (no __init__.py); expected the "
                "directory of the 'repro' package, e.g. src/repro"
            )
        self.package = self.root.name
        self.modules: dict[str, ModuleInfo] = {}
        #: class name -> every definition of that name in the tree.
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        self._parse_all()
        self.versioned_classes = self._resolve_versioned()

    # ------------------------------------------------------------------ #
    def _parse_all(self) -> None:
        for path in sorted(self.root.rglob("*.py")):
            relative = path.relative_to(self.root)
            parts = (self.package, *relative.parts[:-1])
            stem = relative.stem
            module = ".".join(parts if stem == "__init__" else (*parts, stem))
            try:
                node = ast.parse(path.read_text(encoding="utf-8"))
            except SyntaxError as error:
                raise ContractCheckError(f"cannot parse {path}: {error}") from error
            info = ModuleInfo(module=module, path=path, node=node)
            for statement in node.body:
                if isinstance(statement, ast.ImportFrom) and statement.module:
                    for alias in statement.names:
                        local = alias.asname or alias.name
                        info.imports[local] = f"{statement.module}.{alias.name}"
            self.modules[module] = info
            for statement in node.body:
                if isinstance(statement, ast.ClassDef):
                    self._register_class(info, statement)

    def _register_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        bases: list[str] = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                bases.append(base.attr)
        info = ClassInfo(
            name=node.name,
            module=module.module,
            path=module.path,
            node=node,
            base_names=tuple(bases),
        )
        _collect_class(info)
        self.classes_by_name.setdefault(node.name, []).append(info)

    def _resolve_versioned(self) -> list[ClassInfo]:
        """Transitive subclasses of ``Versioned``, resolved by base name."""
        versioned_names = {"Versioned"}
        changed = True
        while changed:
            changed = False
            for name, definitions in self.classes_by_name.items():
                if name in versioned_names:
                    continue
                for info in definitions:
                    if any(base in versioned_names for base in info.base_names):
                        versioned_names.add(name)
                        changed = True
                        break
        return [
            info
            for name in versioned_names
            if name != "Versioned"
            for info in self.classes_by_name.get(name, [])
        ]

    # ------------------------------------------------------------------ #
    def display_path(self, path: Path) -> str:
        """A stable, repo-relative rendering of a tree path.

        The analyzed root is conventionally ``<repo>/src/repro``; findings
        are reported relative to ``<repo>`` so CI annotations anchor on the
        diff.  Falls back to the path relative to the root's parent.
        """
        resolved = path.resolve()
        for base in (self.root.parent.parent, self.root.parent):
            try:
                return resolved.relative_to(base).as_posix()
            except ValueError:
                continue
        return resolved.as_posix()
