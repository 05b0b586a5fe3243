"""Parsed-source model shared by the contract-checker rules.

One :class:`SourceTree` parses every module under a ``repro`` package root
exactly once and exposes the class-level facts the rules need:

* every class definition with its base names, annotated fields and
  ``self.<name> = ...`` constructor fields;
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
            info.fields[statement.target.id] = annotation_text(statement.annotation)
        elif isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    info.fields.setdefault(target.id, "")
    for method_name in ("__init__", "__post_init__"):
        method = info.method(method_name)
        if method is None:
            continue
        for node in ast.walk(method):
            target: ast.expr | None = None
            annotation = ""
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                annotation = annotation_text(node.annotation)
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                info.fields.setdefault(target.attr, annotation)


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
