"""Parsed-source model for the contract checker.

One :class:`SourceTree` parses every module under a ``repro`` package root
exactly once, recording each module's ``from x import Y as Z`` aliasing so
a rule can resolve a called name back to the module it came from.

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


@dataclass
class ModuleInfo:
    """One parsed module of the analyzed tree."""

    module: str
    path: Path
    node: ast.Module
    #: local name -> fully qualified imported name ("repro.core.engine.Foo").
    imports: dict[str, str] = field(default_factory=dict)


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
