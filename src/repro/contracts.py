"""Static contract checker: rule 5, determinism of the engine's modules.

The step-graph engine reuses a cached step result only because a cache hit
equals a recompute.  That holds only while the computations are
deterministic: results must not depend on wall-clock time, process-lifetime
randomness, hash-order of sets, object identity, or thread completion order.
This rule flags the syntactic shapes that break that assumption inside the
modules the engine executes (``repro.core``, ``repro.geo``,
``repro.netindex``, ``repro.traixroute``, ``repro.datasources``,
``repro.measurement``, whose corpus and ping-result accessors the
traceroute node and Step 2 run, and ``repro.alias``, whose resolver the
traceroute node reads).  Every module of those packages is parsed and walked
whole, so a def nested in any statement is scanned:

* ``nondeterministic-call`` — calls into ``time``/``random``/``os.urandom``/
  ``uuid``/``secrets``, and any call reached through ``numpy.random`` (under
  whichever alias the module imports numpy — ``numpy``, ``np`` or the
  optional-import handle ``_np``).  Seeded :class:`random.Random`
  *construction* is allowed (the simulation layer threads explicit RNGs
  through parameters, which is the deterministic idiom); calling
  module-level functions that share hidden global state is not.  Plain
  numpy array arithmetic is fine; only the ``numpy.random`` namespace is
  stateful.  A name bound by a top-level ``from x import y as z`` resolves
  to ``x.y``.
* ``unordered-iteration`` — a ``for`` loop directly over a set literal, set
  comprehension or ``set()``/``frozenset()`` call.  Iteration order of sets
  is insertion-and-hash dependent, so any ordered output fed from such a
  loop is unstable across processes; iterate ``sorted(...)`` instead.
  Loops over set-typed *variables* are deliberately not flagged: the
  order-insensitive reductions the tree legitimately performs (``min``/
  ``max`` spans, majority votes) would be false positives, and the literal
  form is the shape new code reaches for first.
* ``id-keyed-dict`` — a dict stored into (or comprehended) with an
  ``id(...)`` key.  Identity keys vary per process and per allocation, so
  such a dict can never participate in a reproducible result (identity
  *sets* used for cycle detection are fine and not flagged).
* ``completion-ordered-merge`` — any use of
  :func:`concurrent.futures.as_completed`: merging parallel results in
  completion order is scheduling-dependent by construction.

The number 5 is a stable name the docs refer to.  Rules 1 to 4 are gone
because the runtime now refuses what they approximated over the AST: each
step-graph node reads through capability views, so an undeclared read
raises :class:`~repro.exceptions.UndeclaredReadError`, and everything
reachable from a :class:`~repro.core.engine.PipelineOutcome` is immutable.

Run ``python -m repro.contracts [--root DIR] [--format text|github]``.  The
exit status is 0 when clean, 1 when a finding remains, and 2 when the
checker cannot run (the root is not a package, or a scoped module does not
parse).  Nothing under analysis is imported, so the checker runs over
patched copies of the tree exactly as over the live checkout.
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections.abc import Iterator, Mapping
from pathlib import Path
from typing import NamedTuple

from repro.exceptions import ReproError

#: The packages (under the analyzed root) the rule covers.
DETERMINISM_SCOPES: tuple[str, ...] = (
    "core",
    "geo",
    "netindex",
    "traixroute",
    "datasources",
    "measurement",
    "alias",
)

#: module name -> the attribute names that are nondeterministic to call.
#: ``None`` means every attribute of the module (``time.time``,
#: ``time.monotonic``, ``random.random``, ``secrets.token_hex``...).
_NONDETERMINISTIC_MODULES: dict[str, frozenset[str] | None] = {
    "time": None,
    "random": None,
    "secrets": None,
    "os": frozenset({"urandom", "getrandom"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
}

#: Names numpy is imported under: the module itself, its conventional alias
#: and ``_np``, the usual name of a handle bound by an optional import.
_NUMPY_ALIASES: frozenset[str] = frozenset({"numpy", "np", "_np"})

_NUMPY_RANDOM_MESSAGE = (
    "call through numpy.random: the legacy namespace shares hidden global "
    "state and even seeded Generators are not part of the engine's "
    "bit-identical contract — thread an explicitly seeded random.Random "
    "through parameters instead"
)
_AS_COMPLETED_MESSAGE = (
    "as_completed() yields results in thread completion order, which is "
    "scheduling-dependent; merge with the order-preserving executor.map instead"
)
_SET_ITERATION_MESSAGE = (
    "iterating a set literal/constructor directly: iteration order is "
    "hash-and-insertion dependent, so any ordered output fed from this loop "
    "is unstable — iterate sorted(...) instead"
)
_ID_KEY_REASON = (
    "object identity varies per process and allocation, so the mapping can "
    "never be part of a reproducible result — key by value instead"
)


class ContractCheckError(ReproError):
    """The checker itself could not run (not a package, unparseable module)."""


class Violation(NamedTuple):
    """One finding: its kind, repo-relative file, 1-indexed line and message."""

    kind: str
    path: str
    line: int
    message: str


def _nondeterministic_name(func: ast.expr, imports: Mapping[str, str]) -> str | None:
    """The dotted name of a nondeterministic callable, if ``func`` is one.

    ``func`` is either an attribute of a module name (``time.time``) or a
    name bound by a top-level ``from`` import (``now`` for ``from time
    import perf_counter as now``).
    """
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        dotted = f"{func.value.id}.{func.attr}"
    elif isinstance(func, ast.Name):
        dotted = imports.get(func.id, "")
    else:
        return None
    module, _, attr = dotted.rpartition(".")
    if module not in _NONDETERMINISTIC_MODULES or dotted == "random.Random":
        return None
    allowed = _NONDETERMINISTIC_MODULES[module]
    return dotted if allowed is None or attr in allowed else None


def _numpy_random_chain(func: ast.expr) -> bool:
    """Whether a call's func reaches through ``numpy.random`` (any alias).

    Walks an attribute chain like ``_np.random.default_rng`` down to its
    root :class:`ast.Name`; flags it when the root is a numpy alias and
    ``random`` appears anywhere along the chain.  Plain ufunc calls
    (``np.sqrt``, ``np.where``...) never traverse ``random`` and pass.
    """
    chain: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    return (
        isinstance(node, ast.Name)
        and node.id in _NUMPY_ALIASES
        and "random" in chain
    )


def _set_valued(node: ast.expr) -> bool:
    """Whether an expression is literally a set/frozenset construction."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _is_id_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


def _findings(module: ast.Module) -> Iterator[tuple[int, str, str]]:
    """``(line, kind, message)`` for every shape the rule flags in a module."""
    imports = {
        alias.asname or alias.name: f"{statement.module}.{alias.name}"
        for statement in module.body
        if isinstance(statement, ast.ImportFrom) and statement.module
        for alias in statement.names
    }
    for node in ast.walk(module):
        if isinstance(node, ast.Call):
            if _numpy_random_chain(node.func):
                yield node.lineno, "nondeterministic-call", _NUMPY_RANDOM_MESSAGE
            dotted = _nondeterministic_name(node.func, imports)
            if dotted is not None:
                yield (
                    node.lineno,
                    "nondeterministic-call",
                    f"call to {dotted} makes the result depend on process state "
                    "(wall clock / hidden RNG state); thread an explicitly seeded "
                    "random.Random (or a timestamp argument) through parameters "
                    "instead",
                )
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "as_completed") or (
                isinstance(func, ast.Name) and func.id == "as_completed"
            ):
                yield node.lineno, "completion-ordered-merge", _AS_COMPLETED_MESSAGE
        elif isinstance(node, ast.For) and _set_valued(node.iter):
            yield node.lineno, "unordered-iteration", _SET_ITERATION_MESSAGE
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets: list[ast.expr] = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and _is_id_call(target.slice):
                    yield (
                        node.lineno,
                        "id-keyed-dict",
                        f"storing under an id(...) key: {_ID_KEY_REASON}",
                    )
        elif isinstance(node, ast.DictComp) and _is_id_call(node.key):
            yield (
                node.lineno,
                "id-keyed-dict",
                f"dict comprehension keyed by id(...): {_ID_KEY_REASON}",
            )


def _display_path(root: Path, path: Path) -> str:
    """``path`` relative to the repo, so CI annotations anchor on the diff.

    The root is conventionally ``<repo>/src/repro``; failing that, ``path``
    is shown relative to the root's parent.
    """
    for base in (root.parent.parent, root.parent):
        try:
            return path.relative_to(base).as_posix()
        except ValueError:
            continue
    return path.as_posix()


def check_determinism(root: Path) -> list[Violation]:
    """Every finding of rule 5 in the package at ``root`` (``src/repro``).

    Only the modules of :data:`DETERMINISM_SCOPES` are parsed.  Findings
    are sorted by path, line, kind and message.  Raises
    :class:`ContractCheckError` when ``root`` is not a package or a scoped
    module does not parse.
    """
    root = root.resolve()
    if not (root / "__init__.py").is_file():
        raise ContractCheckError(
            f"{root} is not a package root (no __init__.py); expected the "
            "directory of the 'repro' package, e.g. src/repro"
        )
    violations: list[Violation] = []
    for scope in DETERMINISM_SCOPES:
        for path in sorted((root / scope).rglob("*.py")):
            try:
                module = ast.parse(path.read_text(encoding="utf-8"))
            except SyntaxError as error:
                raise ContractCheckError(f"cannot parse {path}: {error}") from error
            shown = _display_path(root, path)
            violations.extend(
                Violation(kind, shown, line, message)
                for line, kind, message in _findings(module)
            )
    violations.sort(key=lambda v: (v.path, v.line, v.kind, v.message))
    return violations


def main(argv: list[str] | None = None) -> int:
    """The CLI: print the findings and return the exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.contracts",
        description="Static contract checker: determinism of the engine's modules.",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent,
        help="package directory to analyze (default: the installed repro "
        "package, i.e. src/repro in a checkout)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="output format: text (default) or github (GitHub Actions "
        "::error annotations)",
    )
    arguments = parser.parse_args(argv)
    try:
        violations = check_determinism(arguments.root)
    except ContractCheckError as error:
        print(f"contract checker error: {error}", file=sys.stderr)
        return 2
    for violation in violations:
        finding = f"[determinism/{violation.kind}] {violation.message}"
        if arguments.format == "github":
            print(
                f"::error file={violation.path},line={violation.line},"
                f"title=contract violation::{finding}"
            )
        else:
            print(f"{violation.path}:{violation.line}: {finding}")
    print(f"contracts: {len(violations)} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
