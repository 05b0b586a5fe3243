"""Rule family 5: determinism lint over the engine-adjacent modules.

The step-graph engine's whole value proposition is that a cache hit is a
proof of reusability.  That proof assumes the computations themselves are
deterministic: results must not depend on wall-clock time, process-lifetime
randomness, hash-order of sets, object identity, or thread completion order.
This rule flags the syntactic shapes that break that assumption inside the
modules the engine executes (``repro.core``, ``repro.geo``,
``repro.netindex``, ``repro.traixroute``, ``repro.datasources``,
``repro.measurement``, whose corpus and ping-result accessors the
traceroute node and Step 2 run, and ``repro.alias``, whose resolver the
traceroute node reads):

* ``nondeterministic-call`` — calls into ``time``/``random``/``os.urandom``/
  ``uuid``/``secrets``, and any call reached through ``numpy.random`` (under
  whichever alias the module imports numpy — ``numpy``, ``np`` or the
  optional-import handle ``_np``).  Seeded :class:`random.Random`
  *construction* is allowed (the simulation layer threads explicit RNGs
  through parameters, which is the deterministic idiom); calling
  module-level functions that share hidden global state is not.  Plain
  numpy array arithmetic is fine; only the ``numpy.random`` namespace is
  stateful.
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
"""

from __future__ import annotations

import ast

from repro.contracts.model import Violation
from repro.contracts.tree import ModuleInfo, SourceTree, walk_scope

#: The module prefixes (under the analyzed package) the rule covers.
DETERMINISM_SCOPES: tuple[str, ...] = (
    "core",
    "geo",
    "netindex",
    "traixroute",
    "datasources",
    "measurement",
    "alias",
)

#: module alias -> the attribute names that are nondeterministic to call.
#: ``None`` means every attribute of the module (``time.time``,
#: ``time.monotonic``, ``random.random``, ``secrets.token_hex``...).
_NONDETERMINISTIC_MODULES: dict[str, frozenset[str] | None] = {
    "time": None,
    "random": None,
    "secrets": None,
    "os": frozenset({"urandom", "getrandom"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
}

#: ``random`` attributes that are deterministic to *construct*: an explicit
#: RNG object seeded by the caller is the idiom the simulation layer uses.
_ALLOWED_RANDOM_ATTRS: frozenset[str] = frozenset({"Random"})

#: Names numpy is imported under: the module itself, its conventional alias
#: and ``_np``, the usual name of a handle bound by an optional import.
_NUMPY_ALIASES: frozenset[str] = frozenset({"numpy", "np", "_np"})


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
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_id_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


class _ModuleScan:
    """Scans one module for the four nondeterminism shapes."""

    def __init__(self, tree: SourceTree, module: ModuleInfo) -> None:
        self.tree = tree
        self.module = module
        self.violations: list[Violation] = []

    # -------------------------------------------------------------- #
    def _emit(
        self, node: ast.AST, kind: str, detail: str, message: str, qual: str
    ) -> None:
        self.violations.append(
            Violation(
                rule="determinism",
                kind=kind,
                path=self.tree.display_path(self.module.path),
                line=getattr(node, "lineno", 0),
                context=f"{self.module.module}:{qual}" if qual else self.module.module,
                detail=detail,
                message=message,
            )
        )

    def _nondeterministic_name(self, func: ast.expr) -> str | None:
        """The dotted name of a nondeterministic callable, if this is one."""
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module_name, attr = func.value.id, func.attr
            allowed = _NONDETERMINISTIC_MODULES.get(module_name)
            if module_name not in _NONDETERMINISTIC_MODULES:
                return None
            if module_name == "random" and attr in _ALLOWED_RANDOM_ATTRS:
                return None
            if allowed is None or attr in allowed:
                return f"{module_name}.{attr}"
            return None
        if isinstance(func, ast.Name):
            qualified = self.module.imports.get(func.id, "")
            if "." not in qualified:
                return None
            module_name, attr = qualified.rsplit(".", 1)
            allowed = _NONDETERMINISTIC_MODULES.get(module_name)
            if module_name not in _NONDETERMINISTIC_MODULES:
                return None
            if module_name == "random" and attr in _ALLOWED_RANDOM_ATTRS:
                return None
            if allowed is None or attr in allowed:
                return qualified
        return None

    # -------------------------------------------------------------- #
    def scan(self) -> list[Violation]:
        self._scan_scope(self.module.node, self.module.node.body, "")
        return self.violations

    def _scan_scope(self, scope: ast.AST, body: list[ast.stmt], qual: str) -> None:
        for node in walk_scope(scope):
            self._check_node(node, qual)
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{qual}.{statement.name}" if qual else statement.name
                self._scan_scope(statement, statement.body, name)
            elif isinstance(statement, ast.ClassDef):
                name = f"{qual}.{statement.name}" if qual else statement.name
                self._scan_scope(statement, statement.body, name)

    def _check_node(self, node: ast.AST, qual: str) -> None:
        if isinstance(node, ast.Call):
            if _numpy_random_chain(node.func):
                self._emit(
                    node,
                    "nondeterministic-call",
                    "numpy.random",
                    "call through numpy.random: the legacy namespace shares "
                    "hidden global state and even seeded Generators are not "
                    "part of the engine's bit-identical contract — thread an "
                    "explicitly seeded random.Random through parameters "
                    "instead",
                    qual,
                )
            dotted = self._nondeterministic_name(node.func)
            if dotted is not None:
                self._emit(
                    node,
                    "nondeterministic-call",
                    dotted,
                    f"call to {dotted} makes the result depend on process "
                    "state (wall clock / hidden RNG state); thread an "
                    "explicitly seeded random.Random (or a timestamp "
                    "argument) through parameters instead",
                    qual,
                )
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "as_completed"
            ) or (
                isinstance(node.func, ast.Name)
                and node.func.id == "as_completed"
            ):
                self._emit(
                    node,
                    "completion-ordered-merge",
                    "as_completed",
                    "as_completed() yields results in thread completion "
                    "order, which is scheduling-dependent; merge with the "
                    "order-preserving executor.map instead",
                    qual,
                )
        elif isinstance(node, ast.For) and _set_valued(node.iter):
            self._emit(
                node,
                "unordered-iteration",
                "for-over-set",
                "iterating a set literal/constructor directly: iteration "
                "order is hash-and-insertion dependent, so any ordered "
                "output fed from this loop is unstable — iterate "
                "sorted(...) instead",
                qual,
            )
        elif isinstance(node, ast.Assign) or isinstance(node, ast.AnnAssign):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and _is_id_call(target.slice):
                    self._emit(
                        node,
                        "id-keyed-dict",
                        "id()-key-store",
                        "storing under an id(...) key: object identity varies "
                        "per process and allocation, so the mapping can never "
                        "be part of a reproducible result — key by value "
                        "instead",
                        qual,
                    )
        elif isinstance(node, ast.DictComp) and _is_id_call(node.key):
            self._emit(
                node,
                "id-keyed-dict",
                "id()-key-comprehension",
                "dict comprehension keyed by id(...): object identity varies "
                "per process and allocation, so the mapping can never be "
                "part of a reproducible result — key by value instead",
                qual,
            )


def check_determinism(tree: SourceTree) -> list[Violation]:
    """Run rule family 5 over a source tree."""
    violations: list[Violation] = []
    prefixes = tuple(f"{tree.package}.{scope}" for scope in DETERMINISM_SCOPES)
    for name in sorted(tree.modules):
        if not (
            name in prefixes
            or any(name.startswith(prefix + ".") for prefix in prefixes)
        ):
            continue
        violations.extend(_ModuleScan(tree, tree.modules[name]).scan())
    violations.sort(key=lambda v: (v.path, v.line, v.kind, v.detail))
    return violations
