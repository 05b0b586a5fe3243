"""Static contract checker for the reproduction pipeline.

One rule family polices a contract the runtime machinery relies on but
cannot itself see:

5. **Determinism** (:mod:`repro.contracts.determinism`) — the modules the
   engine executes must not depend on wall-clock time, hidden RNG state,
   set iteration order, ``id()`` keys or thread completion order; a cache
   hit is only a proof of reusability if recomputation would be
   bit-identical.

The number is a stable name the docs refer to.  Rules 1 to 4 are gone
because the runtime now refuses what they approximated over the AST.  Each
step-graph node reads its inputs through capability views, so an
undeclared config, dataset or input read raises
:class:`~repro.exceptions.UndeclaredReadError` (rule 1, step-declaration
completeness).  The input and result containers expose read-only
collections and everything reachable from a
:class:`~repro.core.engine.PipelineOutcome` is immutable, so writes are
refused (rule 2, mutation discipline, and rule 3, read-only outcomes).  The
lock-discipline rule 4 went with the thread executor.

Run it two ways: ``python -m repro.contracts`` (the CLI, wired into CI) and
``tests/test_contracts.py`` (tier-1, over the live tree and over seeded-bug
fixtures).
"""

from __future__ import annotations

from pathlib import Path

from repro.contracts.model import (
    ContractCheckError,
    ContractReport,
    Violation,
    Waiver,
    apply_waivers,
    parse_waivers,
)
from repro.contracts.determinism import check_determinism
from repro.contracts.tree import SourceTree

__all__ = [
    "ContractCheckError",
    "ContractReport",
    "SourceTree",
    "Violation",
    "Waiver",
    "apply_waivers",
    "check_determinism",
    "collect_violations",
    "parse_waivers",
    "run_all",
]


def collect_violations(tree: SourceTree) -> list[Violation]:
    """Every rule's findings over one tree, in a stable order."""
    return check_determinism(tree)


def run_all(root: Path, waivers_path: Path | None = None) -> ContractReport:
    """Check the package rooted at ``root``, applying an optional waiver file.

    ``root`` is the package directory itself (``<repo>/src/repro``).  A
    missing waiver file is an error when explicitly given, and means "no
    waivers" when ``None``.
    """
    tree = SourceTree(root)
    violations = collect_violations(tree)
    waivers: dict[str, Waiver] = {}
    if waivers_path is not None:
        if not waivers_path.is_file():
            raise ContractCheckError(f"waiver file not found: {waivers_path}")
        waivers = parse_waivers(waivers_path)
    return apply_waivers(violations, waivers)
