"""Static contract checker for the reproduction pipeline.

Two rule families police the contracts the runtime machinery relies on
but cannot itself see:

1. **Step-declaration completeness** (:mod:`repro.contracts.stepdecl`) —
   every ``STEP_GRAPH`` node's implementation must read exactly the config
   fields, dataset domains and versioned inputs it declares; the
   declarations feed the step-result cache keys, so an undeclared read is a
   stale-cache bug and an unused declaration is a spurious invalidation.
5. **Determinism** (:mod:`repro.contracts.determinism`) — the modules the
   engine executes must not depend on wall-clock time, hidden RNG state,
   set iteration order, ``id()`` keys or thread completion order; a cache
   hit is only a proof of reusability if recomputation would be
   bit-identical.

The numbers are stable names the docs refer to.  There is no rule 4 (the
lock-discipline rule went with the thread executor), no rule 2 (mutation
discipline) and no rule 3 (read-only outcomes): the input and result
containers expose read-only collections and everything reachable from a
:class:`~repro.core.engine.PipelineOutcome` is immutable, so the runtime
refuses the writes those rules approximated over the AST.

Run it three ways: ``python -m repro.contracts`` (the CLI, wired into CI),
``tests/test_contracts.py`` (tier-1, over the live tree and over seeded-bug
fixtures) and the dynamic cross-check (:mod:`repro.contracts.dynamic`
records the accesses an actual pipeline run performs and asserts they are a
subset of the declarations).
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
from repro.contracts.stepdecl import check_step_declarations
from repro.contracts.tree import SourceTree

__all__ = [
    "ContractCheckError",
    "ContractReport",
    "SourceTree",
    "Violation",
    "Waiver",
    "apply_waivers",
    "check_determinism",
    "check_step_declarations",
    "collect_violations",
    "parse_waivers",
    "run_all",
]


def collect_violations(tree: SourceTree) -> list[Violation]:
    """Both rule families over one tree, in a stable order."""
    violations: list[Violation] = []
    violations.extend(check_step_declarations(tree))
    violations.extend(check_determinism(tree))
    return violations


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
