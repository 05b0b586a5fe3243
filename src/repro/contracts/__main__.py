"""Command-line entry point: ``python -m repro.contracts``.

Checks a source tree against the determinism rule family (rule 5) and
reports the findings.  Exit status: 0 when clean (waived findings and unused
waivers do not fail the run), 1 when non-waived violations remain, 2 when
the checker itself cannot run (unparseable tree, malformed waiver file).

Formats: ``text`` (human-readable, default), ``json`` (the machine-readable
report, one document) and ``github`` (GitHub Actions ``::error`` workflow
annotations, one per finding — used by the CI ``contracts`` job).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.contracts import ContractCheckError, ContractReport, run_all


def _default_root() -> Path:
    """The package directory this checker itself was imported from."""
    return Path(__file__).resolve().parent.parent


def _default_waivers(root: Path) -> Path | None:
    """``contracts-waivers.txt`` at the repo root, when present.

    ``root`` is ``<repo>/src/repro`` in a checkout, so the repo root is two
    levels up.  Returning ``None`` (no file) means "no waivers" rather than
    an error, so the CLI works on bare trees such as the test fixtures.
    """
    candidate = root.parent.parent / "contracts-waivers.txt"
    return candidate if candidate.is_file() else None


def _emit_text(report: ContractReport) -> None:
    for violation in report.violations:
        print(
            f"{violation.path}:{violation.line}: [{violation.rule}/"
            f"{violation.kind}] {violation.message}"
        )
        print(f"    waiver key: {violation.key}")
    for violation in report.waived:
        print(f"waived: {violation.key} ({violation.path}:{violation.line})")
    for waiver in report.unused_waivers:
        print(f"warning: unused waiver {waiver.key!r} (waiver file line {waiver.line})")
    print(
        f"contracts: {len(report.violations)} violation(s), "
        f"{len(report.waived)} waived, "
        f"{len(report.unused_waivers)} unused waiver(s)"
    )


def _emit_github(report: ContractReport) -> None:
    for violation in report.violations:
        message = f"[{violation.rule}/{violation.kind}] {violation.message}"
        print(
            f"::error file={violation.path},line={violation.line},"
            f"title=contract violation::{message} (waiver key: {violation.key})"
        )
    for waiver in report.unused_waivers:
        print(
            f"::warning file=contracts-waivers.txt,line={waiver.line},"
            f"title=unused waiver::waiver {waiver.key!r} matched no finding"
        )
    print(
        f"contracts: {len(report.violations)} violation(s), "
        f"{len(report.waived)} waived"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.contracts",
        description="Static contract checker: determinism of the engine's modules.",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="package directory to analyze (default: the installed repro "
        "package, i.e. src/repro in a checkout)",
    )
    parser.add_argument(
        "--waivers",
        type=Path,
        default=None,
        help="waiver file (default: contracts-waivers.txt at the repo root "
        "when analyzing a checkout; no waivers otherwise)",
    )
    parser.add_argument(
        "--no-waivers",
        action="store_true",
        help="ignore any waiver file, report every finding",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (default: text)",
    )
    arguments = parser.parse_args(argv)

    root = (arguments.root or _default_root()).resolve()
    if arguments.no_waivers:
        waivers_path = None
    elif arguments.waivers is not None:
        waivers_path = arguments.waivers
    else:
        waivers_path = _default_waivers(root)

    try:
        report = run_all(root, waivers_path)
    except ContractCheckError as error:
        print(f"contract checker error: {error}", file=sys.stderr)
        return 2

    if arguments.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    elif arguments.format == "github":
        _emit_github(report)
    else:
        _emit_text(report)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
