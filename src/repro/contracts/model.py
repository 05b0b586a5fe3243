"""Findings, waivers and report assembly for the contract checker.

A :class:`Violation` is one finding of one rule, carrying a repo-relative
file, a line and a **stable waiver key**.  Keys deliberately avoid line
numbers: a justified exception must survive unrelated edits to the file it
lives in, so keys are built from the rule, the enclosing scope (a function
qualname) and the offending name — never from positions.

Waiver files are plain text: one key per line, each entry *immediately*
preceded by at least one ``#`` comment line carrying the justification.  A
bare key with no justification is a parse error — the whole point of a
waiver is the recorded reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ReproError


class ContractCheckError(ReproError):
    """The checker itself could not run (bad tree, bad waiver file...)."""


@dataclass(frozen=True)
class Violation:
    """One contract finding.

    Attributes
    ----------
    rule:
        The rule family: ``"determinism"`` (rule 5).
    kind:
        The precise finding within the family (e.g.
        ``"nondeterministic-call"`` or ``"unordered-iteration"``).
    path:
        File the finding anchors to, relative to the analyzed source root's
        repository (``src/repro/...`` when run from a checkout).
    line:
        1-indexed line of the offending access / declaration.
    context:
        The scope the finding lives in: a ``module:qualname``.
    detail:
        The offending name (a call or a shape), used in the waiver key.
    message:
        Human-readable, self-contained description.
    """

    rule: str
    kind: str
    path: str
    line: int
    context: str
    detail: str
    message: str

    @property
    def key(self) -> str:
        """The stable waiver key (no line numbers — see module docstring)."""
        return f"{self.rule}:{self.kind}:{self.context}:{self.detail}"

    def as_dict(self) -> dict[str, object]:
        """JSON-ready rendering (the CLI's machine-readable report rows)."""
        return {
            "rule": self.rule,
            "kind": self.kind,
            "path": self.path,
            "line": self.line,
            "context": self.context,
            "detail": self.detail,
            "message": self.message,
            "key": self.key,
        }


@dataclass(frozen=True)
class Waiver:
    """One justified exception loaded from a waiver file."""

    key: str
    justification: str
    line: int


def parse_waivers(path: Path) -> dict[str, Waiver]:
    """Load a waiver file, enforcing the justification-comment contract.

    Every non-comment, non-blank line is a waiver key and must be
    immediately preceded (blank lines allowed between entries, not inside
    one) by at least one ``#`` comment explaining *why* the exception is
    justified.
    """
    waivers: dict[str, Waiver] = {}
    pending_comment: list[str] = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line:
            pending_comment = []
            continue
        if line.startswith("#"):
            pending_comment.append(line.lstrip("#").strip())
            continue
        if not pending_comment:
            raise ContractCheckError(
                f"{path}:{lineno}: waiver {line!r} has no justification comment "
                "(every waiver must be preceded by a '#' comment explaining it)"
            )
        if line in waivers:
            raise ContractCheckError(f"{path}:{lineno}: duplicate waiver {line!r}")
        waivers[line] = Waiver(
            key=line, justification=" ".join(pending_comment), line=lineno
        )
        pending_comment = []
    return waivers


@dataclass
class ContractReport:
    """The outcome of one checker run: findings split by waiver status."""

    violations: list[Violation] = field(default_factory=list)
    waived: list[Violation] = field(default_factory=list)
    unused_waivers: list[Waiver] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the run is clean (unused waivers warn, they do not fail)."""
        return not self.violations

    def as_dict(self) -> dict[str, object]:
        """The machine-readable report emitted by ``--format=json``."""
        return {
            "ok": self.ok,
            "violations": [v.as_dict() for v in self.violations],
            "waived": [v.as_dict() for v in self.waived],
            "unused_waivers": [
                {"key": w.key, "justification": w.justification, "line": w.line}
                for w in self.unused_waivers
            ],
            "summary": {
                "violations": len(self.violations),
                "waived": len(self.waived),
                "unused_waivers": len(self.unused_waivers),
            },
        }


def apply_waivers(
    violations: list[Violation], waivers: dict[str, Waiver]
) -> ContractReport:
    """Split raw findings into live violations and waived ones."""
    report = ContractReport()
    used: set[str] = set()
    for violation in violations:
        if violation.key in waivers:
            used.add(violation.key)
            report.waived.append(violation)
        else:
            report.violations.append(violation)
    report.unused_waivers = [
        waiver for key, waiver in waivers.items() if key not in used
    ]
    return report
