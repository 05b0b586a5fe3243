"""Tier-1 tests for the static contract checker (rule 5, determinism).

Two layers:

* the **live tree** must be contract-clean (every real violation the rule
  surfaced was fixed at the source);
* **seeded-bug fixtures** — small package trees holding contract
  violations — must be caught with the right kind, file and line, and
  clean modules must produce zero false positives.

Step declarations are enforced at run time instead; see
``tests/test_core_engine.py``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.contracts import ContractCheckError, check_determinism

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"


#: A module with one nondeterministic call, ``time.time`` inside ``stamp``.
_STAMP_FIXTURE = "import time\n\n\ndef stamp() -> float:\n    return time.time()\n"

#: A module with one loop over a set literal, on line 3.
_SET_LOOP_FIXTURE = (
    "def order() -> list:\n"
    "    out = []\n"
    "    for value in {3, 1, 2}:\n"
    "        out.append(value)\n"
    "    return out\n"
)

#: Every form the rule flags that the other fixtures leave out, each line
#: marked with its kind, beside deterministic look-alikes that must pass.
_RULE_FORMS = """\
import os
import secrets
import uuid
from concurrent import futures
from random import Random
from time import perf_counter as now

import numpy as np
import numpy as _np


def forms(items, pool, out):
    now()  # finding: nondeterministic-call
    np.random.normal(0.0, 1.0)  # finding: nondeterministic-call
    _np.random.default_rng(7)  # finding: nondeterministic-call
    os.urandom(8)  # finding: nondeterministic-call
    os.getrandom(8)  # finding: nondeterministic-call
    secrets.token_hex(4)  # finding: nondeterministic-call
    uuid.uuid1()  # finding: nondeterministic-call
    uuid.uuid4()  # finding: nondeterministic-call
    by_id: dict = {}
    by_id[id(items)]: object = items  # finding: id-keyed-dict
    table = {id(item): item for item in items}  # finding: id-keyed-dict
    for value in {item for item in items}:  # finding: unordered-iteration
        out.append(value)
    for value in frozenset(items):  # finding: unordered-iteration
        out.append(value)
    for future in futures.as_completed(pool):  # finding: completion-ordered-merge
        out.append(future.result())
    Random(7)
    np.sqrt(2.0)
    os.getcwd()
    uuid.uuid5(uuid.NAMESPACE_DNS, "example.org")
    return table
"""

#: Defs nested in compound statements: one under a module-level ``if``,
#: one under an ``if`` inside a function.
_NESTED_DEFS = """\
import time

if True:

    def stamp():
        return time.time()  # finding: nondeterministic-call


def outer(flag):
    if flag:

        def inner():
            return time.time()  # finding: nondeterministic-call

        return inner()
    return 0.0
"""


def _tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """A ``repro`` package under ``tmp_path`` holding ``files`` (path: source)."""
    root = tmp_path / "repro"
    root.mkdir(parents=True)
    (root / "__init__.py").write_text("", encoding="utf-8")
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def _marked(source: str) -> set[tuple[str, int]]:
    """The ``(kind, line)`` pairs a fixture marks with ``# finding: <kind>``."""
    return {
        (line.split("# finding: ")[1].strip(), lineno)
        for lineno, line in enumerate(source.splitlines(), 1)
        if "# finding: " in line
    }


def _cli(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-m", "repro.contracts", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


# --------------------------------------------------------------------- #
# The live tree
# --------------------------------------------------------------------- #
class TestLiveTree:
    def test_live_tree_is_contract_clean(self):
        violations = check_determinism(SRC_ROOT)
        assert violations == [], "\n".join(v.message for v in violations)

    def test_cli_exits_zero_on_live_tree(self):
        for output_format in ("text", "github"):
            completed = _cli(f"--format={output_format}")
            assert completed.returncode == 0, completed.stdout + completed.stderr
            assert completed.stdout == "contracts: 0 violation(s)\n"


# --------------------------------------------------------------------- #
# Rule 5: determinism lint (seeded fixtures)
# --------------------------------------------------------------------- #
class TestDeterminism:
    @pytest.mark.parametrize(
        "package", ["core", "traixroute", "datasources", "measurement", "alias"]
    )
    def test_seeded_nondeterminism_shapes_are_each_caught(self, tmp_path, package):
        source = (
            "import random\n"
            "from concurrent.futures import as_completed\n"
            "\n"
            "\n"
            "def jitter() -> float:\n"
            "    return random.random()  # finding: nondeterministic-call\n"
            "\n"
            "\n"
            "def merge(pool) -> list:\n"
            "    out = []\n"
            "    for done in as_completed(pool):  # finding: completion-ordered-merge\n"
            "        out.append(done.result())\n"
            "    return out\n"
            "\n"
            "\n"
            "def tags(items) -> dict:\n"
            "    table = {}\n"
            "    for item in items:\n"
            "        table[id(item)] = item  # finding: id-keyed-dict\n"
            "    return table\n"
            "\n"
            "\n"
            "def order() -> list:\n"
            "    out = []\n"
            "    for value in {3, 1, 2}:  # finding: unordered-iteration\n"
            "        out.append(value)\n"
            "    return out\n"
        )
        root = _tree(tmp_path, {f"{package}/_fixture_nondet.py": source})
        violations = check_determinism(root)
        assert {(v.kind, v.line) for v in violations} == _marked(source)
        assert {v.path.split("/repro/")[-1] for v in violations} == {
            f"{package}/_fixture_nondet.py"
        }
        by_kind = {v.kind: v for v in violations}
        assert by_kind["nondeterministic-call"].message.startswith(
            "call to random.random "
        )
        assert by_kind["id-keyed-dict"].message.startswith("storing under an id(")

    def test_deterministic_idioms_are_not_flagged(self, tmp_path):
        source = (
            "import random\n"
            "\n"
            "\n"
            "def draw(seed: int) -> float:\n"
            "    rng = random.Random(seed)  # explicitly seeded: the idiom\n"
            "    return rng.random()\n"
            "\n"
            "\n"
            "def ordered(values: set) -> list:\n"
            "    return [value for value in sorted(values)]\n"
            "\n"
            "\n"
            "def count_unique(items) -> int:\n"
            "    seen = set()\n"
            "    for item in items:\n"
            "        seen.add(id(item))  # identity *set* for cycle detection\n"
            "    return len(seen)\n"
        )
        root = _tree(tmp_path, {"core/_fixture_det_clean.py": source})
        assert check_determinism(root) == []

    def test_modules_outside_the_engine_scopes_are_not_scanned(self, tmp_path):
        # Not parsed either: a syntax error outside the scopes is no error.
        root = _tree(
            tmp_path,
            {
                "topology/_fixture_rng.py": (
                    "import random\n\n\ndef shake() -> float:\n"
                    "    return random.random()\n"
                ),
                "analysis/_fixture_broken.py": "def broken(:\n",
            },
        )
        assert check_determinism(root) == []

    def test_each_rule_form_is_caught(self, tmp_path):
        root = _tree(tmp_path, {"geo/_fixture_forms.py": _RULE_FORMS})
        found = {(v.kind, v.line) for v in check_determinism(root)}
        assert found == _marked(_RULE_FORMS)

    def test_defs_nested_in_compound_statements_are_scanned(self, tmp_path):
        root = _tree(tmp_path, {"netindex/_fixture_nested.py": _NESTED_DEFS})
        found = {(v.kind, v.line) for v in check_determinism(root)}
        assert found == _marked(_NESTED_DEFS)
        assert len(found) == 2


# --------------------------------------------------------------------- #
# The CLI
# --------------------------------------------------------------------- #
class TestCli:
    def test_cli_exits_one_per_seeded_fixture(self, tmp_path):
        for name, relative, source, finding in (
            (
                "call",
                "core/_fixture_nondet.py",
                _STAMP_FIXTURE,
                ":5: [determinism/nondeterministic-call] call to time.time ",
            ),
            (
                "iteration",
                "geo/_fixture_nondet.py",
                _SET_LOOP_FIXTURE,
                ":3: [determinism/unordered-iteration] iterating a set ",
            ),
        ):
            root = _tree(tmp_path / name, {relative: source})
            completed = _cli("--root", str(root))
            assert completed.returncode == 1, completed.stdout + completed.stderr
            first, summary = completed.stdout.splitlines()
            assert first.startswith(f"{name}/repro/{relative}{finding}")
            assert summary == "contracts: 1 violation(s)"

    def test_cli_github_format_emits_error_annotations(self, tmp_path):
        root = _tree(tmp_path, {"core/_fixture_nondet.py": _SET_LOOP_FIXTURE})
        completed = _cli("--root", str(root), "--format=github")
        assert completed.returncode == 1
        shown = (root / "core" / "_fixture_nondet.py").resolve()
        path = shown.relative_to(root.resolve().parent.parent).as_posix()
        assert completed.stdout.startswith(
            f"::error file={path},line=3,title=contract violation::"
            "[determinism/unordered-iteration] iterating a set "
        )
        assert completed.stdout.endswith("\ncontracts: 1 violation(s)\n")

    def test_cli_exits_two_on_unparseable_tree(self, tmp_path):
        # A checker *crash* (exit 2) is distinct from findings (exit 1):
        # an unparseable module means no verdict at all.
        root = _tree(tmp_path, {"core/_fixture_broken.py": "def broken(:\n"})
        completed = _cli("--root", str(root))
        assert completed.returncode == 2
        assert "contract checker error: cannot parse" in completed.stderr
        assert completed.stdout == ""

    def test_cli_exits_two_on_a_root_that_is_not_a_package(self, tmp_path):
        with pytest.raises(ContractCheckError, match="not a package root"):
            check_determinism(tmp_path)
        completed = _cli("--root", str(tmp_path))
        assert completed.returncode == 2
        assert "not a package root" in completed.stderr
        assert completed.stdout == ""


# --------------------------------------------------------------------- #
# Findings across packages
# --------------------------------------------------------------------- #
class TestCollect:
    def test_collect_violations_merges_all_three_rules(self, tmp_path):
        # Three seeded findings in three scanned packages, in path order.
        root = _tree(
            tmp_path,
            {
                "netindex/_fixture_nondet.py": (
                    "import uuid\n\n\ndef tag() -> str:\n"
                    "    return str(uuid.uuid4())\n"
                ),
                "geo/_fixture_nondet.py": (
                    "import random\n\n\ndef jitter() -> float:\n"
                    "    return random.random()\n"
                ),
                "core/_fixture_nondet.py": _STAMP_FIXTURE,
            },
        )
        violations = check_determinism(root)
        assert [v.path.split("/")[-2] for v in violations] == [
            "core",
            "geo",
            "netindex",
        ]
        assert [v.message.split()[2] for v in violations] == [
            "time.time",
            "random.random",
            "uuid.uuid4",
        ]
