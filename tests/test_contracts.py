"""Tier-1 tests for the static contract checker (rule 5, determinism).

Two layers:

* the **live tree** must be contract-clean (every real violation the rules
  surfaced was fixed at the source);
* **seeded-bug fixtures** — copies of the tree with contract violations
  added — must be caught with the right rule, file and line, and a clean
  drop-in module must produce zero false positives.

Step declarations are enforced at run time instead; see
``tests/test_core_engine.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.contracts import (
    ContractCheckError,
    SourceTree,
    check_determinism,
    collect_violations,
    parse_waivers,
    run_all,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
WAIVERS = REPO_ROOT / "contracts-waivers.txt"


#: A module with one nondeterministic call, ``time.time`` inside ``stamp``.
_STAMP_FIXTURE = "import time\n\n\ndef stamp() -> float:\n    return time.time()\n"


def _copy_tree(tmp_path: Path) -> Path:
    destination = tmp_path / "repro"
    shutil.copytree(
        SRC_ROOT, destination, ignore=shutil.ignore_patterns("__pycache__")
    )
    return destination


def _line_of(root: Path, relative: str, marker: str) -> int:
    for lineno, line in enumerate(
        (root / relative).read_text(encoding="utf-8").splitlines(), 1
    ):
        if marker in line:
            return lineno
    raise AssertionError(f"marker {marker!r} not found in {relative}")


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
        report = run_all(SRC_ROOT, WAIVERS if WAIVERS.is_file() else None)
        assert report.ok, "\n".join(v.message for v in report.violations)

    def test_live_tree_has_no_unused_waivers(self):
        report = run_all(SRC_ROOT, WAIVERS if WAIVERS.is_file() else None)
        assert report.unused_waivers == []

    def test_cli_exits_zero_on_live_tree(self):
        completed = _cli()
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "0 violation(s)" in completed.stdout


# --------------------------------------------------------------------- #
# Rule 5: determinism lint (seeded fixtures)
# --------------------------------------------------------------------- #
class TestDeterminism:
    @pytest.mark.parametrize(
        "package", ["core", "traixroute", "datasources", "measurement", "alias"]
    )
    def test_seeded_nondeterminism_shapes_are_each_caught(self, tmp_path, package):
        root = _copy_tree(tmp_path)
        relative = f"{package}/_fixture_nondet.py"
        fixture = root / relative
        fixture.write_text(
            "import random\n"
            "from concurrent.futures import as_completed\n"
            "\n"
            "\n"
            "def jitter() -> float:\n"
            "    return random.random()  # seeded-nondet-call\n"
            "\n"
            "\n"
            "def merge(futures) -> list:\n"
            "    out = []\n"
            "    for future in as_completed(futures):  # seeded-completion-order\n"
            "        out.append(future.result())\n"
            "    return out\n"
            "\n"
            "\n"
            "def tags(items) -> dict:\n"
            "    table = {}\n"
            "    for item in items:\n"
            "        table[id(item)] = item  # seeded-id-key\n"
            "    return table\n"
            "\n"
            "\n"
            "def order() -> list:\n"
            "    out = []\n"
            "    for value in {3, 1, 2}:  # seeded-set-iteration\n"
            "        out.append(value)\n"
            "    return out\n",
            encoding="utf-8",
        )
        violations = check_determinism(SourceTree(root))
        by_kind = {v.kind: v for v in violations}
        assert sorted(by_kind) == [
            "completion-ordered-merge",
            "id-keyed-dict",
            "nondeterministic-call",
            "unordered-iteration",
        ]
        call = by_kind["nondeterministic-call"]
        assert call.detail == "random.random"
        assert call.context == f"repro.{package}._fixture_nondet:jitter"
        assert call.line == _line_of(root, relative, "seeded-nondet-call")
        assert by_kind["completion-ordered-merge"].line == _line_of(
            root, relative, "seeded-completion-order"
        )
        assert by_kind["id-keyed-dict"].detail == "id()-key-store"
        assert by_kind["id-keyed-dict"].line == _line_of(
            root, relative, "seeded-id-key"
        )
        assert by_kind["unordered-iteration"].detail == "for-over-set"
        assert by_kind["unordered-iteration"].line == _line_of(
            root, relative, "seeded-set-iteration"
        )

    def test_deterministic_idioms_are_not_flagged(self, tmp_path):
        root = _copy_tree(tmp_path)
        fixture = root / "core" / "_fixture_det_clean.py"
        fixture.write_text(
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
            "    return len(seen)\n",
            encoding="utf-8",
        )
        assert check_determinism(SourceTree(root)) == []

    def test_modules_outside_the_engine_scopes_are_not_scanned(self, tmp_path):
        root = _copy_tree(tmp_path)
        fixture = root / "topology" / "_fixture_rng.py"
        fixture.write_text(
            "import random\n"
            "\n"
            "\n"
            "def shake() -> float:\n"
            "    return random.random()\n",
            encoding="utf-8",
        )
        assert check_determinism(SourceTree(root)) == []

    def test_live_tree_has_no_determinism_findings(self):
        assert check_determinism(SourceTree(SRC_ROOT)) == []


# --------------------------------------------------------------------- #
# Waivers
# --------------------------------------------------------------------- #
class TestWaivers:
    def test_waiver_requires_justification_comment(self, tmp_path):
        waiver_file = tmp_path / "waivers.txt"
        waiver_file.write_text(
            "determinism:nondeterministic-call:m:time.time\n", encoding="utf-8"
        )
        with pytest.raises(ContractCheckError, match="no justification"):
            parse_waivers(waiver_file)

    def test_duplicate_waiver_is_rejected(self, tmp_path):
        waiver_file = tmp_path / "waivers.txt"
        waiver_file.write_text(
            "# reason one\nsome:key:a:b\n\n# reason two\nsome:key:a:b\n",
            encoding="utf-8",
        )
        with pytest.raises(ContractCheckError, match="duplicate"):
            parse_waivers(waiver_file)

    def test_blank_line_resets_pending_justification(self, tmp_path):
        waiver_file = tmp_path / "waivers.txt"
        waiver_file.write_text("# orphaned comment\n\nsome:key:a:b\n", encoding="utf-8")
        with pytest.raises(ContractCheckError, match="no justification"):
            parse_waivers(waiver_file)

    def test_waiver_suppresses_a_seeded_violation(self, tmp_path):
        root = _copy_tree(tmp_path)
        (root / "core" / "_fixture_nondet.py").write_text(
            _STAMP_FIXTURE, encoding="utf-8"
        )
        waiver_file = tmp_path / "waivers.txt"
        waiver_file.write_text(
            "# Seeded for the self-test; the call is deliberate.\n"
            "determinism:nondeterministic-call:repro.core._fixture_nondet:stamp:"
            "time.time\n",
            encoding="utf-8",
        )
        report = run_all(root, waiver_file)
        assert report.ok
        assert [v.key for v in report.waived] == [
            "determinism:nondeterministic-call:repro.core._fixture_nondet:stamp:"
            "time.time"
        ]
        assert report.unused_waivers == []

    def test_unused_waiver_is_reported_but_does_not_fail(self, tmp_path):
        root = _copy_tree(tmp_path)
        waiver_file = tmp_path / "waivers.txt"
        waiver_file.write_text(
            "# Left over from a fixed violation.\nstale:key:a:b\n", encoding="utf-8"
        )
        report = run_all(root, waiver_file)
        assert report.ok
        assert [w.key for w in report.unused_waivers] == ["stale:key:a:b"]


# --------------------------------------------------------------------- #
# The CLI
# --------------------------------------------------------------------- #
class TestCli:
    def test_cli_exits_one_per_seeded_fixture(self, tmp_path):
        for name, relative, source in (
            ("call", "core/_fixture_nondet.py", _STAMP_FIXTURE),
            (
                "iteration",
                "geo/_fixture_nondet.py",
                "def order() -> list:\n"
                "    out = []\n"
                "    for value in {3, 1, 2}:\n"
                "        out.append(value)\n"
                "    return out\n",
            ),
        ):
            root = _copy_tree(tmp_path / name)
            (root / relative).write_text(source, encoding="utf-8")
            completed = _cli("--root", str(root), "--no-waivers")
            assert completed.returncode == 1, completed.stdout + completed.stderr
            assert "1 violation(s)" in completed.stdout

    def test_cli_exits_two_on_malformed_waiver_file(self, tmp_path):
        waiver_file = tmp_path / "waivers.txt"
        waiver_file.write_text("unjustified:key:a:b\n", encoding="utf-8")
        completed = _cli("--waivers", str(waiver_file))
        assert completed.returncode == 2
        assert "no justification" in completed.stderr

    def test_cli_json_format_is_machine_readable(self, tmp_path):
        root = _copy_tree(tmp_path)
        fixture = root / "core" / "_fixture_nondet.py"
        fixture.write_text(
            "import time\n"
            "\n"
            "\n"
            "def stamp() -> float:\n"
            "    return time.time()\n",
            encoding="utf-8",
        )
        completed = _cli("--root", str(root), "--no-waivers", "--format=json")
        assert completed.returncode == 1
        document = json.loads(completed.stdout)
        assert document["ok"] is False
        assert document["summary"]["violations"] == 1
        (violation,) = document["violations"]
        assert violation["detail"] == "time.time"
        assert violation["key"].startswith("determinism:nondeterministic-call:")

    def test_cli_github_format_emits_error_annotations(self, tmp_path):
        root = _copy_tree(tmp_path)
        fixture = root / "core" / "_fixture_nondet.py"
        fixture.write_text(
            "def order() -> list:\n"
            "    out = []\n"
            "    for value in {3, 1, 2}:\n"
            "        out.append(value)\n"
            "    return out\n",
            encoding="utf-8",
        )
        completed = _cli("--root", str(root), "--no-waivers", "--format=github")
        assert completed.returncode == 1
        assert "::error file=" in completed.stdout
        assert "unordered-iteration:" in completed.stdout

    def test_cli_exits_two_on_unparseable_tree(self, tmp_path):
        # A checker *crash* (exit 2) is distinct from findings (exit 1):
        # an unparseable module means no verdict at all.
        root = _copy_tree(tmp_path)
        (root / "core" / "_fixture_broken.py").write_text(
            "def broken(:\n", encoding="utf-8"
        )
        completed = _cli("--root", str(root), "--no-waivers")
        assert completed.returncode == 2
        assert "contract checker error" in completed.stderr
        assert completed.stdout == ""

    def test_cli_text_format_warns_on_unused_waiver(self, tmp_path):
        root = _copy_tree(tmp_path)
        waiver_file = tmp_path / "waivers.txt"
        waiver_file.write_text(
            "# Fixed long ago; the waiver outlived the finding.\n"
            "stale:key:a:b\n",
            encoding="utf-8",
        )
        completed = _cli("--root", str(root), "--waivers", str(waiver_file))
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert (
            "warning: unused waiver 'stale:key:a:b' (waiver file line 2)"
            in completed.stdout
        )
        assert "0 violation(s), 0 waived, 1 unused waiver(s)" in completed.stdout

    def test_cli_github_format_warns_on_unused_waiver(self, tmp_path):
        root = _copy_tree(tmp_path)
        waiver_file = tmp_path / "waivers.txt"
        waiver_file.write_text(
            "# Fixed long ago; the waiver outlived the finding.\n"
            "stale:key:a:b\n",
            encoding="utf-8",
        )
        completed = _cli(
            "--root", str(root), "--waivers", str(waiver_file), "--format=github"
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert (
            "::warning file=contracts-waivers.txt,line=2,title=unused waiver::"
            "waiver 'stale:key:a:b' matched no finding" in completed.stdout
        )


# --------------------------------------------------------------------- #
# Whole-checker integration
# --------------------------------------------------------------------- #
class TestCollect:
    def test_collect_violations_merges_all_three_rules(self, tmp_path):
        # Three seeded findings in the three scanned packages, in order.
        root = _copy_tree(tmp_path)
        (root / "core" / "_fixture_nondet.py").write_text(
            _STAMP_FIXTURE, encoding="utf-8"
        )
        (root / "geo" / "_fixture_nondet.py").write_text(
            "import random\n"
            "\n"
            "\n"
            "def jitter() -> float:\n"
            "    return random.random()\n",
            encoding="utf-8",
        )
        (root / "netindex" / "_fixture_nondet.py").write_text(
            "import uuid\n"
            "\n"
            "\n"
            "def tag() -> str:\n"
            "    return str(uuid.uuid4())\n",
            encoding="utf-8",
        )
        violations = collect_violations(SourceTree(root))
        assert [v.rule for v in violations] == [
            "determinism",
            "determinism",
            "determinism",
        ]
        assert [v.detail for v in violations] == [
            "time.time",
            "random.random",
            "uuid.uuid4",
        ]
