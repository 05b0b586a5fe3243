"""The quickstart and the experiments report match their recorded output.

"Same behaviour" means the same quickstart stdout byte for byte for a fixed
seed, and the same paper artefacts.  The golden files in ``tests/golden/``
were recorded from the scripts themselves: quickstart stdout at tiny and
small scale (CI also diffs the default-scale file) and the tiny seed-7
experiments report.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "golden"


def _run(*args: str) -> subprocess.CompletedProcess[str]:
    result = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    return result


@pytest.mark.parametrize("scale", ["tiny", "small"])
def test_quickstart_stdout_matches_the_golden_file(scale):
    result = _run("examples/quickstart.py", "--scale", scale, "--seed", "7")
    expected = (GOLDEN / f"quickstart_{scale}_seed7.txt").read_text(encoding="utf-8")
    assert result.stdout == expected


def test_experiments_report_matches_the_golden_file(tmp_path):
    output = tmp_path / "EXPERIMENTS.md"
    _run("examples/generate_experiments_report.py", "--scale", "tiny", "--seed", "7",
         "--output", str(output))
    expected = (GOLDEN / "experiments_tiny_seed7.md").read_text(encoding="utf-8")
    assert output.read_text(encoding="utf-8") == expected
