"""The quickstart prints the recorded stdout at tiny and small scale.

"Same behaviour" means the same quickstart stdout byte for byte for a fixed
seed.  The golden files in ``tests/golden/`` were recorded from the script
itself; CI also diffs the default-scale file.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "golden"


@pytest.mark.parametrize("scale", ["tiny", "small"])
def test_quickstart_stdout_matches_the_golden_file(scale):
    result = subprocess.run(
        [sys.executable, "examples/quickstart.py", "--scale", scale, "--seed", "7"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    expected = (GOLDEN / f"quickstart_{scale}_seed7.txt").read_text(encoding="utf-8")
    assert result.stdout == expected
