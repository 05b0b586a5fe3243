"""The package runs on the standard library alone.

``pyproject.toml`` declares no dependencies, so the quickstart must run, with
the same output, when networkx cannot be imported, and no module may import
numpy even where it is installed.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Runs the script named by its first argument with networkx unimportable.
_WITHOUT_NETWORKX = (
    "import runpy, sys; sys.modules['networkx'] = None; "
    "sys.argv = sys.argv[1:]; runpy.run_path(sys.argv[0], run_name='__main__')"
)

#: Imports every ``repro`` module, runs the tiny quickstart and fails if any
#: of it loaded numpy.
_WITHOUT_IMPORTING_NUMPY = (
    "import importlib, pkgutil, runpy, sys, repro\n"
    "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
    "    importlib.import_module(module.name)\n"
    "sys.argv = sys.argv[1:]\n"
    "runpy.run_path(sys.argv[0], run_name='__main__')\n"
    "assert 'numpy' not in sys.modules\n"
)


def _quickstart(*interpreter_args: str) -> str:
    result = subprocess.run(
        [sys.executable, *interpreter_args, "examples/quickstart.py",
         "--scale", "tiny", "--seed", "7"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart_output_is_unchanged_without_networkx():
    assert _quickstart("-c", _WITHOUT_NETWORKX) == _quickstart()


def test_no_module_imports_numpy():
    _quickstart("-c", _WITHOUT_IMPORTING_NUMPY)
