"""Import hygiene: the runtime loads only numpy and the standard library.

Each check runs a fresh interpreter, so it sees exactly what a
``python -m repro`` call or a benchmark workload pays for at start-up.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}

_PRINT_TOP_LEVEL = (
    "import sys\n"
    "print(*sorted({name.partition('.')[0] for name in sys.modules}))\n")

#: A ``sys.meta_path`` finder that makes scipy and networkx unimportable,
#: then runs ``python -m repro`` with the arguments after ``-c``.
_BLOCKED_RUN = """
import runpy, sys

class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "networkx"):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, Blocker())
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def _python(code: str, *args: str, cwd: Path = ROOT) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _top_level_after(modules) -> set[str]:
    imports = "".join(f"import {module}\n" for module in modules)
    return set(_python(imports + _PRINT_TOP_LEVEL).split())


MODULE_SETS = {"cli": ("repro.cli",)}
MODULE_SETS.update((name, w.modules) for name, w in WORKLOADS.items())


@pytest.mark.parametrize("name", list(MODULE_SETS))
def test_imports_add_only_numpy_and_stdlib(name):
    added = _top_level_after(MODULE_SETS[name]) - _top_level_after(())
    assert "repro" in added
    assert added <= ALLOWED, sorted(added - ALLOWED)


@pytest.mark.parametrize("argv", [("synth", "-b", "gcd"),
                                  ("verify", "-b", "gcd", "--passes", "5")],
                         ids=["synth", "verify"])
def test_cli_runs_without_scipy_and_networkx(argv, tmp_path):
    _python(_BLOCKED_RUN, *argv, cwd=tmp_path)
