"""Tests read only tracked inputs: nothing under the gitignored ``results/``.

``results/`` holds run outputs and is never committed, so a test that
reads a file from it passes on the machine that wrote the file and fails
on every clean clone.  Reproducers and other fixtures belong under
``tests/`` (fleet reproducers in ``tests/regressions/``).  This scan
flags any string literal in a test module whose first path component is
``results``, which is how such a path gets built (``root / "results" /
...`` or ``"results/..."``).
"""

import ast
from pathlib import Path, PurePosixPath

TESTS = Path(__file__).resolve().parent
IGNORED_DIR = "results"


def results_paths(source: str) -> list[tuple[int, str]]:
    """(line, literal) of every string literal that names ``results/...``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = PurePosixPath(node.value.strip()).parts
            if parts and parts[0] == IGNORED_DIR:
                hits.append((node.lineno, node.value))
    return hits


def test_scan_flags_paths_under_results():
    assert results_paths('p = root / "results" / "x.src"') == [(1, "results")]
    assert results_paths('p = Path("results/fuzz.json")') == \
        [(1, "results/fuzz.json")]
    assert results_paths('p = f"results/{name}.src"') == [(1, "results/")]
    assert results_paths('p = tmp_path / "out"; msg = "results differ"') == []


def test_no_test_builds_a_path_under_results():
    offenders = []
    for path in sorted(TESTS.rglob("*.py")):
        if path == Path(__file__).resolve():
            continue
        for line, literal in results_paths(path.read_text(encoding="utf-8")):
            offenders.append(f"{path.relative_to(TESTS)}:{line}: {literal!r}")
    assert not offenders, (
        "tests must not read from the gitignored results/ directory; "
        "commit the input under tests/ instead:\n" + "\n".join(offenders))
