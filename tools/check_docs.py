"""Docs smoke check: every ``bash`` snippet must reference live code.

Scans README.md and docs/*.md for fenced ```bash blocks and validates
each command line against the repository:

* ``python -m <module>`` — the module must import (with ``src/`` on the
  path), and for ``python -m repro <subcommand>`` the subcommand must
  exist in the CLI parser with every long option it is given;
* ``python <file> ...`` / ``pytest <file>`` — the referenced file must
  exist;
* one ``--help`` smoke run per distinct documented module, so a snippet
  can never point at a module whose entry point crashes on import.

Every ``REPRO_*`` environment variable named anywhere in those files
must also occur somewhere under ``src/``, so the docs cannot keep
advertising a variable the code no longer reads.  Likewise every
``memo.<name>`` profiler stage they name must be the stage of a memo
table that ``repro.core.cache.SynthesisCache`` defines.

Exit code is non-zero on the first stale path, so CI catches docs that
drift from the code.  Run from the repository root:

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import importlib.util
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

FENCE = re.compile(r"```bash\n(.*?)```", re.DOTALL)
ENV_VAR = re.compile(r"REPRO_[A-Z_]+")
MEMO_STAGE = re.compile(r"\bmemo\.([a-z_]+)")


def extract_commands(text: str) -> list[str]:
    """Bash snippet lines, with continuations joined and comments dropped."""
    commands = []
    for block in FENCE.findall(text):
        joined = block.replace("\\\n", " ")
        for line in joined.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                commands.append(line)
    return commands


def strip_env_prefix(tokens: list[str]) -> list[str]:
    """Drop leading VAR=value assignments (e.g. PYTHONPATH=src)."""
    while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
        tokens = tokens[1:]
    return tokens


def memo_tables() -> set[str]:
    """Names of the memo tables a fresh ``SynthesisCache`` holds."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    from repro.core.cache import MemoTable, SynthesisCache

    return {table.name for table in vars(SynthesisCache()).values()
            if isinstance(table, MemoTable)}


def module_exists(name: str) -> bool:
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ModuleNotFoundError, ValueError):
        return False


def cli_accepts(argv: list[str]) -> str | None:
    """Check a ``repro <subcommand> --opts`` line against the live parser."""
    from repro.cli import build_parser

    parser = build_parser()
    subactions = next(a for a in parser._actions
                      if hasattr(a, "choices") and a.choices
                      and not a.option_strings)
    if not argv:
        return None  # bare `python -m repro --help` style
    sub = argv[0]
    if sub.startswith("-"):
        return None
    if sub not in subactions.choices:
        return f"unknown subcommand {sub!r} (have {sorted(subactions.choices)})"
    known = {opt for action in subactions.choices[sub]._actions
             for opt in action.option_strings}
    for token in argv[1:]:
        if token.startswith("--") and token.split("=")[0] not in known:
            return f"subcommand {sub!r} has no option {token.split('=')[0]!r}"
    return None


def check_command(line: str) -> tuple[str | None, str | None]:
    """Validate one snippet line; returns (error, module-to-smoke)."""
    try:
        tokens = strip_env_prefix(shlex.split(line))
    except ValueError as exc:
        return f"unparseable: {exc}", None
    if not tokens:
        return None, None
    prog = Path(tokens[0]).name
    if prog in ("pip", "sudo", "apt-get", "cat", "iverilog"):
        return None, None
    if prog not in ("python", "python3"):
        return None, None
    args = tokens[1:]
    if not args:
        return None, None  # bare interpreter (interactive snippet)
    if args[0] == "-m":
        module = args[1]
        rest = args[2:]
        if module in ("pytest", "pip"):
            return _check_paths(rest), None
        if not module_exists(module):
            return f"module {module!r} does not import", None
        if module == "repro":
            return cli_accepts(rest), module
        return None, module
    return _check_paths(args), None


def _check_paths(args: list[str]) -> str | None:
    """The file-like arguments of a command must exist in the repo."""
    for token in args:
        if token.startswith("-"):
            continue
        if "/" in token and not token.startswith("results/"):
            candidate = (ROOT / token)
            if not candidate.exists():
                return f"referenced path {token!r} does not exist"
    return None


def smoke_help(module: str) -> str | None:
    """``python -m <module> --help`` must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-m", module, "--help"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**__import__("os").environ,
             "PYTHONPATH": str(SRC) + (
                 ":" + __import__("os").environ["PYTHONPATH"]
                 if "PYTHONPATH" in __import__("os").environ else "")})
    if proc.returncode != 0:
        return (f"`python -m {module} --help` exited "
                f"{proc.returncode}: {proc.stderr.strip()[:200]}")
    return None


def main() -> int:
    sources = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    failures = []
    modules: set[str] = set()
    n_commands = 0
    known = {name for path in SRC.rglob("*.py")
             for name in ENV_VAR.findall(path.read_text(encoding="utf-8"))}
    tables = memo_tables()
    for source in sources:
        text = source.read_text(encoding="utf-8")
        for name in sorted(set(ENV_VAR.findall(text)) - known):
            failures.append(f"{source.relative_to(ROOT)}: environment "
                            f"variable {name} does not occur under src/")
        for name in sorted(set(MEMO_STAGE.findall(text)) - tables):
            failures.append(f"{source.relative_to(ROOT)}: stage memo.{name} "
                            f"names no table of SynthesisCache "
                            f"(have {sorted(tables)})")
        for line in extract_commands(text):
            n_commands += 1
            error, module = check_command(line)
            if error:
                failures.append(f"{source.relative_to(ROOT)}: {line!r}: {error}")
            if module:
                modules.add(module)
    for module in sorted(modules):
        error = smoke_help(module)
        if error:
            failures.append(error)

    print(f"check_docs: {n_commands} snippet commands across "
          f"{len(sources)} files, {len(modules)} modules --help-smoked")
    if failures:
        print("\n".join(f"STALE: {f}" for f in failures))
        return 1
    print("check_docs: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
