"""No nested function in ``src/repro`` refers to its own name.

A nested function that calls itself reaches itself through a closure
cell, and the cell holds the function: each call of the enclosing
function leaves one reference cycle, with everything the closure
captured, that only the cyclic garbage collector can free.  The search
runs with that collector paused (``SynthesisEngine.run``), so the
recursions in ``src/`` are module-level functions that take their state
as arguments.  This scan lists every nested function that names itself
in its own body.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _names_itself(func: ast.AST) -> bool:
    return any(isinstance(node, ast.Name) and node.id == func.name
               for stmt in func.body for node in ast.walk(stmt))


def recursive_closures(source: str) -> list[tuple[int, str]]:
    """(line, name) of every nested function that refers to its own name."""
    hits = []
    pending = [(node, False) for node in ast.parse(source).body]
    while pending:
        node, nested = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if nested and _names_itself(node):
                hits.append((node.lineno, node.name))
            inner = True
        else:
            # A class body starts a new scope: its methods are not closures.
            inner = nested and not isinstance(node, ast.ClassDef)
        pending.extend((child, inner) for child in ast.iter_child_nodes(node))
    return sorted(hits)


def test_scan_flags_only_nested_self_references():
    source = (
        "def top(n):\n"                     # 1: module level, may recurse
        "    return top(n - 1)\n"
        "def outer(xs):\n"                  # 3
        "    def walk(x):\n"                # 4: flagged
        "        return [walk(y) for y in x]\n"
        "    def leaf(x):\n"                # 6: no self-reference
        "        return outer(x)\n"
        "    class K:\n"                    # 8: methods are not closures
        "        def m(self):\n"
        "            return self.m\n"
        "    async def poll():\n"           # 11: flagged
        "        await poll()\n"
        "    return walk(xs)\n"
        "class C:\n"
        "    def method(self):\n"           # 15: a method, not nested
        "        return method\n"
    )
    assert recursive_closures(source) == [(4, "walk"), (11, "poll")]


def test_no_recursive_closure_in_src():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for line, name in recursive_closures(path.read_text(encoding="utf-8")):
            offenders.append(f"{path.relative_to(SRC.parents[1])}:{line}: {name}")
    assert not offenders, (
        "nested functions that call themselves leave a reference cycle per "
        "call; make each a module-level function of explicit arguments:\n"
        + "\n".join(offenders))
