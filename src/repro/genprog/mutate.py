"""AST-level mutators for the coverage-guided fuzzing fleet.

Four structural mutations over :class:`~repro.lang.ast_nodes.Process`
values, used by :mod:`repro.genprog.fleet` to grow corpus programs
toward uncovered structure:

* ``widen``  — re-type one declared variable (or one array's element
  type, perturbing RAM geometry) to a different width/sign;
* ``nest``   — wrap a span of statements in a fresh ``if`` / bounded
  ``for`` / countdown ``while`` (grows region-nesting depth and shape);
* ``graft``  — insert a renamed copy of a donor subtree at a new site;
* ``splice`` — replace one statement by a renamed donor subtree.

Safety is by construction, not by checking: the fleet validates every
mutant (parse, type-check, CDFG build) and *executes* it through the
interpreter and the AST evaluator, so a non-terminating mutant would
hang the validator.  The generator's termination discipline is
therefore preserved structurally:

* loop-control names (``for`` iterators, ``while`` countdown counters)
  are never assignment targets for new code, and the trailing decrement
  of a ``while`` body is never dropped, replaced or wrapped;
* donor fragments keep their internal structure; names they *declare*
  are renamed fresh, free names they *write* are bound to fresh local
  declarations prepended to the fragment (so a fragment's countdown
  loops stay decrement-only), and free names they only *read* are
  remapped to variables readable at the insertion site;
* ``nest`` never wraps a declaration whose variable is referenced after
  the wrapped span, and its new loops use fresh counters with constant
  bounds;
* array declarations are protected like scalar declarations while
  referenced later, and donor fragments never reference an array they
  do not themselves declare (a free array read cannot be remapped onto
  a scalar, and a fresh scalar cannot stand in for a RAM).

Mutations that are structurally inapplicable return ``None``; mutants
the CDFG builder soundly rejects (e.g. a loop-carried read with no
pre-loop value) are discarded by the fleet's rejection sampling.  All
randomness flows through the caller's ``rng`` — mutation is
deterministic per seed.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from repro.genprog.config import DEFAULT_WIDTHS
from repro.lang import ast_nodes as ast

#: The mutation vocabulary, in the fleet's canonical order.
MUTATORS = ("splice", "graft", "widen", "nest")

_COMPARES = ("<", ">", "<=", ">=", "==", "!=")


# -- program facts --------------------------------------------------------------------


def loop_control_names(process: ast.Process) -> set[str]:
    """Names that steer loop termination: for-iterators, while-counters."""
    names: set[str] = set()
    for stmt in ast.walk_statements(process.body):
        if isinstance(stmt, ast.For):
            names.add(stmt.init.name)
        elif isinstance(stmt, ast.While):
            names |= ast.used_names(stmt.cond)
    return names


def _names_read(stmts) -> set[str]:
    """Every name read by any expression anywhere under ``stmts``."""
    out: set[str] = set()
    for stmt in ast.walk_statements(tuple(stmts)):
        for expr in ast.exprs_of(stmt):
            out |= ast.used_names(expr)
    return out


def _array_refs(stmts) -> set[str]:
    """Array names accessed (read or written) anywhere under ``stmts``."""
    out: set[str] = set()
    for stmt in ast.walk_statements(tuple(stmts)):
        if isinstance(stmt, ast.ArrayAssign):
            out.add(stmt.name)
        for expr in ast.exprs_of(stmt):
            out |= _expr_array_refs(expr)
    return out


def _expr_array_refs(expr) -> set[str]:
    if isinstance(expr, ast.IndexExpr):
        return {expr.name} | _expr_array_refs(expr.index)
    if isinstance(expr, ast.UnaryOp):
        return _expr_array_refs(expr.operand)
    if isinstance(expr, ast.BinaryOp):
        return _expr_array_refs(expr.left) | _expr_array_refs(expr.right)
    return set()


class _Names:
    """Fresh-name supply avoiding every name in the involved processes."""

    def __init__(self, *processes: ast.Process):
        self.taken: set[str] = set()
        for process in processes:
            self.taken |= {p.name for p in process.inputs}
            self.taken |= {p.name for p in process.outputs}
            self.taken |= ast.assigned_names(process.body)
            self.taken |= _names_read(process.body)
        self._k = 0

    def fresh(self) -> str:
        while True:
            self._k += 1
            name = f"g{self._k}"
            if name not in self.taken:
                self.taken.add(name)
                return name


# -- block addressing -----------------------------------------------------------------


@dataclass
class _Block:
    """One statement tuple plus its address and per-position scopes."""

    path: tuple            # ((stmt index, body field), ...) from process.body
    stmts: tuple
    #: scopes[i] = tuple of (name, Type) readable before statement i;
    #: length is len(stmts) + 1 (the last entry is the block's end).
    scopes: list
    kind: str              # "top" | "if" | "for" | "while"


def _collect_blocks(process: ast.Process) -> list[_Block]:
    blocks: list[_Block] = []
    _walk_blocks(process.body, (), tuple((p.name, p.type) for p in process.inputs),
                 "top", blocks)
    blocks.sort(key=lambda b: b.path)
    return blocks


def _walk_blocks(stmts: tuple, path: tuple, readable: tuple, kind: str,
                 blocks: list[_Block]) -> None:
    """Append the block ``stmts`` and every block nested in it to ``blocks``."""
    scopes = []
    cur = list(readable)
    for idx, stmt in enumerate(stmts):
        scopes.append(tuple(cur))
        if isinstance(stmt, ast.If):
            _walk_blocks(stmt.then_body, path + ((idx, "then_body"),),
                         tuple(cur), "if", blocks)
            _walk_blocks(stmt.else_body, path + ((idx, "else_body"),),
                         tuple(cur), "if", blocks)
        elif isinstance(stmt, (ast.For, ast.While)):
            _walk_blocks(stmt.body, path + ((idx, "body"),), tuple(cur),
                         "for" if isinstance(stmt, ast.For) else "while", blocks)
        elif isinstance(stmt, ast.VarDecl):
            cur.append((stmt.name, stmt.declared_type))
    scopes.append(tuple(cur))
    blocks.append(_Block(path, stmts, scopes, kind))


def _set_block(body: tuple, path: tuple, new_block: tuple) -> tuple:
    if not path:
        return new_block
    (idx, field), rest = path[0], path[1:]
    stmt = body[idx]
    inner = _set_block(getattr(stmt, field), rest, new_block)
    return body[:idx] + (dataclasses.replace(stmt, **{field: inner}),) + body[idx + 1:]


def _rebuild(process: ast.Process, block: _Block, new_stmts: tuple) -> ast.Process:
    return dataclasses.replace(
        process, body=_set_block(process.body, block.path, new_stmts))


# -- shared statement predicates ------------------------------------------------------


def _protected_indices(block: _Block, outputs: set[str]) -> set[int]:
    """Statement indices that must not be dropped, replaced or wrapped.

    The trailing decrement of a ``while`` body (termination), any
    assignment to an output (conformance reads them), and any
    declaration (scalar or array) whose name is referenced later in the
    block.
    """
    protected: set[int] = set()
    if block.kind == "while" and block.stmts:
        protected.add(len(block.stmts) - 1)
    for idx, stmt in enumerate(block.stmts):
        if outputs & ast.assigned_names((stmt,)):
            protected.add(idx)
        elif isinstance(stmt, ast.VarDecl):
            suffix = block.stmts[idx + 1:]
            if stmt.name in (_names_read(suffix) | ast.assigned_names(suffix)):
                protected.add(idx)
        elif isinstance(stmt, ast.ArrayDecl):
            suffix = block.stmts[idx + 1:]
            if stmt.name in (_names_read(suffix) | _array_refs(suffix)):
                protected.add(idx)
    return protected


def _compare(rng: random.Random, scope: tuple) -> ast.Expr:
    """A 1-bit condition over one in-scope variable (scope is never empty)."""
    name, _vtype = rng.choice(list(scope))
    return ast.BinaryOp(line=0, op=rng.choice(_COMPARES),
                        left=ast.VarRef(line=0, name=name),
                        right=ast.IntLit(line=0, value=rng.randrange(0, 8)))


# -- donor fragments ------------------------------------------------------------------


def _donor_type(donor: ast.Process, name: str) -> ast.Type:
    for stmt in ast.walk_statements(donor.body):
        if isinstance(stmt, ast.VarDecl) and stmt.name == name:
            return stmt.declared_type
    for param in (*donor.inputs, *donor.outputs):
        if param.name == name:
            return param.type
    return ast.Type(8, signed=True)


def _rename_expr(expr: ast.Expr, mapping: dict[str, str]) -> ast.Expr:
    if isinstance(expr, ast.VarRef):
        return dataclasses.replace(expr, name=mapping.get(expr.name, expr.name))
    if isinstance(expr, ast.IndexExpr):
        return dataclasses.replace(expr, name=mapping.get(expr.name, expr.name),
                                   index=_rename_expr(expr.index, mapping))
    if isinstance(expr, ast.UnaryOp):
        return dataclasses.replace(expr, operand=_rename_expr(expr.operand, mapping))
    if isinstance(expr, ast.BinaryOp):
        return dataclasses.replace(expr,
                                   left=_rename_expr(expr.left, mapping),
                                   right=_rename_expr(expr.right, mapping))
    return expr


def _rename_stmt(stmt: ast.Stmt, mapping: dict[str, str]) -> ast.Stmt:
    if isinstance(stmt, ast.VarDecl):
        init = None if stmt.init is None else _rename_expr(stmt.init, mapping)
        return dataclasses.replace(stmt, name=mapping.get(stmt.name, stmt.name),
                                   init=init)
    if isinstance(stmt, ast.ArrayDecl):
        return dataclasses.replace(stmt, name=mapping.get(stmt.name, stmt.name))
    if isinstance(stmt, ast.ArrayAssign):
        return dataclasses.replace(stmt, name=mapping.get(stmt.name, stmt.name),
                                   index=_rename_expr(stmt.index, mapping),
                                   value=_rename_expr(stmt.value, mapping))
    if isinstance(stmt, ast.Assign):
        return dataclasses.replace(stmt, name=mapping.get(stmt.name, stmt.name),
                                   value=_rename_expr(stmt.value, mapping))
    if isinstance(stmt, ast.If):
        return dataclasses.replace(
            stmt, cond=_rename_expr(stmt.cond, mapping),
            then_body=tuple(_rename_stmt(s, mapping) for s in stmt.then_body),
            else_body=tuple(_rename_stmt(s, mapping) for s in stmt.else_body))
    if isinstance(stmt, ast.For):
        return dataclasses.replace(
            stmt, init=_rename_stmt(stmt.init, mapping),
            cond=_rename_expr(stmt.cond, mapping),
            update=_rename_stmt(stmt.update, mapping),
            body=tuple(_rename_stmt(s, mapping) for s in stmt.body))
    if isinstance(stmt, ast.While):
        return dataclasses.replace(
            stmt, cond=_rename_expr(stmt.cond, mapping),
            body=tuple(_rename_stmt(s, mapping) for s in stmt.body))
    return stmt


def _remapped_fragment(frag: tuple, donor: ast.Process, scope: tuple,
                       rng: random.Random, names: _Names) -> tuple:
    """A renamed copy of ``frag`` safe to drop in where ``scope`` holds.

    Declared names become fresh; free written names get fresh local
    declarations (typed from the donor, initialized to a small literal)
    prepended so the fragment never writes site state — which also
    keeps donor countdown loops decrement-only; remaining free reads
    are remapped onto site-readable variables.
    """
    declared = {s.name for s in ast.walk_statements(frag)
                if isinstance(s, (ast.VarDecl, ast.ArrayDecl))}
    free_writes = ast.assigned_names(frag) - declared
    free_reads = _names_read(frag) - declared - free_writes
    mapping: dict[str, str] = {}
    prelude: list[ast.Stmt] = []
    for name in sorted(declared):
        mapping[name] = names.fresh()
    for name in sorted(free_writes):
        fresh = names.fresh()
        mapping[name] = fresh
        prelude.append(ast.VarDecl(
            line=0, name=fresh, declared_type=_donor_type(donor, name),
            init=ast.IntLit(line=0, value=rng.randrange(0, 8))))
    readable = [name for name, _vtype in scope]
    for name in sorted(free_reads):
        if readable:
            mapping[name] = rng.choice(readable)
        else:  # inputless site: bind the read to a fresh local instead
            fresh = names.fresh()
            mapping[name] = fresh
            prelude.append(ast.VarDecl(
                line=0, name=fresh, declared_type=_donor_type(donor, name),
                init=ast.IntLit(line=0, value=rng.randrange(0, 8))))
    return tuple(prelude) + tuple(_rename_stmt(s, mapping) for s in frag)


def _pick_fragment(donor: ast.Process, rng: random.Random) -> tuple | None:
    """One donor statement (possibly compound) as a 1-tuple fragment.

    Fragments that access an array they do not themselves declare are
    excluded: a free array reference cannot be remapped onto a scalar at
    the insertion site, and fresh scalar declarations cannot stand in
    for a RAM.
    """
    pool = []
    for block in _collect_blocks(donor):
        for stmt in block.stmts:
            frag = (stmt,)
            declared = {s.name for s in ast.walk_statements(frag)
                        if isinstance(s, ast.ArrayDecl)}
            if _array_refs(frag) - declared:
                continue
            pool.append(stmt)
    if not pool:
        return None
    return (rng.choice(pool),)


# -- the four mutators ----------------------------------------------------------------


def _widen(process: ast.Process, rng: random.Random,
           blocks: list[_Block], control: set[str]) -> ast.Process | None:
    decls = [(block, idx, stmt)
             for block in blocks
             for idx, stmt in enumerate(block.stmts)
             if (isinstance(stmt, ast.VarDecl) and stmt.name not in control)
             or isinstance(stmt, ast.ArrayDecl)]
    if not decls:
        return None
    block, idx, stmt = rng.choice(decls)
    old_type = (stmt.elem_type if isinstance(stmt, ast.ArrayDecl)
                else stmt.declared_type)
    current = (old_type.width, old_type.signed)
    pool = [spec for spec in DEFAULT_WIDTHS if spec != current]
    width, signed = rng.choice(pool)
    if isinstance(stmt, ast.ArrayDecl):
        # Re-typing an array's elements perturbs RAM geometry (and with
        # it port delay, area and the memory power term).
        new_stmt = dataclasses.replace(stmt, elem_type=ast.Type(width, signed))
    else:
        new_stmt = dataclasses.replace(stmt, declared_type=ast.Type(width, signed))
    return _rebuild(process, block,
                    block.stmts[:idx] + (new_stmt,) + block.stmts[idx + 1:])


def _nest(process: ast.Process, rng: random.Random, blocks: list[_Block],
          outputs: set[str], names: _Names) -> ast.Process | None:
    spans = []
    for block in blocks:
        protected = _protected_indices(block, outputs)
        for i in range(len(block.stmts)):
            for j in range(i + 1, len(block.stmts) + 1):
                if any(k in protected for k in range(i, j)):
                    break
                spans.append((block, i, j))
    if not spans:
        return None
    block, i, j = rng.choice(spans)
    span = block.stmts[i:j]
    scope = block.scopes[i]
    kind = rng.choice(("if", "for", "while"))
    if kind == "if":
        wrapped: tuple = (ast.If(line=0, cond=_compare(rng, scope),
                                 then_body=span, else_body=()),)
    elif kind == "for":
        it = names.fresh()
        decl = ast.VarDecl(line=0, name=it,
                           declared_type=ast.Type(8, signed=True),
                           init=ast.IntLit(line=0, value=0))
        loop = ast.For(
            line=0,
            init=ast.Assign(line=0, name=it, value=ast.IntLit(line=0, value=0)),
            cond=ast.BinaryOp(line=0, op="<",
                              left=ast.VarRef(line=0, name=it),
                              right=ast.IntLit(line=0,
                                               value=rng.randrange(2, 5))),
            update=ast.Assign(line=0, name=it, value=ast.BinaryOp(
                line=0, op="+", left=ast.VarRef(line=0, name=it),
                right=ast.IntLit(line=0, value=1))),
            body=span)
        wrapped = (decl, loop)
    else:
        counter = names.fresh()
        ctype = ast.Type(rng.randrange(2, 4), signed=False)
        decl = ast.VarDecl(line=0, name=counter, declared_type=ctype,
                           init=ast.IntLit(line=0, value=rng.randrange(1, 8)))
        loop = ast.While(
            line=0,
            cond=ast.BinaryOp(line=0, op=">",
                              left=ast.VarRef(line=0, name=counter),
                              right=ast.IntLit(line=0, value=0)),
            body=span + (ast.Assign(line=0, name=counter, value=ast.BinaryOp(
                line=0, op="-", left=ast.VarRef(line=0, name=counter),
                right=ast.IntLit(line=0, value=1))),))
        wrapped = (decl, loop)
    return _rebuild(process, block, block.stmts[:i] + wrapped + block.stmts[j:])


def _graft(process: ast.Process, rng: random.Random, blocks: list[_Block],
           donor: ast.Process, names: _Names,
           link_into: list[str]) -> ast.Process | None:
    sites = []
    for block in blocks:
        stop = len(block.stmts) if block.kind == "while" \
            else len(block.stmts) + 1
        sites.extend((block, pos) for pos in range(stop))
    if not sites:
        return None
    block, pos = rng.choice(sites)
    picked = _pick_fragment(donor, rng)
    if picked is None:
        return None
    frag = _remapped_fragment(picked, donor, block.scopes[pos], rng, names)
    # Optionally tie a fragment-declared variable into live dataflow so
    # the mutant is not pure dead code for the semantic oracles.
    fresh = [s.name for s in frag if isinstance(s, ast.VarDecl)]
    live = [name for name, _vtype in block.scopes[pos] if name in link_into]
    if fresh and live and rng.random() < 0.6:
        target = rng.choice(live)
        frag = frag + (ast.Assign(line=0, name=target, value=ast.BinaryOp(
            line=0, op="^", left=ast.VarRef(line=0, name=target),
            right=ast.VarRef(line=0, name=rng.choice(fresh)))),)
    return _rebuild(process, block,
                    block.stmts[:pos] + frag + block.stmts[pos:])


def _splice(process: ast.Process, rng: random.Random, blocks: list[_Block],
            donor: ast.Process, outputs: set[str],
            names: _Names) -> ast.Process | None:
    targets = []
    for block in blocks:
        protected = _protected_indices(block, outputs)
        targets.extend((block, idx) for idx in range(len(block.stmts))
                       if idx not in protected)
    if not targets:
        return None
    block, idx = rng.choice(targets)
    picked = _pick_fragment(donor, rng)
    if picked is None:
        return None
    frag = _remapped_fragment(picked, donor, block.scopes[idx], rng, names)
    return _rebuild(process, block,
                    block.stmts[:idx] + frag + block.stmts[idx + 1:])


def mutate(process: ast.Process, op: str, rng: random.Random, *,
           donor: ast.Process | None = None) -> ast.Process | None:
    """Apply mutator ``op`` to ``process``; ``None`` if inapplicable.

    ``donor`` supplies the subtree for ``graft``/``splice`` (defaults to
    the process itself).  The result preserves the generator's
    termination discipline by construction but may still be rejected by
    the CDFG builder — callers validate and resample.
    """
    donor = donor if donor is not None else process
    names = _Names(process, donor)
    control = loop_control_names(process)
    inputs = {p.name for p in process.inputs}
    outputs = {p.name for p in process.outputs}
    blocks = _collect_blocks(process)
    if op == "widen":
        return _widen(process, rng, blocks, control)
    if op == "nest":
        return _nest(process, rng, blocks, outputs, names)
    if op == "graft":
        link_into = sorted(ast.assigned_names(process.body)
                           - control - inputs - outputs)
        return _graft(process, rng, blocks, donor, names, link_into)
    if op == "splice":
        return _splice(process, rng, blocks, donor, outputs, names)
    raise ValueError(f"unknown mutator {op!r} (expected one of {MUTATORS})")
