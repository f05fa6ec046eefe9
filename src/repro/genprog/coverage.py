"""Structural coverage bins measured by every fuzz run.

A guided run (``fuzz_run(..., guided=True)``, corpus policy in
:mod:`repro.genprog.fleet`) steers generation toward program
*structure* the pipeline has not exercised yet.  "Structure" is read off
the artifacts the pipeline already computes — never off ids, timings or
anything else that varies run to run:

* ``shape:*`` / ``depth:*`` — region-nesting shapes from the CDFG region
  tree (the same tree wavesched schedules);
* ``move:*`` / ``commit:*`` — move kinds fired during the
  iterative-improvement search, from
  :class:`~repro.core.search.SearchHistory`;
* ``stg:*`` — transition patterns of the scheduled STG (state-count
  bucket, branch fan-out, guard arity, multi-cycle states), from the
  same content the store's :func:`~repro.store.codec.digest_key`
  signatures hash;
* ``path:*`` — conformance-path depth: how many states a stimulus pass
  actually walks during replay, and whether that depth is
  data-dependent;
* ``mem:*`` — array/RAM structure (array count, total words, access
  kinds, read-modify-write) from the CDFG's memory nodes.

Every bin is a short string, every extractor is a pure function of
bit-reproducible inputs, so a program's coverage is **deterministic per
seed and identical across cache on/off and store warm/cold** — the
property test in ``tests/test_coverage.py`` enforces exactly that.
"""

from __future__ import annotations

from repro.cdfg.node import OpKind
from repro.cdfg.regions import BlockRegion, IfRegion, LoopRegion
from repro.core.profile import PROFILER

#: Branch fan-out and guard-arity bins are capped here: beyond this the
#: exact value stops being interesting and would fragment the corpus.
_CAP = 6


def _bucket(value: int) -> int:
    """Log2 bucket of a non-negative count (0->0, 1->1, 2-3->2, 4-7->3...)."""
    bucket = 0
    while value > 0:
        value >>= 1
        bucket += 1
    return bucket


def region_bins(cdfg) -> frozenset[str]:
    """``shape:`` and ``depth:`` bins from the CDFG region tree.

    Each control region (if / for / while) contributes the bin
    ``shape:<path>`` where the path is its chain of enclosing control
    kinds, e.g. ``shape:if/while`` for a while loop inside an if arm.
    ``depth:<n>`` records the deepest control nesting seen.
    """
    bins: set[str] = set()
    max_depth = _walk_block(cdfg, cdfg.root_region, (), bins)
    bins.add(f"depth:{max_depth}")
    return frozenset(bins)


def _walk_block(cdfg, region_id: int, path: tuple[str, ...],
                bins: set[str]) -> int:
    """Add the ``shape:`` bins under one block; the deepest nesting seen."""
    block = cdfg.regions.get(region_id)
    if not isinstance(block, BlockRegion):
        return 0
    max_depth = 0
    for item in block.items:
        sub = getattr(item, "region", None)
        if sub is None:
            continue
        region = cdfg.regions.get(sub)
        if isinstance(region, IfRegion):
            here = path + ("if",)
        elif isinstance(region, LoopRegion):
            here = path + (region.loop_kind,)
        else:
            max_depth = max(max_depth, _walk_block(cdfg, sub, path, bins))
            continue
        bins.add("shape:" + "/".join(here))
        max_depth = max(max_depth, len(here))
        if isinstance(region, IfRegion):
            inner = (region.then_block, region.else_block)
        else:
            inner = (region.test_block, region.body_block)
        for child in inner:
            max_depth = max(max_depth, _walk_block(cdfg, child, here, bins))
    return max_depth


def mem_bins(cdfg) -> frozenset[str]:
    """``mem:`` bins: array/RAM structure of one CDFG.

    Array-free programs contribute no ``mem:`` bins at all, so the mere
    presence of the family marks the corpus slice that exercises RAM
    binding, port-conflict scheduling and the memory power term:

    * ``mem:arrays:<n>`` — array count (capped);
    * ``mem:words:<b>`` — log2 bucket of total declared words;
    * ``mem:load`` / ``mem:store`` — access kinds present;
    * ``mem:rmw`` — some store's value data-depends on a load of the
      same array (the read-modify-write port-pressure case).
    """
    if not cdfg.array_types:
        return frozenset()
    bins = {f"mem:arrays:{min(len(cdfg.array_types), _CAP)}"}
    bins.add(f"mem:words:{_bucket(sum(size for _w, _s, size in cdfg.array_types.values()))}")
    loads = [n for n in cdfg.nodes.values() if n.kind is OpKind.LOAD]
    stores = [n for n in cdfg.nodes.values() if n.kind is OpKind.STORE]
    if loads:
        bins.add("mem:load")
    if stores:
        bins.add("mem:store")

    def depends_on_load(store) -> bool:
        seen: set[int] = set()
        frontier = [edge.src for edge in cdfg.in_edges(store.id)
                    if edge.dst_port == 1]
        while frontier:
            nid = frontier.pop()
            if nid in seen:
                continue
            seen.add(nid)
            node = cdfg.node(nid)
            if node.kind is OpKind.LOAD and node.mem == store.mem:
                return True
            frontier.extend(edge.src for edge in cdfg.in_edges(nid))
        return False

    if any(depends_on_load(store) for store in stores):
        bins.add("mem:rmw")
    return frozenset(bins)


def search_bins(history) -> frozenset[str]:
    """``move:`` and ``commit:`` bins from one search's history.

    A ``move:<kind>`` bin is added for every move kind that fired (was
    evaluated) anywhere in the search; ``commit:<n>`` buckets how many
    moves the search actually committed.
    """
    bins: set[str] = set()
    for iteration in history.iterations:
        for step in iteration:
            bins.add(f"move:{step.move_signature[0]}")
    bins.add(f"commit:{_bucket(len(history.committed))}")
    return frozenset(bins)


def stg_bins(stg) -> frozenset[str]:
    """``stg:`` bins: transition patterns of one scheduled STG."""
    bins: set[str] = set()
    bins.add(f"stg:states:{_bucket(stg.n_states)}")
    fanout = max((len(stg.out_transitions(sid)) for sid in stg.states), default=0)
    bins.add(f"stg:fanout:{min(fanout, _CAP)}")
    guard = max((len(t.conds) for t in stg.transitions), default=0)
    bins.add(f"stg:guard:{min(guard, _CAP)}")
    if any(state.duration > 1 for state in stg.states.values()):
        bins.add("stg:multicycle")
    return frozenset(bins)


def replay_bins(replay) -> frozenset[str]:
    """``path:`` bins: conformance-path depth under the fuzz stimulus.

    ``path:<b>`` buckets the deepest state walk any pass took;
    ``path:data`` marks data-dependent control flow (different passes
    walked different-length paths) — the control-flow-intensive case the
    paper's machinery exists for.
    """
    lengths = [len(seq) for seq in replay.state_seq]
    if not lengths:
        return frozenset({"path:0"})
    bins = {f"path:{_bucket(max(lengths))}"}
    if len(set(lengths)) > 1:
        bins.add("path:data")
    return frozenset(bins)


def extract_coverage(*, cdfg=None, history=None, stg=None,
                     replay=None) -> frozenset[str]:
    """Union of all bins derivable from whatever artifacts are at hand.

    Any argument may be ``None`` (a program that failed before synthesis
    still contributes its region shape).  Counted under the profiler's
    ``coverage`` stage so profiles show extraction traffic.
    """
    bins: frozenset[str] = frozenset()
    if cdfg is not None:
        bins |= region_bins(cdfg)
        bins |= mem_bins(cdfg)
    if history is not None:
        bins |= search_bins(history)
    if stg is not None:
        bins |= stg_bins(stg)
    if replay is not None:
        bins |= replay_bins(replay)
    PROFILER.record("coverage")
    return bins


def coverage_digest(bins: frozenset[str]) -> str:
    """Stable short digest of a coverage set (corpus/report bookkeeping)."""
    from repro.store import digest_key

    return digest_key(tuple(sorted(bins)))[:12]


def bin_families(bins) -> dict[str, int]:
    """Distinct-bin counts per family prefix (``shape``, ``move``, ...)."""
    families: dict[str, int] = {}
    for name in bins:
        family = name.split(":", 1)[0]
        families[family] = families.get(family, 0) + 1
    return dict(sorted(families.items()))
