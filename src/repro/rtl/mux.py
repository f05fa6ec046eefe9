"""Multiplexer trees and their switching activity — Section 3.2.1.

An n-to-1 multiplexer is a binary tree of 2-to-1 multiplexers (Figure 11).
Each input signal ``i`` has a transition activity ``a_i`` and a propagation
probability ``p_i`` (the probability its value appears at the output; the
``p_i`` of a tree sum to 1).  The switching activity of one leaf mux is

    A_k = (a_i p_i + a_j p_j) / (p_i + p_j)                        (2)

and an internal mux behaves as if its grand-inputs fed it directly
(Equation 6), so the whole tree's activity is the recursive sum of
Equation (7).  The paper's worked example — activities (.6,.1,.2,.1) and
probabilities (.7,.2,.05,.05) — gives 1.09 for the balanced tree of
Figure 9 and 0.72 after Huffman restructuring (Figure 10); both values are
regression-tested.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ArchitectureError


@dataclass(frozen=True)
class MuxSource:
    """One tree input: an opaque key plus its (activity, probability)."""

    key: object
    activity: float = 0.0
    prob: float = 0.0


#: A tree is either a MuxSource (leaf) or a tuple (left, right).
TreeShape = MuxSource | tuple


class MuxTree:
    """An immutable 2:1-mux tree over a set of sources."""

    def __init__(self, shape: TreeShape):
        self._shape = shape
        self._depths: dict[object, int] = {}
        self._collect_depths(shape, 0)
        if not self._depths:
            raise ArchitectureError("mux tree has no sources")

    def _collect_depths(self, shape: TreeShape, depth: int) -> None:
        if isinstance(shape, MuxSource):
            if shape.key in self._depths:
                raise ArchitectureError(f"duplicate mux source {shape.key!r}")
            self._depths[shape.key] = depth
            return
        left, right = shape
        self._collect_depths(left, depth + 1)
        self._collect_depths(right, depth + 1)

    # -- structure ---------------------------------------------------------------

    @property
    def shape(self) -> TreeShape:
        return self._shape

    def sources(self) -> list[MuxSource]:
        out: list[MuxSource] = []
        _collect_sources(self._shape, out)
        return out

    def n_sources(self) -> int:
        return len(self._depths)

    def n_muxes(self) -> int:
        """Number of 2:1 multiplexers (n-1 for n sources)."""
        return len(self._depths) - 1

    def depth_of(self, key: object) -> int:
        """Number of 2:1 mux stages between a source and the output."""
        try:
            return self._depths[key]
        except KeyError:
            raise ArchitectureError(f"mux tree has no source {key!r}") from None

    def max_depth(self) -> int:
        return max(self._depths.values())

    # -- activity (Equations (1)-(7)) -----------------------------------------------

    def tree_activity(self) -> float:
        """Total switching activity of the tree, Equation (7).

        Returns 0 for a single-source "tree" (no multiplexers).
        """
        return self.activity_with(
            {s.key: (s.activity, s.prob) for s in self.sources()})

    def activity_with(self, stats: dict[object, tuple[float, float]]) -> float:
        """Equation (7) under externally supplied per-key (a_i, p_i).

        The power estimator calls this once per port per design point
        with measured statistics; a key missing from ``stats`` counts as
        (0, 0).
        """
        total, _ap, _p = _activity_with(self._shape, stats)
        return total


# Recursions over a tree shape take everything they read as arguments: a
# nested recursive function would form a reference cycle on every call.


def _collect_sources(shape: TreeShape, out: list[MuxSource]) -> None:
    if isinstance(shape, MuxSource):
        out.append(shape)
    else:
        _collect_sources(shape[0], out)
        _collect_sources(shape[1], out)


def _activity_with(shape: TreeShape, stats: dict[object, tuple[float, float]]
                   ) -> tuple[float, float, float]:
    """Returns (sum of A_k in subtree, sum a_i*p_i, sum p_i), with each
    leaf's (a_i, p_i) looked up in ``stats``."""
    if isinstance(shape, MuxSource):
        activity, prob = stats.get(shape.key, (0.0, 0.0))
        return 0.0, activity * prob, prob
    left_sum, left_ap, left_p = _activity_with(shape[0], stats)
    right_sum, right_ap, right_p = _activity_with(shape[1], stats)
    ap = left_ap + right_ap
    p = left_p + right_p
    node_activity = ap / p if p > 0.0 else 0.0
    return left_sum + right_sum + node_activity, ap, p


def balanced_tree(sources: list[MuxSource]) -> MuxTree:
    """Build the default balanced tree (pairing adjacent sources level by
    level, as a naive RTL generator would)."""
    if not sources:
        raise ArchitectureError("cannot build a mux tree with no sources")
    level: list[TreeShape] = list(sources)
    while len(level) > 1:
        nxt: list[TreeShape] = []
        for i in range(0, len(level) - 1, 2):
            nxt.append((level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return MuxTree(level[0])


def tree_from_pairs(shape) -> MuxTree:
    """Build a tree from nested ``(left, right)`` tuples of MuxSource."""
    return MuxTree(shape)
