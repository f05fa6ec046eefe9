"""Control-data flow graph (CDFG) model — Section 2.1 of the paper.

A CDFG combines data-flow and control-flow in one graph.  Nodes are
arithmetic / logical / comparison operations plus the structural ``Sel``
(branch merge) and ``Elp`` (end-loop) nodes; every node has exactly one
*control port* with a polarity (active-high, active-low, or null).  Edges
carry only data; edges that feed control ports are a presentation detail
(dashed in the paper's figures).  Loop-carried edges are marked and carry an
initial value, mirroring the ``i(0)`` annotations of Figure 1.

On top of the flat graph we keep a *region tree* (block / if / loop), which
gives the interpreter and the schedulers a well-defined execution structure
without losing the flat-graph generality the analyses need.
"""

from repro.cdfg.node import Node, OpKind, Polarity, ControlPort
from repro.cdfg.edge import Edge, CONTROL_PORT
from repro.cdfg.graph import CDFG
from repro.cdfg.regions import (
    Region,
    BlockRegion,
    IfRegion,
    LoopRegion,
    CarriedVar,
    RegionKind,
)
from repro.cdfg.builder import build_cdfg
from repro.cdfg.analysis import mutually_exclusive, condition_nodes

__all__ = [
    "Node",
    "OpKind",
    "Polarity",
    "ControlPort",
    "Edge",
    "CONTROL_PORT",
    "CDFG",
    "Region",
    "BlockRegion",
    "IfRegion",
    "LoopRegion",
    "CarriedVar",
    "RegionKind",
    "build_cdfg",
    "mutually_exclusive",
    "condition_nodes",
]
