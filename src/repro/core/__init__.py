"""IMPACT's core: binding, moves, the iterative-improvement search.

This package is the paper's primary contribution — everything else in the
library is substrate.  :mod:`repro.core.impact` wires the Figure 7 flow
together; :mod:`repro.core.search` is the SCALP-style variable-depth search;
:mod:`repro.core.moves` the move set; :mod:`repro.core.mux_restructure` the
Huffman multiplexer-tree restructuring of Figure 12.
"""

from repro.core.binding import Binding, FUInstance, RegInstance
from repro.core.cache import MemoTable, SynthesisCache
from repro.core.delta import DirtySet
from repro.core.engine import SynthesisEngine, SynthesisResult
from repro.core.profile import PROFILER, Profiler

__all__ = [
    "Binding",
    "FUInstance",
    "RegInstance",
    "DirtySet",
    "MemoTable",
    "PROFILER",
    "Profiler",
    "SynthesisCache",
    "SynthesisEngine",
    "SynthesisResult",
]
