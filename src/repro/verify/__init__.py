"""Differential verification of synthesized architectures.

:mod:`repro.verify.conformance` drives identical stimulus through every
execution model this reproduction has — the behavioral CDFG interpreter,
duration-normalized STG replay, the bit-level gatesim, the emitted
Verilog's netlist simulator, and (opportunistically) iverilog on the
printed Verilog text — and asserts output-value and cycle-count
agreement, minimizing the first divergent stimulus automatically.
"""

from repro.verify.conformance import (
    ConformanceReport,
    Divergence,
    minimize_stimulus,
    verify_architecture,
    verify_benchmark,
)

__all__ = [
    "ConformanceReport",
    "Divergence",
    "minimize_stimulus",
    "verify_architecture",
    "verify_benchmark",
]
