"""The HDL backend: Verilog emission and netlist-level execution.

Lowering (:func:`lower_architecture`) turns a bound
:class:`~repro.rtl.architecture.Architecture` into a word-level netlist;
:func:`emit_verilog` renders that netlist as one synthesizable
Verilog-2001 module, :func:`emit_testbench` generates a self-checking
testbench for a concrete stimulus, and :func:`simulate_netlist` executes
the same netlist cycle-accurately in pure python — the always-available
oracle the conformance suite (:mod:`repro.verify.conformance`) cross
checks against the interpreter, STG replay and gatesim.
"""

from repro.hdl.cosim import CosimResult, iverilog_available, run_iverilog
from repro.hdl.lower import lower_architecture
from repro.hdl.netlist import Netlist
from repro.hdl.netsim import (
    NetlistProgram,
    NetlistSimulator,
    NetSimResult,
    run_passes as simulate_netlist,
)
from repro.hdl.testbench import emit_testbench
from repro.hdl.verilog import emit_verilog

__all__ = [
    "CosimResult",
    "Netlist",
    "NetlistProgram",
    "NetlistSimulator",
    "NetSimResult",
    "emit_testbench",
    "emit_verilog",
    "iverilog_available",
    "lower_architecture",
    "run_iverilog",
    "simulate_netlist",
]
