"""The characterized default library.

Anchored to the paper's worked example (Section 3.2.1): adder = 10 ns, 2:1
multiplexer = 3 ns, 10 % chaining overhead, 15 ns nominal clock at 5 V.
Areas are gate-equivalent units; capacitances give energies in pJ when
multiplied by Vdd^2 (so a 1 pF module at 5 V burns 25 pJ per activation at
full activity — a continuously-busy 16-bit ripple adder then dissipates
about 1.5 mW at a 15 ns clock, in line with the example's magnitudes).

Implementation diversity per op class (the raw material of the module
selection/substitution move):

========== ==================== ====================================
op class   slow / small         fast / large
========== ==================== ====================================
add        ``add_ripple``       ``add_cla``
add+sub    ``addsub_ripple``    ``addsub_cla``
sub        ``sub_ripple``       (covered by addsub_cla)
mul        ``mul_array``        ``mul_wallace``
compare    ``cmp_ripple``       ``cmp_fast`` (+ ``eq_fast`` for ==/!=)
logic      ``logic_unit``
shift      ``barrel_shifter``
multi-op   ``alu`` (add/sub/compare on one unit)
========== ==================== ====================================
"""

from __future__ import annotations

from repro.cdfg.node import OpKind
from repro.library.library import ModuleLibrary
from repro.library.module import ModuleSpec

#: Nominal clock period (ns) at 5 V — the paper's worked-example value.
DEFAULT_CLOCK_NS = 15.0

#: Delay of one 2:1 multiplexer stage (ns) — paper value.
MUX_DELAY_NS = 3.0

#: Fractional delay overhead per chained (non-first) unit in a state.
CHAIN_OVERHEAD = 0.10

#: Register characterization (per bit).
REGISTER_AREA_PER_BIT = 8.0
REGISTER_CAP_PER_BIT = 0.020   # data-toggle capacitance, pF/bit
REGISTER_CLOCK_CAP_PER_BIT = 0.004  # clock-load capacitance, pF/bit/cycle

#: 2:1 multiplexer characterization (per bit of data width).  The
#: capacitance is calibrated so that shared CFI datapaths spend a large
#: fraction of their power in the multiplexer network, as the paper's
#: layout measurements report ([13]: interconnect > 40 %); see DESIGN.md.
MUX_AREA_PER_BIT = 3.0
MUX_CAP_PER_BIT = 0.055

#: Weight of internal (carry / partial-product) toggles against port
#: toggles in functional-unit energy.
FU_INTERNAL_WEIGHT = 0.8

#: Fixed fraction of a RAM access's switched capacitance: word-line
#: select and bit-line precharge fire every access regardless of data;
#: the rest scales with measured address/data toggle activity.
MEM_STATIC_WEIGHT = 0.6

_COMPARE = frozenset({OpKind.LT, OpKind.GT, OpKind.LE, OpKind.GE, OpKind.EQ, OpKind.NE})
_EQUALITY = frozenset({OpKind.EQ, OpKind.NE})
_LOGIC = frozenset({OpKind.LAND, OpKind.LOR, OpKind.LNOT,
                    OpKind.BAND, OpKind.BOR, OpKind.BXOR})
_SHIFT = frozenset({OpKind.SHL, OpKind.SHR})

_MODULES = (
    # adders / subtractors
    ModuleSpec("add_ripple", frozenset({OpKind.ADD}), 10.0, 145.0, 0.90,
               "linear", "linear", "linear"),
    ModuleSpec("add_cla", frozenset({OpKind.ADD}), 6.0, 250.0, 1.35,
               "log", "linear", "linear"),
    ModuleSpec("sub_ripple", frozenset({OpKind.SUB}), 10.0, 150.0, 0.92,
               "linear", "linear", "linear"),
    ModuleSpec("addsub_ripple", frozenset({OpKind.ADD, OpKind.SUB}), 10.5, 170.0, 1.00,
               "linear", "linear", "linear"),
    ModuleSpec("addsub_cla", frozenset({OpKind.ADD, OpKind.SUB}), 6.5, 280.0, 1.45,
               "log", "linear", "linear"),
    # multipliers
    ModuleSpec("mul_array", frozenset({OpKind.MUL}), 28.0, 1400.0, 6.0,
               "linear", "quad", "quad"),
    ModuleSpec("mul_wallace", frozenset({OpKind.MUL}), 14.0, 2100.0, 7.5,
               "log", "quad", "quad"),
    # comparators
    ModuleSpec("cmp_ripple", _COMPARE, 8.0, 95.0, 0.45,
               "linear", "linear", "linear"),
    ModuleSpec("cmp_fast", _COMPARE, 5.0, 160.0, 0.62,
               "log", "linear", "linear"),
    ModuleSpec("eq_fast", _EQUALITY, 3.0, 45.0, 0.22,
               "log", "linear", "linear"),
    # logic and shifts
    ModuleSpec("logic_unit", _LOGIC, 2.0, 50.0, 0.26,
               "const", "linear", "linear"),
    ModuleSpec("barrel_shifter", _SHIFT, 7.0, 190.0, 0.85,
               "log", "linear", "linear"),
    # multi-function unit
    ModuleSpec("alu", frozenset({OpKind.ADD, OpKind.SUB}) | _COMPARE, 11.0, 230.0, 1.20,
               "linear", "linear", "linear"),
)


def default_library() -> ModuleLibrary:
    """The library every experiment in the reproduction uses."""
    return ModuleLibrary(_MODULES)
