"""The RT-level module library.

The paper synthesizes against the MSU standard-cell library; each operation
has several implementations trading delay against area and energy (e.g.
array vs. Wallace-tree multipliers, Section 3.2.2).  We characterize an
equivalent library with the paper's anchor numbers: a (ripple) adder takes
10 ns, a 2:1 multiplexer 3 ns, chaining adds 10 % delay overhead, and the
nominal clock period is 15 ns at Vdd = 5 V.
"""

from repro.library.module import ModuleSpec, scale_delay, scale_area, scale_capacitance
from repro.library.library import ModuleLibrary
from repro.library.modules_data import default_library, DEFAULT_CLOCK_NS, MUX_DELAY_NS, CHAIN_OVERHEAD
from repro.library.voltage import (
    NOMINAL_VDD,
    MIN_VDD,
    THRESHOLD_V,
    delay_scale,
    max_vdd_scaling,
)

__all__ = [
    "ModuleSpec",
    "ModuleLibrary",
    "default_library",
    "DEFAULT_CLOCK_NS",
    "MUX_DELAY_NS",
    "CHAIN_OVERHEAD",
    "NOMINAL_VDD",
    "MIN_VDD",
    "THRESHOLD_V",
    "delay_scale",
    "max_vdd_scaling",
    "scale_delay",
    "scale_area",
    "scale_capacitance",
]
