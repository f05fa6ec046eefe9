"""Two's-complement bit-width arithmetic.

The behavioral interpreter and the bit-level power simulator both evaluate
word-level values with explicit bit widths.  Values are stored as Python ints
(or numpy int64 arrays) in *signed* form; these helpers convert between the
signed view (used by arithmetic) and the unsigned bit-pattern view (used by
toggle counting).
"""

from __future__ import annotations

import numpy as np


def mask_for_width(width: int) -> int:
    """Return the all-ones mask for ``width`` bits (``width >= 1``)."""
    if width < 1:
        raise ValueError(f"bit width must be >= 1, got {width}")
    return (1 << width) - 1


def min_signed(width: int) -> int:
    """Smallest representable signed value for ``width`` bits."""
    return -(1 << (width - 1))


def max_signed(width: int) -> int:
    """Largest representable signed value for ``width`` bits."""
    return (1 << (width - 1)) - 1


def wrap_to_width(value: int, width: int) -> int:
    """Wrap an arbitrary int to signed two's complement of ``width`` bits."""
    mask = mask_for_width(width)
    value &= mask
    if value > max_signed(width):
        value -= 1 << width
    return value


def wrap(value: int, width: int, signed: bool) -> int:
    """``value`` wrapped to a ``width``-bit signed or unsigned word."""
    return wrap_to_width(value, width) if signed else to_unsigned(value, width)


def wrap_source(src: str, width: int, signed: bool) -> str:
    """Python source of :func:`wrap` applied to the expression ``src``,
    which must bind at least as tightly as ``+``.  The generated
    simulators inline it."""
    mask = (1 << width) - 1
    if not signed:
        return f"({src} & {mask})"
    half = 1 << (width - 1)
    return f"(({src} + {half} & {mask}) - {half})"


def to_unsigned(value: int, width: int) -> int:
    """Bit pattern of a signed ``value`` in ``width`` bits, as a non-negative int."""
    return value & mask_for_width(width)


def to_unsigned_array(values: np.ndarray, width: int) -> np.ndarray:
    """Vectorised :func:`to_unsigned` over an int64 array."""
    mask = np.int64(mask_for_width(width))
    return values.astype(np.int64) & mask
