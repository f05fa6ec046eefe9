"""Shared low-level helpers: bit-width arithmetic and toggle counting."""

from repro.utils.bitwidth import (
    mask_for_width,
    min_signed,
    max_signed,
    wrap_to_width,
    to_unsigned,
)
from repro.utils.hamming import (
    popcount,
    toggle_series,
)

__all__ = [
    "mask_for_width",
    "min_signed",
    "max_signed",
    "wrap_to_width",
    "to_unsigned",
    "popcount",
    "toggle_series",
]
