"""Scalar special functions of the bundled models, on Python floats.

The models take the rest from ``math`` (``lgamma``, ``erfc``), so building
one never imports scipy's special functions, which cost about 0.3 s of
start-up.
"""

from __future__ import annotations

import math

__all__ = ["expit"]


def expit(x: float) -> float:
    """The logistic function 1 / (1 + e^-x), and 0.0 where e^-x overflows.

    This is scipy's ``expit`` formula on the C library's ``exp``, as scipy
    computes it, so the bits are the same; numpy's ``exp`` rounds
    differently.
    """
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0
