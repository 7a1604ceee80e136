"""Embedding of integer parameters into the real line.

An integer value n owns the right-closed cell (a_n, a_{n+1}] of a strictly
increasing knot sequence.  That rule is written once, in ``EmbeddingMap.cell``
and ``EmbeddingMap.cells``; every model decodes through them.  A discrete mass
function pi(n) becomes the piecewise-constant density

    pi(x) = pi(n) / (a_{n+1} - a_n)   for x in (a_n, a_{n+1}],

so integrating the embedded density over a cell recovers the original mass.
Uniform knots use unit cells, logarithmic knots give cells whose width shrinks
like 1/n so that multiplicative moves cost a constant step.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import ContractError, OutOfSupportError

__all__ = ["EmbeddingMap"]


@dataclass(frozen=True, eq=False)
class EmbeddingMap:
    """Strictly increasing knots plus the integer values of the cells.

    ``values`` are consecutive integers; ``values[k]`` labels the cell
    ``(knots[k], knots[k+1]]``.  ``cell``, the scalar lookup that the models'
    per-coordinate diffs call, bisects a flat ``array('d')`` copy of the
    knots made once here: it is cheaper per call than a numpy search, takes a
    quarter of the memory of a list of floats, and pickles into worker
    processes.  ``cells`` searches the numpy knots.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.array(self.knots, dtype=float)
        values = np.array(self.values, dtype=np.int64)
        if knots.ndim != 1 or len(knots) < 2:
            raise ContractError("need at least two knots")
        if np.any(np.diff(knots) <= 0) or not np.all(np.isfinite(knots)):
            raise ContractError("knots must be finite and strictly increasing")
        if values.shape != (len(knots) - 1,):
            raise ContractError("values must have one entry per cell")
        if len(values) > 1 and np.any(np.diff(values) != 1):
            raise ContractError("cell values must be consecutive integers")
        knots.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_flat_knots", array("d", knots.tobytes()))

    def __eq__(self, other):
        """Maps are equal when their knots and values are; like their
        arrays, they are not hashable."""
        if not isinstance(other, EmbeddingMap):
            return NotImplemented
        return (np.array_equal(self.knots, other.knots)
                and np.array_equal(self.values, other.values))

    @classmethod
    def uniform(cls, lo: int, hi: int) -> "EmbeddingMap":
        """Unit cells (n, n+1] for each integer n in [lo, hi]."""
        if hi < lo:
            raise ContractError("empty support")
        values = np.arange(lo, hi + 1)
        knots = np.arange(lo, hi + 2, dtype=float)
        return cls(knots=knots, values=values)

    @classmethod
    def logarithmic(cls, lo: int, hi: int) -> "EmbeddingMap":
        """Cells (log v, log(v+1)] so a fixed step is a multiplicative move.

        Supports with lo < 1 are shifted by 1 - lo before taking logs, which
        keeps every knot finite.
        """
        if hi < lo:
            raise ContractError("empty support")
        shift = 1 - lo if lo < 1 else 0
        values = np.arange(lo, hi + 1)
        knots = np.log(np.arange(lo, hi + 2, dtype=float) + shift)
        return cls(knots=knots, values=values)

    @property
    def n_cells(self) -> int:
        return len(self.values)

    @property
    def lo(self) -> int:
        return int(self.values[0])

    @property
    def hi(self) -> int:
        return int(self.values[-1])

    def cell(self, x: float) -> int | None:
        """Index k of the cell (knots[k], knots[k+1]] holding x, else None."""
        # bisect_left counts the knots below x, which lies on the support
        # exactly when that count is neither 0 nor all of them (NaN gives 0)
        flat = self._flat_knots
        k = bisect_left(flat, x)
        return k - 1 if 0 < k < len(flat) else None

    def cells(self, xs) -> np.ndarray | None:
        """``cell`` of each entry of xs, or None if any is off the support."""
        xs = np.asarray(xs, dtype=float)
        knots = self.knots
        if not np.all((xs > knots[0]) & (xs <= knots[-1])):
            return None
        return knots.searchsorted(xs) - 1

    def embed_center(self, n: int) -> float:
        """Midpoint of the cell of n, whose ``cell`` is n - lo."""
        k = n - self.lo
        if k < 0 or k >= self.n_cells:
            raise OutOfSupportError(f"{n} not in [{self.lo}, {self.hi}]")
        return float(0.5 * (self.knots[k] + self.knots[k + 1]))

    def decode(self, xs: np.ndarray) -> np.ndarray:
        """Integer values of an array of embedded values."""
        cells = self.cells(xs)
        if cells is None:
            raise OutOfSupportError("embedded values outside the knot range")
        return self.values[cells]
