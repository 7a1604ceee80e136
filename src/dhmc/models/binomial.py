"""Posterior of the binomial sample size N with known success probability.

y | q, N ~ Binom(N, q) with the objective prior pi(N) proportional to 1/N,
truncated to N <= n_max and embedded into the real line.  The posterior is
a one-axis ``GridTarget``: its potential and ``potential_diff`` are the
embedded pmf's.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import ContractError
from ..embedding import EmbeddingMap
from .simple import GridTarget

__all__ = ["BinomialNTarget"]


class BinomialNTarget(GridTarget):
    """Embedded 1-D grid over N in {max(y, 1) .. n_max}, started at the mode.

    ``kind`` picks the knots: "uniform" (unit cells) or "log"
    (multiplicative cells).
    """

    name = "binomial_n"

    def __init__(self, y: int, q: float, n_max: int = 50, kind: str = "uniform"):
        y = int(y)
        if y < 0:
            raise ContractError("y must be a nonnegative integer")
        if not 0.0 < q < 1.0:
            raise ContractError("q must lie strictly between 0 and 1")
        lo = max(y, 1)
        if n_max < lo:
            raise ContractError(f"n_max={n_max} leaves an empty support (y={y})")
        self.y = y
        self.q = float(q)
        self.n_max = int(n_max)
        if kind == "uniform":
            emap = EmbeddingMap.uniform(lo, n_max)
        elif kind == "log":
            emap = EmbeddingMap.logarithmic(lo, n_max)
        else:
            raise ContractError(f"unknown embedding kind {kind!r}")
        self.emap = emap
        n = np.arange(lo, n_max + 1, dtype=float)
        lgamma = math.lgamma
        log_choose = np.array([lgamma(k + 1) - lgamma(k - y + 1) - lgamma(y + 1)
                               for k in n.tolist()])
        log_pmf = (log_choose + y * np.log(q) + (n - y) * np.log1p(-q)
                   - np.log(n))
        self._log_pmf = log_pmf
        super().__init__([emap], log_pmf)

    @property
    def param_names(self):
        return ["N"]

    def initial_theta(self, rng):
        k = int(np.argmax(self._log_pmf))
        return np.array([self.emap.embed_center(self.emap.values[k])])
