"""Posterior of the binomial sample size N with known success probability.

y | q, N ~ Binom(N, q) with the objective prior pi(N) proportional to 1/N,
truncated to N <= n_max and embedded into the real line.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from ..core import ContractError, TargetModel
from ..embedding import EmbeddingMap

__all__ = ["BinomialNTarget"]

_EMPTY = np.array([], dtype=np.intp)


class BinomialNTarget(TargetModel):
    """Embedded 1-D target over N in {max(y, 1) .. n_max}.

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
        log_pmf = (gammaln(n + 1) - gammaln(n - y + 1) - gammaln(y + 1)
                   + y * np.log(q) + (n - y) * np.log1p(-q) - np.log(n))
        self._log_pmf = log_pmf
        self._logw = np.log(np.diff(emap.knots))
        self.dim = 1
        self._disc = np.array([0], dtype=np.intp)
        self.embeddings = {0: emap}

    @property
    def smooth_idx(self):
        return _EMPTY

    @property
    def disc_idx(self):
        return self._disc

    @property
    def param_names(self):
        return ["N"]

    def potential(self, theta):
        x = theta[0]
        if not self.emap.contains(x):
            return float("inf")
        k = self.emap.cell_of(x)
        return float(self._logw[k] - self._log_pmf[k])

    def potential_diff(self, theta, j, value):
        if not self.emap.contains(value):
            return float("inf")
        k0 = self.emap.cell_of(theta.item(0))
        k1 = self.emap.cell_of(value)
        if k0 == k1:
            return 0.0
        return float((self._logw[k1] - self._log_pmf[k1])
                     - (self._logw[k0] - self._log_pmf[k0]))

    def initial_theta(self, rng):
        k = int(np.argmax(self._log_pmf))
        return np.array([self.emap.embed_center(self.emap.values[k])])
