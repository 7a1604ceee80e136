"""Stationary AR(1) Gaussian chain with unit marginal variance.

theta_1 ~ N(0, 1), theta_{t+1} = alpha * theta_t + sqrt(1 - alpha^2) * eta_t,
so the potential is the quadratic form of a tridiagonal precision matrix.
Fully smooth, but the O(1) per-coordinate ``potential_diff`` makes it the
standard benchmark for coordinate-wise kernels as well.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import ContractError, OutOfSupportError, TargetModel

__all__ = ["Ar1Target"]


class Ar1Target(TargetModel):

    name = "ar1"

    def __init__(self, alpha: float = 0.9, dim: int = 100):
        if not -1.0 < alpha < 1.0:
            raise ContractError("alpha must satisfy |alpha| < 1")
        if dim < 2:
            raise ContractError("dim must be >= 2")
        self.alpha = float(alpha)
        self.dim = int(dim)
        s = 1.0 / (1.0 - alpha * alpha)
        # Precision entries: s at the two ends, s*(1+alpha^2) inside,
        # -s*alpha off the diagonal.
        self._s = s
        self._sa = s * alpha
        self._q_end = s
        self._q_int = s * (1.0 + alpha * alpha)
        self.smooth_idx = np.arange(dim, dtype=np.intp)

    def _quadratic(self, theta):
        """The potential in innovations form, well conditioned and O(d), and
        +inf where it overflows.  ``grad_smooth`` reads it here: a call of
        ``potential`` would count as a model call."""
        with np.errstate(over="ignore"):
            resid = theta[1:] - self.alpha * theta[:-1]
            return float(0.5 * (theta[0] * theta[0]
                                + self._s * np.dot(resid, resid)))

    def potential(self, theta):
        return self._quadratic(theta)

    def grad_smooth(self, theta):
        if self._quadratic(theta) == math.inf:
            raise OutOfSupportError("gradient queried where the potential is +inf")
        g = np.empty_like(theta)
        g[0] = self._q_end * theta[0]
        g[-1] = self._q_end * theta[-1]
        g[1:-1] = self._q_int * theta[1:-1]
        g[:-1] -= self._sa * theta[1:]
        g[1:] -= self._sa * theta[:-1]
        return g

    def potential_diff(self, theta, j, value):
        # The interior case tests j once; each end adds 0.0 for its missing
        # neighbour, as the sum over both neighbours would.
        tj = theta.item(j)
        delta = value - tj
        last = self.dim - 1
        if 0 < j < last:
            qjj = self._q_int
            nbrs = theta.item(j - 1) + theta.item(j + 1)
        else:
            qjj = self._q_end
            nbrs = (theta.item(j - 1) if j else 0.0) + (
                theta.item(j + 1) if j < last else 0.0)
        du = delta * (qjj * tj - self._sa * nbrs) + 0.5 * delta * delta * qjj
        # Only a product that overflows makes du inf or NaN, with theta or
        # the new value far out where the potential is +inf.  du - du is 0
        # exactly when du is finite, a cheaper test than math.isfinite on
        # the sweep's hot path.
        if du - du == 0.0:
            return du
        return math.inf

    def initial_theta(self, rng):
        # Exact stationary draw.
        theta = np.empty(self.dim)
        theta[0] = rng.standard_normal()
        noise = np.sqrt(1.0 - self.alpha ** 2) * rng.standard_normal(self.dim - 1)
        for t in range(1, self.dim):
            theta[t] = self.alpha * theta[t - 1] + noise[t - 1]
        return theta
