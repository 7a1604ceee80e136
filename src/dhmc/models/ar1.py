"""Stationary AR(1) Gaussian chain with unit marginal variance.

theta_1 ~ N(0, 1), theta_{t+1} = alpha * theta_t + sqrt(1 - alpha^2) * eta_t,
so the potential is the quadratic form of a tridiagonal precision matrix.
Fully smooth, but the O(1) per-coordinate ``potential_diff`` makes it the
standard benchmark for coordinate-wise kernels as well.
"""

from __future__ import annotations

import numpy as np

from ..core import ContractError, TargetModel

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

    def potential(self, theta):
        # Innovations form: well conditioned and O(d).
        resid = theta[1:] - self.alpha * theta[:-1]
        return float(0.5 * (theta[0] * theta[0] + self._s * np.dot(resid, resid)))

    def grad_smooth(self, theta):
        g = np.empty_like(theta)
        g[0] = self._q_end * theta[0]
        g[-1] = self._q_end * theta[-1]
        g[1:-1] = self._q_int * theta[1:-1]
        g[:-1] -= self._sa * theta[1:]
        g[1:] -= self._sa * theta[:-1]
        return g

    def potential_diff(self, theta, j, value):
        tj = theta.item(j)
        delta = value - tj
        last = self.dim - 1
        left = theta.item(j - 1) if j > 0 else 0.0
        right = theta.item(j + 1) if j < last else 0.0
        qjj = self._q_int if 0 < j < last else self._q_end
        qtheta_j = qjj * tj - self._sa * (left + right)
        return delta * qtheta_j + 0.5 * delta * delta * qjj

    def initial_theta(self, rng):
        # Exact stationary draw.
        theta = np.empty(self.dim)
        theta[0] = rng.standard_normal()
        noise = np.sqrt(1.0 - self.alpha ** 2) * rng.standard_normal(self.dim - 1)
        for t in range(1, self.dim):
            theta[t] = self.alpha * theta[t - 1] + noise[t - 1]
        return theta
