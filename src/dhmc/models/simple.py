"""Small analytic targets: isotropic Gaussians, embedded grid pmfs, banana.

These carry the unit tests and CLI demos; the statistically substantial
targets live in their own modules.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import ContractError, OutOfSupportError, TargetModel
from ..embedding import EmbeddingMap

__all__ = ["GaussianTarget", "GridTarget", "BananaTarget"]


class GaussianTarget(TargetModel):
    """Independent Gaussian coordinates, all smooth.

    potential(theta) = sum_i ((theta_i - mean_i) / sd_i)^2 / 2.
    """

    name = "gaussian"

    def __init__(self, dim: int = 1, mean=0.0, sd=1.0):
        if dim < 1:
            raise ContractError("dim must be >= 1")
        self.dim = int(dim)
        self.mean = np.broadcast_to(np.asarray(mean, dtype=float), (dim,)).copy()
        self.sd = np.broadcast_to(np.asarray(sd, dtype=float), (dim,)).copy()
        if np.any(self.sd <= 0):
            raise ContractError("sd must be positive")
        self._ivar = 1.0 / self.sd ** 2
        self.smooth_idx = np.arange(dim, dtype=np.intp)

    def _quadratic(self, theta):
        """The potential, +inf where the sum overflows.  ``grad_smooth``
        reads it here: a call of ``potential`` would count as a model call."""
        with np.errstate(over="ignore"):
            z = theta - self.mean
            return float(0.5 * np.dot(z * self._ivar, z))

    def potential(self, theta):
        return self._quadratic(theta)

    def grad_smooth(self, theta):
        if self._quadratic(theta) == math.inf:
            raise OutOfSupportError("gradient queried where the potential is +inf")
        return (theta - self.mean) * self._ivar

    def potential_diff(self, theta, j, value):
        # Python floats: the same bits as numpy's scalars, and no overflow
        # warning where a square overflows and the potential is +inf
        mean = self.mean.item(j)
        z0 = theta.item(j) - mean
        z1 = value - mean
        du = 0.5 * self._ivar.item(j) * (z1 * z1 - z0 * z0)
        return du if math.isfinite(du) else math.inf

    def initial_theta(self, rng):
        return self.mean + self.sd * rng.standard_normal(self.dim)


class GridTarget(TargetModel):
    """Product of embedded pmfs or a joint table over an axis-aligned grid.

    ``log_mass[c1, ..., ck]`` is the unnormalised log mass of the cell with
    per-axis indices c_i; the embedded density divides by the cell volume, so
    the stored potential table is -log_mass + sum_i log(width_i).  Cells with
    -inf log mass are off-support walls.  ``axis_maps`` holds the per-axis
    EmbeddingMaps.
    """

    name = "grid"

    def __init__(self, maps, log_mass, name: str | None = None):
        self.axis_maps = list(maps)
        log_mass = np.asarray(log_mass, dtype=float)
        if log_mass.shape != tuple(m.n_cells for m in self.axis_maps):
            raise ContractError("log_mass shape must match the axis cell counts")
        if np.any(np.isnan(log_mass)):
            raise ContractError("log_mass must not contain NaN")
        if not np.any(np.isfinite(log_mass)):
            raise ContractError("at least one cell must have finite mass")
        self.dim = len(self.axis_maps)
        table = -log_mass
        for i, m in enumerate(self.axis_maps):
            logw = np.log(np.diff(m.knots))
            shape = [1] * self.dim
            shape[i] = m.n_cells
            table = table + logw.reshape(shape)
        self._table = table
        self.disc_idx = np.arange(self.dim, dtype=np.intp)
        self.embeddings = {i: m for i, m in enumerate(self.axis_maps)}
        if name:
            self.name = name

    @classmethod
    def from_probs(cls, probs, emap: EmbeddingMap | None = None,
                   name: str | None = None) -> "GridTarget":
        """One-axis grid from a probability vector (uniform knots by default)."""
        probs = np.asarray(probs, dtype=float)
        if emap is None:
            emap = EmbeddingMap.uniform(1, len(probs))
        with np.errstate(divide="ignore"):
            return cls([emap], np.log(probs), name=name)

    def _cells(self, theta):
        cells = tuple(m.cell(x)
                      for m, x in zip(self.axis_maps, theta.tolist()))
        return None if None in cells else cells

    def potential(self, theta):
        cells = self._cells(theta)
        if cells is None:
            return float("inf")
        return float(self._table[cells])

    def potential_diff(self, theta, j, value):
        new = self.axis_maps[j].cell(value)
        if new is None:
            return float("inf")
        cells = self._cells(theta)
        if cells is None:
            raise ContractError("potential_diff called off support")
        moved = cells[:j] + (new,) + cells[j + 1:]
        return float(self._table[moved] - self._table[cells])

    def exact_pmf(self) -> np.ndarray:
        """Normalised cell probabilities; the integral of the embedded density."""
        mass = np.exp(-self._table)
        for i, m in enumerate(self.axis_maps):
            shape = [1] * self.dim
            shape[i] = m.n_cells
            mass = mass * np.diff(m.knots).reshape(shape)
        return mass / mass.sum()

    def initial_theta(self, rng):
        finite = np.argwhere(np.isfinite(self._table))
        cells = finite[len(finite) // 2]
        return np.array([m.embed_center(m.values[c])
                         for m, c in zip(self.axis_maps, cells)])


class BananaTarget(TargetModel):
    """Two-dimensional quantised banana.

    The smooth potential theta_0^2/8 + (theta_1 - theta_0^2/4)^2/2 is rounded
    down to multiples of ``step``, so the log density is piecewise constant
    with curved banana-shaped level sets; both coordinates are discontinuous.
    """

    name = "banana"
    dim = 2

    def __init__(self, step: float = 0.5):
        if step <= 0:
            raise ContractError("step must be positive")
        self.step = float(step)
        self.disc_idx = np.arange(2, dtype=np.intp)

    def potential(self, theta):
        t0, t1 = theta[0], theta[1]
        u = t0 * t0 / 8.0 + 0.5 * (t1 - t0 * t0 / 4.0) ** 2
        return float(self.step * np.floor(u / self.step))

    def initial_theta(self, rng):
        return np.array([0.0, 0.0])
