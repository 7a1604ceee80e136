"""Shared test targets and numeric helpers."""

import numpy as np

from dhmc import (EmbeddingMap, OutOfSupportError, PhaseState, TargetModel,
                  kinetic_energy, sample_momentum)
from dhmc.integrators import _sweep_inplace, _sweep_tables
from dhmc.models import build_model
from dhmc.samplers import _draw_eps, _draw_path_len

_EMPTY = np.array([], dtype=np.intp)


class FlatTarget(TargetModel):
    """All-discontinuous target with U identically zero."""

    name = "flat"

    def __init__(self, dim=1, with_diff=True):
        self.dim = dim
        self.disc_idx = np.arange(dim, dtype=np.intp)
        if with_diff:
            self.potential_diff = lambda theta, j, value: 0.0

    def potential(self, theta):
        return 0.0


class LinearSlope(TargetModel):
    """1-D all-discontinuous target U = slope * theta (potential only)."""

    name = "linear_slope"
    dim = 1

    def __init__(self, slope=-1.0):
        self.slope = slope
        self.disc_idx = np.array([0], dtype=np.intp)

    def potential(self, theta):
        return float(self.slope * theta[0])


class StepBarrier(TargetModel):
    """1-D all-discontinuous target: U = height for theta >= edge, else 0."""

    name = "step_barrier"
    dim = 1

    def __init__(self, edge=1.0, height=1.0):
        self.edge = edge
        self.height = height
        self.disc_idx = np.array([0], dtype=np.intp)

    def potential(self, theta):
        return float(self.height) if theta[0] >= self.edge else 0.0


class SmoothStep(TargetModel):
    """Declared all-smooth quadratic with a hidden jump.

    U = theta^2/2 + height * 1{theta > edge}; the reported gradient is the
    a.e. derivative theta, which never sees the jump.  This is the target
    family where a gradient-only integrator keeps an O(1) energy error.
    """

    name = "smooth_step"
    dim = 1

    def __init__(self, edge=1.0, height=1.0):
        self.edge = edge
        self.height = height
        self.smooth_idx = np.array([0], dtype=np.intp)

    def potential(self, theta):
        t = theta[0]
        u = 0.5 * t * t
        if t > self.edge:
            u += self.height
        return float(u)

    def grad_smooth(self, theta):
        return np.array([theta[0]])


class WalledGaussian(TargetModel):
    """1-D smooth quadratic with hard walls at |theta| > bound, where the
    gradient raises ``OutOfSupportError`` as the contract asks."""

    name = "walled_gaussian"
    dim = 1

    def __init__(self, bound=2.0):
        self.bound = bound
        self.smooth_idx = np.array([0], dtype=np.intp)

    def potential(self, theta):
        if abs(theta[0]) > self.bound:
            return float("inf")
        return float(0.5 * theta[0] ** 2)

    def grad_smooth(self, theta):
        if abs(theta[0]) > self.bound:
            raise OutOfSupportError("gradient queried off support")
        return np.array([theta[0]])


class CoupledMix(TargetModel):
    """2-D target coupling a smooth coordinate to an embedded 3-state one.

    U = 0.5 * theta_0^2 * (1 + gamma * n) - log pi_n with n in {1, 2, 3}
    embedded over unit cells.  With gamma > 0 the smooth conditional
    stiffness depends on the cell, so the two blocks genuinely interact.
    """

    name = "coupled_mix"
    dim = 2

    def __init__(self, probs=(0.2, 0.5, 0.3), gamma=0.5):
        self.probs = np.asarray(probs, dtype=float)
        self.gamma = gamma
        self.emap = EmbeddingMap.uniform(1, len(self.probs))
        self.embeddings = {1: self.emap}
        self._log_pmf = np.log(self.probs)
        self.smooth_idx = np.array([0], dtype=np.intp)
        self.disc_idx = np.array([1], dtype=np.intp)

    @property
    def diff_idx(self):
        return self.disc_idx

    def _stiff(self, n):
        return 1.0 + self.gamma * n

    def potential(self, theta):
        k = self.emap.cell(theta[1])
        if k is None:
            return float("inf")
        n = self.emap.values[k]
        return float(0.5 * theta[0] ** 2 * self._stiff(n) - self._log_pmf[k])

    def grad_smooth(self, theta):
        n = self.emap.values[self.emap.cell(theta[1])]
        return np.array([theta[0] * self._stiff(n)])

    def potential_diff(self, theta, j, value):
        k1 = self.emap.cell(value)
        if k1 is None:
            return float("inf")
        k0 = self.emap.cell(theta[1])
        if k0 == k1:
            return 0.0
        dn = self.emap.values[k1] - self.emap.values[k0]
        return float(0.5 * theta[0] ** 2 * self.gamma * dn
                     - self._log_pmf[k1] + self._log_pmf[k0])

    def cell_weights(self):
        """Exact marginal pmf of the embedded coordinate."""
        w = self.probs / np.sqrt(1.0 + self.gamma * self.emap.values)
        return w / w.sum()

    def initial_theta(self, rng):
        return np.array([0.0, self.emap.embed_center(2)])


def reference_dhmc_move(model, theta, rng, eps_range, path_range, mass,
                        u_current, ends=None):
    """A ``dhmc`` transition of a model with a smooth block, as a loop that
    calls ``potential`` after every split step and diverges at the first step
    that ends where it is +inf.

    It draws from ``rng`` in ``_dhmc_move``'s order and sweeps with
    ``_sweep_inplace``.  Returns (theta, trace row, potential, steps run) and
    appends the end point of every step run to ``ends``.
    """
    smooth, disc = model.smooth_idx, model.disc_idx
    eps = _draw_eps(rng, eps_range)
    L = _draw_path_len(rng, *path_range)
    p = sample_momentum(rng, mass, smooth, disc)
    # a writable copy, as run_chain's: permutation rejects a read-only empty
    # array
    order = rng.permutation(np.array(disc))
    tables = _sweep_tables(model, mass, disc, len(theta))
    prop = theta.copy()
    half = 0.5 * eps
    flips = 0
    updates = L * len(disc)
    k0 = kinetic_energy(p, mass, smooth, disc)
    g = model.grad_smooth(prop)
    evals = 1
    for step in range(1, L + 1):
        p[smooth] -= half * g
        if len(order):
            prop[smooth] += half * mass.smooth_velocity(p[smooth])
            f, e = _sweep_inplace(model, prop, p, order, eps, tables)
            flips += f
            evals += e
            prop[smooth] += half * mass.smooth_velocity(p[smooth])
        else:
            prop[smooth] += eps * mass.smooth_velocity(p[smooth])
        u_end = model.potential(prop)
        evals += 1
        if ends is not None:
            ends.append(prop.copy())
        if u_end == np.inf:
            row = (False, np.inf, flips, updates, evals, eps, L, True)
            return theta, row, u_current, step
        g = model.grad_smooth(prop)
        evals += 1
        p[smooth] -= half * g
    k1 = kinetic_energy(p, mass, smooth, disc)
    delta_h = float((u_end + k1) - (u_current + k0))
    accepted = bool(np.log(rng.uniform()) < -delta_h)
    row = (accepted, delta_h, flips, updates, evals, eps, L, False)
    if accepted:
        return prop, row, u_end, L
    return theta, row, u_current, L


def hamiltonian(model, state, mass):
    """H at a phase-space point: the potential plus the kinetic energy."""
    return model.potential(state.theta) + kinetic_energy(
        state.p, mass, state.smooth_idx, state.disc_idx)


def all_disc_state(theta, p):
    theta = np.asarray(theta, dtype=float)
    return PhaseState(theta, np.asarray(p, dtype=float), _EMPTY,
                      np.arange(len(theta), dtype=np.intp))


def all_smooth_state(theta, p):
    theta = np.asarray(theta, dtype=float)
    return PhaseState(theta, np.asarray(p, dtype=float),
                      np.arange(len(theta), dtype=np.intp), _EMPTY)


def small_jolly_seber():
    """A four-occasion capture-recapture posterior (11 coordinates)."""
    return build_model("jolly_seber", {"u1": 60, "p": [0.5] * 4,
                                       "phi": [0.8] * 3, "n_max": 400},
                       synth_seed=3)


def small_arch_cp():
    """A change-point model on 40 returns with two change points."""
    return build_model("arch_cp", {"T": 40, "k_max": 2}, synth_seed=3)


def fd_grad(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(len(x)):
        hi = x.copy()
        lo = x.copy()
        hi[i] += h
        lo[i] -= h
        g[i] = (f(hi) - f(lo)) / (2.0 * h)
    return g


def fd_jacobian(f, x, h=1e-6):
    """Central finite-difference Jacobian of a vector map."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(len(x)):
        hi = x.copy()
        lo = x.copy()
        hi[i] += h
        lo[i] -= h
        cols.append((np.asarray(f(hi)) - np.asarray(f(lo))) / (2.0 * h))
    return np.column_stack(cols)


def batch_se(x, batches=20):
    """Batch-means standard error of the mean of a correlated sequence."""
    x = np.asarray(x, dtype=float)
    b = len(x) // batches
    means = x[:batches * b].reshape(batches, b).mean(axis=1)
    return means.std(ddof=1) / np.sqrt(batches)
