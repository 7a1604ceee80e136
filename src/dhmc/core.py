"""Phase-space state, mass handling, the kinetic energy and the error types.

The sampler works on a parameter vector theta of length d that is split into
two disjoint index sets: coordinates in ``smooth_idx`` carry Gaussian momenta
and move along gradient dynamics, coordinates in ``disc_idx`` carry Laplace
momenta and move through coordinate-wise jumps.  The kinetic energy is

    K(p) = 0.5 * p_I' M_I^{-1} p_I  +  sum_j |p_j| / m_j

with I the smooth block and j running over the discontinuous block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DhmcError(Exception):
    """Base class for errors raised by this package."""


class ContractError(DhmcError, ValueError):
    """An argument violates a documented precondition (shape, partition...)."""


class ModelError(DhmcError, ArithmeticError):
    """A target model returned an invalid value (NaN potential, NaN gradient)."""


class OutOfSupportError(ContractError):
    """A value off the support: an embedded value outside the knot range of
    an embedding map, or a gradient asked where the potential is ``+inf``."""


class ConfigError(DhmcError, ValueError):
    """A sampler or CLI configuration field is invalid."""


def _as_index_array(idx) -> np.ndarray:
    arr = np.asarray(idx, dtype=np.intp)
    if arr.ndim != 1:
        raise ContractError("index sets must be one-dimensional")
    return arr


@dataclass(frozen=True)
class PhaseState:
    """Position, momentum and the coordinate partition.

    Arrays are copied and frozen at construction; integrator steps return new
    states instead of mutating.  ``smooth_idx`` and ``disc_idx`` must be
    disjoint and together cover ``range(len(theta))``.
    """

    theta: np.ndarray
    p: np.ndarray
    smooth_idx: np.ndarray
    disc_idx: np.ndarray

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        p = np.array(self.p, dtype=float)
        smooth = _as_index_array(self.smooth_idx).copy()
        disc = _as_index_array(self.disc_idx).copy()
        if theta.ndim != 1 or p.shape != theta.shape:
            raise ContractError("theta and p must be 1-d arrays of equal length")
        d = theta.shape[0]
        merged = np.concatenate([smooth, disc])
        if (len(merged) != d or len(np.unique(merged)) != d
                or (d and (merged.min() < 0 or merged.max() >= d))):
            raise ContractError("smooth_idx and disc_idx must partition range(d)")
        if not np.all(np.isfinite(theta)) or not np.all(np.isfinite(p)):
            raise ContractError("theta and p must be finite")
        for name, arr in (("theta", theta), ("p", p), ("smooth_idx", smooth), ("disc_idx", disc)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class MassSpec:
    """Diagonal mass settings for both blocks.

    ``diag_smooth`` holds the diagonal of M_I for the smooth block;
    ``m_disc`` holds the Laplace scales m_j for the discontinuous block,
    aligned with ``disc_idx`` order.
    """

    m_disc: np.ndarray
    diag_smooth: np.ndarray | None = None

    def __post_init__(self):
        m_disc = np.array(self.m_disc, dtype=float)
        if m_disc.ndim != 1 or np.any(m_disc <= 0) or not np.all(np.isfinite(m_disc)):
            raise ContractError("m_disc must be a 1-d array of positive finite masses")
        m_disc.setflags(write=False)
        object.__setattr__(self, "m_disc", m_disc)
        if self.diag_smooth is not None:
            diag = np.array(self.diag_smooth, dtype=float)
            if diag.ndim != 1 or np.any(diag <= 0) or not np.all(np.isfinite(diag)):
                raise ContractError("diag_smooth must be positive and finite")
            diag.setflags(write=False)
            object.__setattr__(self, "diag_smooth", diag)

    @classmethod
    def diagonal(cls, diag_smooth, m_disc) -> "MassSpec":
        return cls(m_disc=np.asarray(m_disc, dtype=float),
                   diag_smooth=np.asarray(diag_smooth, dtype=float))

    @classmethod
    def unit(cls, n_smooth: int, n_disc: int) -> "MassSpec":
        return cls(m_disc=np.ones(n_disc), diag_smooth=np.ones(n_smooth))

    def check_sizes(self, n_smooth: int, n_disc: int):
        if self.m_disc.shape[0] != n_disc:
            raise ContractError(
                f"m_disc has length {self.m_disc.shape[0]}, expected {n_disc}")
        if self.diag_smooth is not None and self.diag_smooth.shape[0] != n_smooth:
            raise ContractError(
                f"diag_smooth has length {self.diag_smooth.shape[0]}, expected {n_smooth}")
        if self.diag_smooth is None and n_smooth > 0:
            raise ContractError("mass for the smooth block is missing")

    def smooth_quad(self, p_smooth: np.ndarray) -> float:
        """Return p' M_I^{-1} p for the smooth block."""
        if p_smooth.shape[0] == 0:
            return 0.0
        return float(np.dot(p_smooth, p_smooth / self.diag_smooth))

    def smooth_velocity(self, p_smooth: np.ndarray) -> np.ndarray:
        """Return M_I^{-1} p, the drift velocity of the smooth block."""
        return p_smooth / self.diag_smooth

    def sample_smooth(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z = rng.standard_normal(n)
        if n == 0:
            return z
        return np.sqrt(self.diag_smooth) * z


_NO_INDICES = np.array([], dtype=np.intp)
_NO_INDICES.setflags(write=False)


class TargetModel:
    """Contract every target distribution implements.

    Subclasses define

    - ``dim``, ``smooth_idx``, ``disc_idx``: the coordinate partition, as
      index arrays; both default to one shared read-only empty array, so a
      model assigns only its non-empty block(s),
    - ``potential(theta) -> float``: minus log density, finite on the support
      and ``+inf`` off it, never NaN,
    - ``grad_smooth(theta) -> array``: gradient of the potential over the
      smooth block, finite wherever the potential is finite.  Wherever the
      potential is ``+inf`` it raises ``OutOfSupportError``, without a
      warning: the split step calls no ``potential`` between its steps and
      learns from that error that a step left the support,
    - optionally ``potential_diff(theta, j, value) -> float``: the change in
      potential when coordinate j moves to ``value``, cheaper than two full
      potential calls and equal to them up to rounding.  It is only called
      for a coordinate j in ``diff_idx``, with the discontinuous coordinates
      of ``theta`` on the support.  The smooth block may lie anywhere,
      because the split step sweeps wherever its half drift lands; off the
      support the result is ``+inf`` or finite, never NaN and never an
      exception.  It must be a pure function of its arguments: it leaves
      ``theta`` unchanged and keeps no state between calls.  The coordinate
      sweep passes ``j`` as an int and ``value`` as a Python float, and
      ``theta`` as the float array it updates; a cheap diff should read
      ``theta.item(j)`` so that its arithmetic stays on Python floats, which
      is faster than numpy scalars and gives the same IEEE results.
    - ``diff_idx``: the coordinates ``potential_diff`` covers, by default all
      (none without a diff); others cost the sweep two ``potential`` calls.

    ``embeddings`` maps a coordinate index to the EmbeddingMap that decodes it
    back to an integer; coordinates absent from the dict are genuinely
    continuous even when they sit in ``disc_idx``.
    """

    dim: int = 0
    name: str = "target"
    smooth_idx: np.ndarray = _NO_INDICES
    disc_idx: np.ndarray = _NO_INDICES
    potential_diff = None
    embeddings: dict = {}

    @property
    def diff_idx(self) -> np.ndarray:
        return np.arange(self.dim if self.potential_diff else 0, dtype=np.intp)

    @property
    def param_names(self) -> list:
        return [f"x{i}" for i in range(self.dim)]

    def potential(self, theta: np.ndarray) -> float:
        raise NotImplementedError

    def grad_smooth(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.name} does not define a smooth gradient")

    def initial_theta(self, rng: np.random.Generator) -> np.ndarray:
        """A point of finite potential used to start chains."""
        return np.zeros(self.dim)


def kinetic_energy(p: np.ndarray, mass: MassSpec, smooth_idx, disc_idx) -> float:
    """Evaluate K(p) for the given partition.

    Gaussian part 0.5 p'M^{-1}p over ``smooth_idx``, Laplace part
    sum |p_j|/m_j over ``disc_idx``.  K is non-negative and convex.
    """
    p = np.asarray(p, dtype=float)
    smooth = _as_index_array(smooth_idx)
    disc = _as_index_array(disc_idx)
    if p.ndim != 1 or len(smooth) + len(disc) != p.shape[0]:
        raise ContractError("partition does not match the momentum length")
    mass.check_sizes(len(smooth), len(disc))
    k = 0.5 * mass.smooth_quad(p[smooth])
    if len(disc):
        k += float(np.sum(np.abs(p[disc]) / mass.m_disc))
    return k


def sample_momentum(rng: np.random.Generator, mass: MassSpec,
                    smooth_idx, disc_idx) -> np.ndarray:
    """Draw a fresh momentum: Gaussian N(0, M_I) on the smooth block and
    independent Laplace(scale m_j) on the discontinuous block.

    The Gaussian block is drawn first, then the Laplace block, so the stream
    of random numbers consumed is a deterministic function of the partition
    sizes.  With this kinetic energy |p_j|/m_j is Exp(1) distributed.
    """
    smooth = _as_index_array(smooth_idx)
    disc = _as_index_array(disc_idx)
    mass.check_sizes(len(smooth), len(disc))
    p = np.zeros(len(smooth) + len(disc))
    if len(smooth):
        p[smooth] = mass.sample_smooth(rng, len(smooth))
    if len(disc):
        p[disc] = rng.laplace(0.0, mass.m_disc)
    return p
