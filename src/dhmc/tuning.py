"""Warmup adaptation: move-fraction statistic, stepsize search, mass estimate.

The statistic driving stepsize adaptation is the fraction of coordinate
updates that moved (one minus the flip fraction).  It plays the role the
acceptance rate plays for Metropolis kernels; values around 0.7-0.9 work
well, default target 0.8.  For kernels without Laplace coordinates the same
machinery consumes the plain acceptance indicator instead.

Every kernel takes its scales from one estimate: ``warmup_variances`` of the
draws of the first half of warmup.  The trajectory kernels turn those
variances into diagonal masses (``mass_from_variances``); ``rwm`` uses their
square roots as its per-coordinate proposal scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ContractError, MassSpec

__all__ = ["MIN_MASS_DRAWS", "TuneState", "adapt_stepsize",
           "mass_from_variances", "warmup_variances"]

# Fewer first-half warmup draws than this leave the masses as they are.
MIN_MASS_DRAWS = 10


@dataclass(frozen=True)
class TuneState:
    """Stepsize search state: the Robbins-Monro iteration counter and the
    log stepsize it steers toward ``target_stat``."""

    log_eps: float
    target_stat: float = 0.8
    iteration: int = 0

    def __post_init__(self):
        if not 0.0 < self.target_stat < 1.0:
            raise ContractError("target_stat must lie strictly in (0, 1)")

    @property
    def eps(self) -> float:
        return math.exp(self.log_eps)


def adapt_stepsize(ts: TuneState, observed_stat: float) -> TuneState:
    """One Robbins-Monro step on log eps with gain t^-0.6.

    Increases eps when the observed move fraction exceeds the target (steps
    too timid) and decreases it otherwise.
    """
    if not 0.0 <= observed_stat <= 1.0:
        raise ContractError("observed_stat must lie in [0, 1]")
    t = ts.iteration + 1
    gain = t ** -0.6
    return replace(ts, iteration=t,
                   log_eps=ts.log_eps + gain * (observed_stat - ts.target_stat))


def warmup_variances(draws):
    """Welford variances of an (n, dim) array of draws, in draw order;
    returns (variances, warnings).  A constant coordinate gets variance 1 and
    a warning instead of failing."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2 or draws.shape[0] < MIN_MASS_DRAWS:
        raise ContractError(
            f"need an (n, dim) array of at least {MIN_MASS_DRAWS} draws")
    mean = draws[0].copy()
    m2 = np.zeros_like(mean)
    for n, theta in enumerate(draws[1:], start=2):
        delta = theta - mean
        mean += delta / n
        m2 += delta * (theta - mean)
    var = m2 / (draws.shape[0] - 1)
    constant = np.flatnonzero(var <= 0.0)
    var[constant] = 1.0
    return var, [f"coordinate {i} constant; mass set to 1" for i in constant]


def mass_from_variances(var, smooth_idx, disc_idx, floor=1e-8) -> MassSpec:
    """Diagonal masses from variances: 1/var for the smooth block, 1/sd for
    the Laplace block, both floored at ``floor``."""
    diag = np.maximum(1.0 / var[smooth_idx], floor)
    m_disc = np.maximum(1.0 / np.sqrt(var[disc_idx]), floor)
    return MassSpec(m_disc=m_disc,
                    diag_smooth=diag if len(smooth_idx) else None)
