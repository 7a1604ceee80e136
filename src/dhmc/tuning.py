"""Warmup adaptation: move-fraction statistic, stepsize search, mass tuning.

The statistic driving stepsize adaptation is the fraction of coordinate
updates that moved (one minus the flip fraction).  It plays the role the
acceptance rate plays for Metropolis kernels; values around 0.7-0.9 work
well, default target 0.8.  For kernels without Laplace coordinates the same
machinery consumes the plain acceptance indicator instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ContractError, MassSpec

__all__ = ["TuneState", "adapt_stepsize", "mass_from_state"]


@dataclass(frozen=True)
class TuneState:
    """Adaptation state carried across warmup iterations.

    Streaming mean/variance accumulators feed the mass estimate; the
    Robbins-Monro iteration counter and log stepsize drive adaptation.
    """

    log_eps: float
    target_stat: float = 0.8
    iteration: int = 0
    count: int = 0
    mean: np.ndarray | None = None
    m2: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.target_stat < 1.0:
            raise ContractError("target_stat must lie strictly in (0, 1)")

    @property
    def eps(self) -> float:
        return math.exp(self.log_eps)

    def observe_draw(self, theta: np.ndarray) -> "TuneState":
        """Fold one draw into the running moment accumulators (Welford)."""
        if self.mean is None:
            mean = np.array(theta, dtype=float)
            m2 = np.zeros_like(mean)
            return replace(self, count=1, mean=mean, m2=m2)
        mean = self.mean.copy()
        m2 = self.m2.copy()
        n = self.count + 1
        delta = theta - mean
        mean += delta / n
        m2 += delta * (theta - mean)
        return replace(self, count=n, mean=mean, m2=m2)

    def variances(self) -> np.ndarray:
        if self.count < 2:
            raise ContractError("need at least 2 observed draws")
        return self.m2 / (self.count - 1)


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


def mass_from_state(ts: TuneState, smooth_idx, disc_idx, floor=1e-8):
    """Diagonal masses from a TuneState's streaming moments: 1/var for the
    smooth block, 1/sd for the Laplace block, floored at 1e-8.

    Returns (MassSpec, warnings); constant coordinates fall back to mass 1
    with a warning entry instead of failing.
    """
    if ts.count < 10:
        raise ContractError("need at least 10 observed draws")
    smooth_idx = np.asarray(smooth_idx, dtype=np.intp)
    disc_idx = np.asarray(disc_idx, dtype=np.intp)
    var = ts.variances()
    if var.shape != (len(smooth_idx) + len(disc_idx),):
        raise ContractError("partition does not match the observed draw length")
    warnings = []
    diag = np.empty(len(smooth_idx))
    for pos, i in enumerate(smooth_idx):
        if var[i] <= 0.0:
            diag[pos] = 1.0
            warnings.append(f"coordinate {int(i)} constant; mass set to 1")
        else:
            diag[pos] = max(1.0 / var[i], floor)
    m_disc = np.empty(len(disc_idx))
    for pos, j in enumerate(disc_idx):
        if var[j] <= 0.0:
            m_disc[pos] = 1.0
            warnings.append(f"coordinate {int(j)} constant; mass set to 1")
        else:
            m_disc[pos] = max(1.0 / math.sqrt(var[j]), floor)
    mass = MassSpec(m_disc=m_disc,
                    diag_smooth=diag if len(smooth_idx) else None)
    return mass, warnings
