"""Change-point ARCH model with horseshoe shrinkage on level jumps.

Returns follow y_t | y_{t-1} ~ N(0, a(t) + b(t) y_{t-1}^2) with (a(t), b(t))
piecewise constant: (a_k, b_k) on the segment tau_{k-1} < t <= tau_k, with
tau_0 = 1 and tau_{K+1} = T.  Levels are parameterised by log a_0, log b_0
(standard normal priors) and log-increments delta_k = log(a_k / a_{k-1})
with Normal(0, (sigma eta_k)^2) priors; eta_k and sigma are half-Cauchy,
sampled on the log scale with their Jacobians.  The change points tau_k are
embedded integers, uniform over 1 < tau_1 < ... < tau_K < T.

``potential_diff`` covers the change points, its ``diff_idx``, at a cost of
O(|Delta tau|): only the likelihood terms of the times that switch between
the two segments next to tau_k change, and it decodes just tau_k and its
two neighbours.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.special import expit

from ..core import ContractError, TargetModel
from ..embedding import EmbeddingMap

__all__ = ["ArchChangePointTarget", "arch_neg_log_likelihood",
           "synth_arch_series", "save_series", "load_series"]

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_HALF_PI = math.log(math.pi / 2.0)


def arch_neg_log_likelihood(y, a_t, b_t) -> float:
    """Minus log likelihood of y_2..y_T given per-time parameters.

    ``a_t`` and ``b_t`` have length T-1, aligned with t = 2..T.
    """
    y = np.asarray(y, dtype=float)
    a_t = np.asarray(a_t, dtype=float)
    b_t = np.asarray(b_t, dtype=float)
    if len(a_t) != len(y) - 1 or len(b_t) != len(y) - 1:
        raise ContractError("a_t and b_t must have length T-1")
    sigma2 = a_t + b_t * y[:-1] ** 2
    if np.any(sigma2 <= 0):
        return float("inf")
    return float(0.5 * np.sum(np.log(sigma2) + _LOG_2PI + y[1:] ** 2 / sigma2))


def _scaled_squares(delta, scale, scale2):
    """(delta / scale)^2; delta^2 / scale^2 where both squares are finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = delta ** 2
        return np.where(np.isfinite(d2) & np.isfinite(scale2), d2 / scale2,
                        (delta / scale) ** 2)


def _half_cauchy_log_terms(l):
    """-log density of log(x) when x is standard half-Cauchy."""
    return _LOG_HALF_PI + np.logaddexp(0.0, 2.0 * l) - l


class ArchChangePointTarget(TargetModel):

    name = "arch_cp"

    def __init__(self, y, k_max: int = 5):
        y = np.asarray(y, dtype=float)
        if y.ndim != 1 or len(y) < 3:
            raise ContractError("y must be a series of length >= 3")
        if not np.all(np.isfinite(y)):
            raise ContractError("y must be finite")
        k_max = int(k_max)
        if k_max < 0 or k_max > len(y) - 2:
            raise ContractError("k_max must lie in [0, T-2]")
        self.y = y
        self.T = len(y)
        self.k_max = k_max
        K = k_max
        self.dim = 5 * K + 4
        self._n_smooth = 4 * K + 4
        self.smooth_idx = np.arange(self._n_smooth, dtype=np.intp)
        self.disc_idx = np.arange(self._n_smooth, self.dim, dtype=np.intp)
        self.tau_map = EmbeddingMap.uniform(2, self.T - 1) if K else None
        self.embeddings = {int(j): self.tau_map for j in self.disc_idx}
        self._ylag2 = y[:-1] ** 2
        self._ysq = y[1:] ** 2
        self._t_grid = np.arange(2, self.T + 1)

    @property
    def diff_idx(self):
        return self.disc_idx

    @property
    def param_names(self):
        K = self.k_max
        names = ["log_a0", "log_b0"]
        names += [f"da{k + 1}" for k in range(K)]
        names += [f"db{k + 1}" for k in range(K)]
        names += [f"log_eta_a{k + 1}" for k in range(K)]
        names += [f"log_eta_b{k + 1}" for k in range(K)]
        names += ["log_sigma_a", "log_sigma_b"]
        names += [f"tau{k + 1}" for k in range(K)]
        return names

    def _split(self, theta):
        K = self.k_max
        la0, lb0 = theta[0], theta[1]
        da = theta[2:2 + K]
        db = theta[2 + K:2 + 2 * K]
        lea = theta[2 + 2 * K:2 + 3 * K]
        leb = theta[2 + 3 * K:2 + 4 * K]
        lsa, lsb = theta[2 + 4 * K], theta[3 + 4 * K]
        taut = theta[self._n_smooth:]
        return la0, lb0, da, db, lea, leb, lsa, lsb, taut

    def _decode_tau(self, taut):
        taus = np.empty(self.k_max, dtype=np.int64)
        for k in range(self.k_max):
            if not self.tau_map.contains(taut[k]):
                return None
            taus[k] = self.tau_map.lookup(taut[k])
        if np.any(np.diff(taus) <= 0):
            return None
        return taus

    def _levels(self, la0, lb0, da, db, taut):
        """Log levels ``(la, lb)`` of the K+1 segments and the 0-based
        segment ``seg`` of each t in 2..T, or None where a change point lies
        off the support."""
        taus = self._decode_tau(taut)
        if taus is None:
            return None
        la = la0 + np.concatenate(([0.0], np.cumsum(da)))
        lb = lb0 + np.concatenate(([0.0], np.cumsum(db)))
        return la, lb, np.searchsorted(taus, self._t_grid, side="left")

    @staticmethod
    def _jump_scales(lsa, lsb, lea, leb):
        """``(scale, scale ** 2)`` of the a and the b jumps, or None where the
        potential is +inf: a scale is infinite or its square rounds to 0."""
        try:
            sa, sb = math.exp(lsa), math.exp(lsb)
        except OverflowError:  # truncates a tail of mass below e^-709
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            scale_a, scale_b = sa * np.exp(lea), sb * np.exp(leb)
            va, vb = scale_a ** 2, scale_b ** 2
            if not ((va > 0.0) & (scale_a < math.inf)
                    & (vb > 0.0) & (scale_b < math.inf)).all():
                return None  # prior tails below e^-360
        return (scale_a, va), (scale_b, vb)

    def potential(self, theta):
        la0, lb0, da, db, lea, leb, lsa, lsb, taut = self._split(theta)
        levels = self._levels(la0, lb0, da, db, taut)
        if levels is None:
            return float("inf")
        la, lb, seg = levels
        with np.errstate(over="ignore"):
            # a level above e^709.78 makes the potential +inf
            sigma2 = np.exp(la)[seg] + np.exp(lb)[seg] * self._ylag2
        if np.any(sigma2 <= 0.0):
            return float("inf")
        pot = 0.5 * np.sum(np.log(sigma2) + _LOG_2PI + self._ysq / sigma2)
        pot += 0.5 * (la0 * la0 + lb0 * lb0) + _LOG_2PI
        if self.k_max:
            scales = self._jump_scales(lsa, lsb, lea, leb)
            if scales is None:
                return float("inf")
            for delta, (scale, scale2) in zip((da, db), scales):
                # an infinite square of a finite scale drops a vanishing term
                with np.errstate(over="ignore", invalid="ignore"):
                    log_terms = np.log(scale) + 0.5 * _LOG_2PI
                    prior = np.sum(log_terms + 0.5 * delta ** 2 / scale2)
                if not math.isfinite(prior):  # a square overflowed
                    prior = np.sum(log_terms + 0.5 * _scaled_squares(
                        delta, scale, scale2))
                pot += prior
            pot += np.sum(_half_cauchy_log_terms(lea))
            pot += np.sum(_half_cauchy_log_terms(leb))
        pot += _half_cauchy_log_terms(lsa) + _half_cauchy_log_terms(lsb)
        return float(pot)

    def potential_diff(self, theta, j, value):
        k = j - self._n_smooth
        if not 0 <= k < self.k_max:
            raise ContractError(f"coordinate {j} is outside diff_idx")
        tau_map = self.tau_map
        if not tau_map.contains(value):
            return float("inf")
        old = tau_map.lookup(theta[j])
        new = tau_map.lookup(value)
        if new == old:
            return 0.0
        left = tau_map.lookup(theta[j - 1]) if k > 0 else 1
        right = tau_map.lookup(theta[j + 1]) if k < self.k_max - 1 else self.T
        if not left < new < right:
            return float("inf")
        # The times t in (lo, hi] switch between the 0-based segments k and
        # k+1 of ``_levels``: into k when the change point moves up, into
        # k+1 when it moves down.  No other likelihood or prior term moves.
        K = self.k_max
        la = theta[0] + theta[2:2 + k].sum()
        lb = theta[1] + theta[2 + K:2 + K + k].sum()
        lo, hi = min(old, new), max(old, new)
        ylag2 = self._ylag2[lo - 1:hi - 1]
        ysq = self._ysq[lo - 1:hi - 1]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            a_k, a_next = np.exp((la, la + theta[2 + k]))
            b_k, b_next = np.exp((lb, lb + theta[2 + K + k]))
            s_k = a_k + b_k * ylag2
            s_next = a_next + b_next * ylag2
            s_old, s_new = (s_next, s_k) if new > old else (s_k, s_next)
            du = float(0.5 * (np.log(s_new / s_old)
                              + ysq / s_new - ysq / s_old).sum())
        # Only a variance that overflows or vanishes makes du inf or NaN.
        # The potential is then +inf on the new side, or on the old side
        # after a smooth drift off the support: either way the diff is +inf.
        return du if math.isfinite(du) else math.inf

    def grad_smooth(self, theta):
        la0, lb0, da, db, lea, leb, lsa, lsb, taut = self._split(theta)
        K = self.k_max
        levels = self._levels(la0, lb0, da, db, taut)
        if levels is None:
            raise ContractError("gradient queried off support")
        la, lb, seg = levels
        with np.errstate(over="ignore"):
            a, b = np.exp(la), np.exp(lb)
            sigma2 = a[seg] + b[seg] * self._ylag2
        if math.isinf(a.max() + b.max()) or np.any(sigma2 <= 0.0):
            # a level above e^709.78, or a vanishing variance, leaves no
            # finite gradient
            raise ContractError("gradient queried off support")
        with np.errstate(over="ignore"):
            # an infinite square only drops a vanishing term
            gt = 0.5 / sigma2 - 0.5 * self._ysq / sigma2 ** 2
        w_a = np.bincount(seg, weights=gt, minlength=K + 1)
        w_b = np.bincount(seg, weights=gt * self._ylag2, minlength=K + 1)
        aw = a * w_a
        bw = b * w_b
        g = np.zeros(self._n_smooth)
        g[0] = np.sum(aw) + la0
        g[1] = np.sum(bw) + lb0
        za = zb = 0.0
        if K:
            scales = self._jump_scales(lsa, lsb, lea, leb)
            if scales is None:
                raise ContractError("gradient queried off support")
            (scale_a, va), (scale_b, vb) = scales
            with np.errstate(over="ignore", invalid="ignore"):
                za, zb = da ** 2 / va, db ** 2 / vb
            if not math.isfinite(za.sum() + zb.sum()):  # a square overflowed
                za = _scaled_squares(da, scale_a, va)
                zb = _scaled_squares(db, scale_b, vb)
            # d/d delta_m: likelihood through all later segments plus prior.
            g[2:2 + K] = np.cumsum(aw[::-1])[::-1][1:] + da / va
            g[2 + K:2 + 2 * K] = np.cumsum(bw[::-1])[::-1][1:] + db / vb
            g[2 + 2 * K:2 + 3 * K] = 2.0 * expit(2.0 * lea) - za
            g[2 + 3 * K:2 + 4 * K] = 2.0 * expit(2.0 * leb) - zb
        g[2 + 4 * K] = K - np.sum(za) + 2.0 * expit(2.0 * lsa) - 1.0
        g[3 + 4 * K] = K - np.sum(zb) + 2.0 * expit(2.0 * lsb) - 1.0
        return g

    def level_paths(self, theta):
        """Per-time (a(t), b(t)) for t = 2..T implied by one draw."""
        la0, lb0, da, db, *_rest, taut = self._split(theta)
        levels = self._levels(la0, lb0, da, db, taut)
        if levels is None:
            raise ContractError("level_paths queried off support")
        la, lb, seg = levels
        return np.exp(la)[seg], np.exp(lb)[seg]

    def initial_theta(self, rng):
        K = self.k_max
        theta = np.zeros(self.dim)
        var0 = max(float(np.var(self.y)), 1e-3)
        theta[0] = math.log(0.8 * var0)
        theta[1] = math.log(0.1)
        theta[2 + 4 * K] = math.log(0.5)
        theta[3 + 4 * K] = math.log(0.5)
        theta[:self._n_smooth] += 0.05 * rng.standard_normal(self._n_smooth)
        if K:
            lo, hi = 2, self.T - 1
            taus = np.linspace(lo, hi, K + 2)[1:-1]
            taus = np.unique(np.round(taus).astype(int))
            while len(taus) < K:
                extras = np.setdiff1d(np.arange(lo, hi + 1), taus)
                taus = np.sort(np.append(taus, extras[0]))
            for k in range(K):
                theta[self._n_smooth + k] = self.tau_map.embed_center(int(taus[k]))
        return theta


def synth_arch_series(rng: np.random.Generator, T: int = 200,
                      change_t: int | None = None, a_low: float = 0.5,
                      jump: float = 10.0, b: float = 0.1):
    """Series with one planted variance change point.

    a(t) jumps from ``a_low`` to ``jump * a_low`` after t = change_t
    (default T // 2).  Returns (y, truth dict).
    """
    if T < 10:
        raise ContractError("T must be >= 10")
    if change_t is None:
        change_t = T // 2
    if not 1 < change_t < T:
        raise ContractError("change_t must lie inside (1, T)")
    a_path = np.full(T, a_low)
    a_path[change_t:] = a_low * jump
    y = np.empty(T)
    y[0] = math.sqrt(a_path[0]) * rng.standard_normal()
    for t in range(1, T):
        sigma2 = a_path[t] + b * y[t - 1] ** 2
        y[t] = math.sqrt(sigma2) * rng.standard_normal()
    return y, {"change_t": change_t, "a_low": a_low, "a_high": a_low * jump,
               "b": b}


def save_series(path, y):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "y"])
        for t, v in enumerate(y, start=1):
            w.writerow([t, repr(float(v))])


def load_series(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["t", "y"]:
        raise ContractError(f"{path}: expected a series CSV with columns t,y")
    if len(rows) < 2:
        raise ContractError(f"{path}: no data rows")
    return np.array([float(row[1]) for row in rows[1:]])
