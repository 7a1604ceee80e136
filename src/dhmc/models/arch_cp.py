"""Change-point ARCH model with horseshoe shrinkage on level jumps.

Returns follow y_t | y_{t-1} ~ N(0, a(t) + b(t) y_{t-1}^2) with (a(t), b(t))
piecewise constant: (a_k, b_k) on the segment tau_{k-1} < t <= tau_k, with
tau_0 = 1 and tau_{K+1} = T.  Levels are parameterised by log a_0, log b_0
(standard normal priors) and log-increments delta_k = log(a_k / a_{k-1})
with Normal(0, (sigma eta_k)^2) priors; eta_k and sigma are half-Cauchy,
sampled on the log scale with their Jacobians.  The change points tau_k are
embedded integers, uniform over 1 < tau_1 < ... < tau_K < T, that share one
map; ``potential`` and ``grad_smooth`` decode them with one
``EmbeddingMap.cell`` call each.

``potential_diff`` covers the change points, its ``diff_idx``, at a cost of
O(|Delta tau|): only the likelihood terms of the times that switch between
the two segments next to tau_k change, and it decodes just tau_k and its
two neighbours, one ``EmbeddingMap.cell`` call each.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from ..core import ContractError, OutOfSupportError, TargetModel
from ..embedding import EmbeddingMap
from .special import expit

__all__ = ["ArchChangePointTarget", "arch_neg_log_likelihood",
           "synth_arch_series", "save_series", "load_series"]

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_HALF_PI = math.log(math.pi / 2.0)
_TINY = np.finfo(float).tiny  # the least normal float
_HUGE = np.finfo(float).max


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


def _squares_above(x, floor):
    """``x ** 2``, or None where the potential is +inf: an entry of ``x`` is
    infinite or NaN, or its square is below ``floor``, at least the least
    normal float, where a term over the square would overflow.  The one
    support rule for the segment variances and the jump scales; callers run
    it under ``np.errstate(over="ignore", invalid="ignore")``."""
    x2 = x ** 2
    return x2 if ((x2 >= floor) & (x < math.inf)).all() else None


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
        self.tau_map = EmbeddingMap.uniform(2, self.T - 1)
        self.embeddings = {int(j): self.tau_map for j in self.disc_idx}
        self._ylag2 = y[:-1] ** 2
        self._ysq = y[1:] ** 2
        # Below this squared variance the gradient's y_t^2 / sigma_t^4
        # terms, weighted by y_{t-1}^2 and summed over up to T - 1 times,
        # could overflow: the support ends there (``_squares_above``).
        self._var2_floor = max(_TINY, 4.0 * len(self._ysq) * self._ysq.max()
                               * max(1.0, self._ylag2.max()) / _HUGE)
        self._t_index = np.arange(self.T - 1)

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

    def _decode_tau(self, taut):
        """Cells of tau_1 < ... < tau_K (cell c holds tau = c + 2), or None
        where a change point lies off the support or out of order."""
        cell = self.tau_map.cell
        cells = [cell(x) for x in taut.tolist()]
        if None in cells or any(c >= d for c, d in zip(cells, cells[1:])):
            return None
        return cells

    # The smooth block is log_a0, log_b0, the K jumps da, then db, the K
    # log_eta_a, then log_eta_b, log_sigma_a and log_sigma_b.  The helpers
    # below hold each a/b pair as the two rows of one array.

    def _levels(self, theta):
        """Log levels of the K+1 segments, of a in row 0 and of b in row 1,
        and the 0-based segment ``seg`` of each t in 2..T, or None where a
        change point lies off the support."""
        cells = self._decode_tau(theta[self._n_smooth:])
        if cells is None:
            return None
        K = self.k_max
        levels = np.zeros((2, K + 1))
        levels[:, 1:] = theta[2:2 + 2 * K].reshape(2, K).cumsum(axis=1)
        levels += theta[:2, None]
        # t = i + 2 lies after tau_k = c + 2 exactly when i > c
        return levels, np.array(cells).searchsorted(self._t_index)

    def _jump_scales(self, theta):
        """``(scale, scale ** 2)`` of the a jumps (row 0) and of the b jumps
        (row 1), or None where the potential is +inf (``_squares_above`` the
        least normal float)."""
        K = self.k_max
        try:
            sigma = [[math.exp(theta.item(2 + 4 * K))],
                     [math.exp(theta.item(3 + 4 * K))]]
        except OverflowError:  # truncates a tail of mass below e^-709
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            scale = sigma * np.exp(theta[2 + 2 * K:2 + 4 * K].reshape(2, K))
            # a scale below e^-354 is a prior tail
            scale2 = _squares_above(scale, _TINY)
        return None if scale2 is None else (scale, scale2)

    def _variances(self, levels, seg):
        """``(ab, sigma2, sigma2 ** 2)``: the levels a and b (rows of ``ab``)
        and the variance of each t in 2..T with its square, or None where the
        potential is +inf (``_squares_above`` the variance floor): a level or
        a variance overflows, or a variance is below the floor's square
        root."""
        with np.errstate(over="ignore", invalid="ignore"):
            ab = np.exp(levels)
            sigma2 = ab[0][seg] + ab[1][seg] * self._ylag2
            var2 = _squares_above(sigma2, self._var2_floor)
        return None if var2 is None else (ab, sigma2, var2)

    def potential(self, theta):
        levels = self._levels(theta)
        if levels is None:
            return float("inf")
        var = self._variances(*levels)
        if var is None:
            return float("inf")
        sigma2 = var[1]
        pot = 0.5 * (np.log(sigma2) + _LOG_2PI + self._ysq / sigma2).sum()
        la0, lb0 = theta[0], theta[1]
        pot += 0.5 * (la0 * la0 + lb0 * lb0) + _LOG_2PI
        K = self.k_max
        # the half-Cauchy terms of log_eta_a, log_eta_b, log_sigma_a, log_sigma_b
        half_cauchy = _half_cauchy_log_terms(theta[2 + 2 * K:4 + 4 * K])
        if K:
            scales = self._jump_scales(theta)
            if scales is None:
                return float("inf")
            scale, scale2 = scales
            delta = theta[2:2 + 2 * K].reshape(2, K)
            # an infinite square of a finite scale drops a vanishing term
            with np.errstate(over="ignore", invalid="ignore"):
                log_terms = np.log(scale) + 0.5 * _LOG_2PI
                terms = log_terms + 0.5 * delta ** 2 / scale2
                for row in (0, 1):  # the a jumps, then the b jumps
                    prior = terms[row].sum()
                    if not math.isfinite(prior):  # a square overflowed
                        prior = (log_terms[row] + 0.5 * _scaled_squares(
                            delta[row], scale[row], scale2[row])).sum()
                    pot += prior
            pot += half_cauchy[:K].sum()
            pot += half_cauchy[K:2 * K].sum()
        pot += half_cauchy[2 * K] + half_cauchy[2 * K + 1]
        return float(pot)

    def potential_diff(self, theta, j, value):
        k = j - self._n_smooth
        if not 0 <= k < self.k_max:
            raise ContractError(f"coordinate {j} is outside diff_idx")
        cell = self.tau_map.cell  # cell c holds tau = c + 2
        new = cell(value)
        if new is None:
            return math.inf
        old = cell(theta.item(j))
        if new == old:
            return 0.0
        K = self.k_max
        left = cell(theta.item(j - 1)) if k > 0 else -1  # tau_0 = 1
        right = cell(theta.item(j + 1)) if k < K - 1 else self.T - 2
        if not left < new < right:
            return math.inf
        # Index i of the per-time arrays holds t = i + 2, so the times of the
        # cells in (lo, hi] switch between the 0-based segments k and k+1 of
        # ``_levels``: into k when the change point moves up, into k+1 when
        # it moves down.  No other likelihood or prior term moves.
        la = theta[0] + theta[2:2 + k].sum()
        lb = theta[1] + theta[2 + K:2 + K + k].sum()
        lo, hi = min(old, new), max(old, new)
        ylag2 = self._ylag2[lo + 1:hi + 1]
        ysq = self._ysq[lo + 1:hi + 1]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            a_k, a_next = np.exp((la, la + theta[2 + k]))
            b_k, b_next = np.exp((lb, lb + theta[2 + K + k]))
            s_k = a_k + b_k * ylag2
            s_next = a_next + b_next * ylag2
            up = new > old
            s_old, s_new = (s_next, s_k) if up else (s_k, s_next)
            du = float(0.5 * (np.log(s_new / s_old)
                              + ysq / s_new - ysq / s_old).sum())
            # the potential is +inf where a new variance is below the floor
            # (``_variances``), which needs a new level a below it
            floor = self._var2_floor
            tiny = ((a_k if up else a_next) ** 2 < floor
                    and _squares_above(s_new, floor) is None)
        # Only a variance that overflows or vanishes makes du inf or NaN.
        # The potential is then +inf on the new side, or on the old side
        # after a smooth drift off the support: either way the diff is +inf.
        return du if math.isfinite(du) and not tiny else math.inf

    def grad_smooth(self, theta):
        K = self.k_max
        # every support check comes before arithmetic that could warn
        levels = self._levels(theta)
        var = None if levels is None else self._variances(*levels)
        scales = self._jump_scales(theta) if K else ()
        if var is None or scales is None:
            raise OutOfSupportError("gradient queried off support")
        seg = levels[1]
        ab, sigma2, var2 = var
        # an infinite square only drops a vanishing term
        gt = 0.5 / sigma2 - 0.5 * self._ysq / var2
        w = np.array((np.bincount(seg, weights=gt, minlength=K + 1),
                      np.bincount(seg, weights=gt * self._ylag2,
                                  minlength=K + 1)))
        abw = ab * w
        g = np.zeros(self._n_smooth)
        g[0] = abw[0].sum() + theta[0]
        g[1] = abw[1].sum() + theta[1]
        # 1 + the slopes of the half-Cauchy terms of log_eta_a, log_eta_b,
        # log_sigma_a and log_sigma_b
        slopes = [2.0 * expit(2.0 * x)
                  for x in theta[2 + 2 * K:4 + 4 * K].tolist()]
        za_sum = zb_sum = 0.0
        if K:
            scale, scale2 = scales
            delta = theta[2:2 + 2 * K].reshape(2, K)
            with np.errstate(over="ignore", invalid="ignore"):
                z = delta ** 2 / scale2
            za_sum, zb_sum = z[0].sum(), z[1].sum()
            if not math.isfinite(za_sum + zb_sum):  # a square overflowed
                z = _scaled_squares(delta, scale, scale2)
                za_sum, zb_sum = z[0].sum(), z[1].sum()
            # d/d delta_m: likelihood through all later segments plus prior.
            later = abw[:, ::-1].cumsum(axis=1)[:, ::-1][:, 1:]
            g[2:2 + 2 * K] = (later + delta / scale2).ravel()
            g[2 + 2 * K:2 + 4 * K] = slopes[:2 * K] - z.ravel()
        g[2 + 4 * K] = K - za_sum + slopes[2 * K] - 1.0
        g[3 + 4 * K] = K - zb_sum + slopes[2 * K + 1] - 1.0
        return g

    def level_paths(self, theta):
        """Per-time (a(t), b(t)) for t = 2..T implied by one draw."""
        levels = self._levels(theta)
        if levels is None:
            raise ContractError("level_paths queried off support")
        levels, seg = levels
        a, b = np.exp(levels)
        return a[seg], b[seg]

    def initial_theta(self, rng):
        K = self.k_max
        theta = np.zeros(self.dim)
        var0 = max(float(np.var(self.y)), 1e-3)
        theta[0] = math.log(0.8 * var0)
        theta[1] = math.log(0.1)
        theta[2 + 4 * K] = math.log(0.5)
        theta[3 + 4 * K] = math.log(0.5)
        theta[:self._n_smooth] += 0.05 * rng.standard_normal(self._n_smooth)
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
