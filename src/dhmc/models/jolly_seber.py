"""Open-population Jolly-Seber capture-recapture posterior.

Parameters over T capture occasions: capture probabilities p_1..p_T and
survival probabilities phi_1..phi_{T-1} (both log-odds transformed, uniform
priors), and unmarked population sizes U_1..U_T (embedded integers with
logarithmic knots by default).  The likelihood splits into a first-capture
binomial part and a recapture part driven by the backward recursion

    chi_i = 1 - phi_i * (p_{i+1} + (1 - p_{i+1}) * (1 - chi_{i+1})),

chi_i being the probability that an animal released at occasion i is never
seen again.  The prior on the U chain is the floored Normal
U_{i+1} | U_i ~ floor(N(U_i - u_i, sigma_b^2 + phi_i(1 - phi_i))), evaluated
as the exact Normal interval mass on [n, n+1), plus pi(U_1) ~ 1/U_1.

Each U_i has its own map, so it is decoded by one ``EmbeddingMap.cell``
call.  ``potential_diff`` covers the embedded U coordinates, its
``diff_idx``, in O(1): it decodes only the moved count and its two
neighbours in the chain, the only other counts its terms read, and runs on
Python floats.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ..core import ContractError, OutOfSupportError, TargetModel
from ..embedding import EmbeddingMap
from .special import expit

__all__ = ["JollySeberStats", "JollySeberTarget", "survival_chi",
           "simulate_capture_recapture", "population_draws",
           "save_stats", "load_stats"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class JollySeberStats:
    """Sufficient statistics of a capture-recapture experiment.

    Arrays are indexed by occasion 0..T-1: ``u`` unmarked captures, ``m``
    marked recaptures (m[0] = 0), ``R`` animals released after each occasion,
    ``r`` how many of those were seen again later (r[T-1] = 0 by convention),
    ``z`` animals seen before but not at the occasion and seen after
    (z[0] = z[T-1] = 0).
    """

    u: np.ndarray
    m: np.ndarray
    R: np.ndarray
    r: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in ("u", "m", "R", "r", "z"):
            arr = np.array(getattr(self, name), dtype=np.int64)
            if arr.ndim != 1 or np.any(arr < 0):
                raise ContractError(f"{name} must be nonnegative integers")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        T = len(self.u)
        if T < 2:
            raise ContractError("need at least two capture occasions")
        for name in ("m", "R", "r", "z"):
            if len(getattr(self, name)) != T:
                raise ContractError("statistics arrays must share one length")
        if np.any(self.r > self.R):
            raise ContractError("r_i cannot exceed R_i")

    @property
    def T(self) -> int:
        return len(self.u)


def survival_chi(phi, p):
    """Backward recursion for the never-seen-again probabilities.

    ``phi`` has length T-1 and ``p`` length T; the returned array has length
    T with the sentinel chi[T-1] = 1 appended for convenient indexing.
    """
    phi = np.asarray(phi, dtype=float)
    p = np.asarray(p, dtype=float)
    T = len(p)
    if len(phi) != T - 1:
        raise ContractError("phi must have length T-1")
    phi, p = phi.tolist(), p.tolist()
    chi = [1.0] * T
    for i in range(T - 2, -1, -1):
        chi[i] = 1.0 - phi[i] * (p[i + 1] + (1.0 - p[i + 1]) * (1.0 - chi[i + 1]))
    return np.array(chi)


def _chi_divisor(chi, c):
    """chi_i of the never-seen-again terms c_i log chi_i, with 1 where c_i = 0
    and chi_i rounds to 0 (the term adds nothing), or None where some c_i > 0
    meets chi_i = 0 (the potential is +inf)."""
    if 0.0 not in chi.tolist():
        return chi
    if np.any(c[chi == 0.0]):
        return None
    return np.where(chi == 0.0, 1.0, chi)


def _link_mass(n, mu, sd):
    """The ends z0, z1 in standard units of the U-chain link [n, n+1) and its
    floored-Normal mass P(n <= X < n+1) for X ~ N(mu, sd^2), stable in both
    tails: the difference of the two cdfs is taken in the nearer tail.  The
    standard Normal cdf at x is 0.5 erfc(-x / sqrt(2))."""
    z0 = (n - mu) / sd
    z1 = (n + 1.0 - mu) / sd
    erfc = math.erfc
    if z0 + z1 > 0.0:
        return z0, z1, 0.5 * erfc(z0 * _SQRT_HALF) - 0.5 * erfc(z1 * _SQRT_HALF)
    return z0, z1, 0.5 * erfc(-z1 * _SQRT_HALF) - 0.5 * erfc(-z0 * _SQRT_HALF)


def _interval_normal_logmass(n, mu, sd):
    """log P(n <= X < n+1) for X ~ N(mu, sd^2), for ``potential_diff``."""
    mass = _link_mass(n, mu, sd)[2]
    return -math.inf if mass <= 0.0 else math.log(mass)


def _softplus(x: float) -> float:
    """log(1 + e^x) without overflow; -log(1 - expit(x)) for a log-odds x."""
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _logistic_var(x: float) -> float:
    """expit(x) * (1 - expit(x)) without overflow."""
    e = math.exp(-abs(x))
    return e / ((1.0 + e) * (1.0 + e))


class JollySeberTarget(TargetModel):

    name = "jolly_seber"

    def __init__(self, stats: JollySeberStats, sigma_b: float = 500.0,
                 n_max: int = 5000, kind: str = "log"):
        if sigma_b <= 0:
            raise ContractError("sigma_b must be positive")
        self.stats = stats
        self.sigma_b = float(sigma_b)
        self.n_max = int(n_max)
        T = stats.T
        self.T = T
        self.dim = 3 * T - 1
        self.smooth_idx = np.arange(2 * T - 1, dtype=np.intp)
        self.disc_idx = np.arange(2 * T - 1, 3 * T - 1, dtype=np.intp)
        self.emaps = []
        for i in range(T):
            lo = max(int(stats.u[i]), 1 if i == 0 else 0)
            if self.n_max < lo:
                raise ContractError(f"n_max={n_max} below u_{i + 1}={lo}")
            if kind == "log":
                emap = EmbeddingMap.logarithmic(lo, self.n_max)
            elif kind == "uniform":
                emap = EmbeddingMap.uniform(lo, self.n_max)
            else:
                raise ContractError(f"unknown embedding kind {kind!r}")
            self.emaps.append(emap)
        self.embeddings = {int(j): m for j, m in zip(self.disc_idx, self.emaps)}
        # per-occasion ints: the data, and U_{i+1} is _u_lo[i] plus its cell
        self._u_obs = stats.u.tolist()
        self._z_obs = stats.z.tolist()
        self._m_obs = stats.m.tolist()
        self._u_lo = [emap.lo for emap in self.emaps]

    @property
    def diff_idx(self):
        return self.disc_idx

    @property
    def param_names(self):
        T = self.T
        return ([f"p{i + 1}" for i in range(T)]
                + [f"phi{i + 1}" for i in range(T - 1)]
                + [f"U{i + 1}" for i in range(T)])

    def _split(self, theta):
        T = self.T
        return theta[:T], theta[T:2 * T - 1], theta[2 * T - 1:]

    def _decode_u(self, ut):
        """Cells and counts of U, or (None, None) off the support."""
        cells = [emap.cell(x) for emap, x in zip(self.emaps, ut.tolist())]
        if None in cells:
            return None, None
        return cells, np.add(self._u_lo, cells, dtype=float)

    def _links(self, U, phi):
        """The U-chain links U_{i+1} | U_i ~ N(U_i - u_i, s_i^2) with
        s_i^2 = sigma_b^2 + phi_i (1 - phi_i), on the Python floats ``U`` and
        ``phi``: the list of s_i and the list of ``_link_mass`` triples."""
        var_b = self.sigma_b ** 2
        s = [math.sqrt(var_b + f * (1.0 - f)) for f in phi]
        return s, [_link_mass(n, prev - u, si)
                   for n, prev, u, si in zip(U[1:], U, self._u_obs, s)]

    def potential(self, theta):
        lp, lphi, ut = self._split(theta)
        cells, U = self._decode_u(ut)
        if cells is None:
            return float("inf")
        st = self.stats
        p = [expit(x) for x in lp.tolist()]
        phi = [expit(x) for x in lphi.tolist()]
        log_p = -np.logaddexp(0.0, -lp)
        log_1mp = -np.logaddexp(0.0, lp)
        log_phi = -np.logaddexp(0.0, -lphi)

        # First captures.
        Ul = U.tolist()
        lgamma = math.lgamma
        log_choose = np.array([lgamma(n + 1.0) - lgamma(n - u + 1.0)
                               for n, u in zip(Ul, self._u_obs)])
        pot = -float(np.sum(log_choose + st.u * log_p + (U - st.u) * log_1mp))
        # Recaptures.
        c = st.R[:-1] - st.r[:-1]
        chi = _chi_divisor(survival_chi(phi, p)[:-1], c)
        if chi is None:
            return float("inf")
        pot -= float(np.sum(c * np.log(chi)
                            + st.z[1:] * (log_phi + log_1mp[1:])
                            + st.m[1:] * (log_phi + log_p[1:])))
        # Priors on the U chain.
        pot += math.log(Ul[0])
        for _, _, mass in self._links(Ul, phi)[1]:
            pot -= -math.inf if mass <= 0.0 else math.log(mass)
        # Uniform priors on p, phi via the log-odds transform Jacobian.
        pot -= float(np.sum(log_p + log_1mp) + np.sum(log_phi - np.logaddexp(0.0, lphi)))
        # Embedding cell widths.
        for emap, cell in zip(self.emaps, cells):
            pot += math.log(emap.knots[cell + 1] - emap.knots[cell])
        return float(pot)

    def grad_smooth(self, theta):
        lp, lphi, ut = self._split(theta)
        cells, U = self._decode_u(ut)
        if cells is None:
            raise OutOfSupportError("gradient queried off support")
        st = self.stats
        T = self.T
        p = [expit(x) for x in lp.tolist()]
        phi = [expit(x) for x in lphi.tolist()]
        chi = survival_chi(phi, p)
        c = st.R[:-1] - st.r[:-1]
        div = _chi_divisor(chi[:-1], c)
        if div is None:
            raise OutOfSupportError("gradient queried where the potential is +inf")
        # U-chain prior: its standard deviation s depends on phi.  A link
        # whose mass rounds to 0 makes the potential +inf.
        U = U.tolist()
        s, links = self._links(U, phi)
        if any(w <= 0.0 for _, _, w in links):
            raise OutOfSupportError("gradient queried where the potential is +inf")

        # The rest runs on Python floats, element by element: their + - * /
        # give numpy's bits, at a fraction of the cost per call on T entries.
        chi = chi.tolist()
        q = [1.0 - x for x in p]
        exp, log = math.exp, math.log
        du_prior = [
            -((a * exp(-0.5 * a * a) - b * exp(-0.5 * b * b)) / (si * _SQRT_2PI))
            * ((1.0 - 2.0 * f) / (2.0 * si)) / exp(log(w))
            for (a, b, w), si, f in zip(links, s, phi)]
        # Never-seen-again part via the adjoint of the chi recursion.
        lam = [-ci / di for ci, di in zip(c.tolist(), div.tolist())]
        for i in range(1, T - 1):
            lam[i] += lam[i - 1] * phi[i - 1] * q[i]
        # Where a p or phi rounds to 0 or 1, or its reciprocal overflows, the
        # chain rule is 0 * inf or divides by 0.  The same gradient with the
        # divisions multiplied through is finite there.
        u, z, m = self._u_obs, self._z_obs, self._m_obs
        g = []
        for i in range(T):  # d/d logit(p_{i+1})
            pi, qi = p[i], q[i]
            try:
                du = -u[i] / pi + (U[i] - u[i]) / qi
                if i:  # the recaptures, and chi_{i} through the adjoint
                    du += z[i] / qi - m[i] / pi
                    du += lam[i - 1] * (-phi[i - 1] * chi[i])
                gi = pi * qi * du + (2.0 * pi - 1.0)
            except ZeroDivisionError:
                gi = math.nan
            if not math.isfinite(gi):
                gi = (U[i] - u[i]) * pi - u[i] * qi + (2.0 * pi - 1.0)
                if i:
                    gi += (z[i] * pi - m[i] * qi
                           - pi * qi * lam[i - 1] * phi[i - 1] * chi[i])
            g.append(gi)
        for i in range(T - 1):  # d/d logit(phi_{i+1})
            f, seen = phi[i], z[i + 1] + m[i + 1]
            try:
                du = 0.0 - seen / f + lam[i] * (chi[i] - 1.0) / f + du_prior[i]
                gi = f * (1.0 - f) * du + (2.0 * f - 1.0)
            except ZeroDivisionError:
                gi = math.nan
            if not math.isfinite(gi):
                gi = ((1.0 - f) * (lam[i] * (chi[i] - 1.0) - seen)
                      + f * (1.0 - f) * du_prior[i] + (2.0 * f - 1.0))
            g.append(gi)
        return np.array(g)

    def _u_cell(self, theta, i):
        """Cell of the embedded U_{i+1} (0-based i) of an in-support theta."""
        return self.emaps[i].cell(theta.item(2 * self.T - 1 + i))

    def potential_diff(self, theta, j, value):
        T = self.T
        i = j - (2 * T - 1)
        if not 0 <= i < T:
            raise ContractError(f"coordinate {j} is outside diff_idx")
        cell1 = self.emaps[i].cell(value)
        if cell1 is None:
            return math.inf
        cell0 = self._u_cell(theta, i)
        if cell0 == cell1:
            return 0.0
        # The terms that read U_{i+1}, new minus old: its first-capture
        # binomial, its cell width, the 1/U_1 prior and the two Normal links
        # of the U chain.  Each reads one smooth coordinate at most.
        u = self._u_obs[i]
        U0 = float(self._u_lo[i] + cell0)
        U1 = float(self._u_lo[i] + cell1)
        lgamma = math.lgamma
        knots = self.emaps[i].knots
        du = (lgamma(U0 + 1.0) - lgamma(U0 - u + 1.0)
              - lgamma(U1 + 1.0) + lgamma(U1 - u + 1.0)
              + (U1 - U0) * _softplus(theta.item(i))  # -log(1 - p_{i+1})
              + math.log((knots.item(cell1 + 1) - knots.item(cell1))
                         / (knots.item(cell0 + 1) - knots.item(cell0))))
        var_b = self.sigma_b ** 2
        if i == 0:
            du += math.log(U1 / U0)
        else:  # U_{i+1} | U_i, with the variance of phi_i
            mu = (self._u_lo[i - 1] + self._u_cell(theta, i - 1)
                  - self._u_obs[i - 1])
            s = math.sqrt(var_b + _logistic_var(theta.item(T + i - 1)))
            du += (_interval_normal_logmass(U0, mu, s)
                   - _interval_normal_logmass(U1, mu, s))
        if i < T - 1:  # U_{i+2} | U_{i+1}, with the variance of phi_{i+1}
            n = self._u_lo[i + 1] + self._u_cell(theta, i + 1)
            s = math.sqrt(var_b + _logistic_var(theta.item(T + i)))
            du += (_interval_normal_logmass(n, U0 - u, s)
                   - _interval_normal_logmass(n, U1 - u, s))
        # Only a link whose mass rounds to 0 makes du inf or NaN.  The
        # potential is then +inf on the new side, or on the old side after
        # a smooth drift off the support: either way the diff is +inf.
        return du if math.isfinite(du) else math.inf

    def initial_theta(self, rng):
        """A dispersed but in-support start near plausible parameter values."""
        T = self.T
        theta = np.empty(self.dim)
        theta[:2 * T - 1] = 0.5 * rng.standard_normal(2 * T - 1)
        for i, emap in enumerate(self.emaps):
            guess = max(int(self.stats.u[i]) * 2 + 20, emap.lo + 1)
            guess = min(guess + int(rng.integers(0, 10)), emap.hi)
            theta[2 * T - 1 + i] = emap.embed_center(guess)
        return theta


def simulate_capture_recapture(rng: np.random.Generator, u1: int, p, phi,
                               births_scale: float = 50.0):
    """Individual-based forward simulation of an open population.

    ``u1`` is the initial unmarked population, ``p`` the per-occasion capture
    probabilities (length T), ``phi`` survival probabilities (length T-1);
    births are Poisson with mean ``births_scale`` per interval.  Returns
    (JollySeberStats, truth dict with the realized U_i).
    """
    p = np.asarray(p, dtype=float)
    phi = np.asarray(phi, dtype=float)
    T = len(p)
    if u1 < 1 or T < 2 or len(phi) != T - 1:
        raise ContractError("need u1 >= 1, T >= 2 and len(phi) == T-1")
    # histories[a][i] = True when animal a is captured at occasion i.
    alive = [True] * u1
    marked = [False] * u1
    histories = [[False] * T for _ in range(u1)]
    U_true = np.zeros(T, dtype=int)
    for i in range(T):
        U_true[i] = sum(1 for a in range(len(alive)) if alive[a] and not marked[a])
        for a in range(len(alive)):
            if alive[a] and rng.random() < p[i]:
                histories[a][i] = True
                marked[a] = True
        if i < T - 1:
            for a in range(len(alive)):
                if alive[a] and rng.random() >= phi[i]:
                    alive[a] = False
            for _ in range(rng.poisson(births_scale)):
                alive.append(True)
                marked.append(False)
                histories.append([False] * T)
    u = np.zeros(T, dtype=int)
    m = np.zeros(T, dtype=int)
    R = np.zeros(T, dtype=int)
    r = np.zeros(T, dtype=int)
    z = np.zeros(T, dtype=int)
    for h in histories:
        seen = [i for i in range(T) if h[i]]
        if not seen:
            continue
        first = seen[0]
        u[first] += 1
        for i in seen[1:]:
            m[i] += 1
        for i in seen:
            R[i] += 1
            if any(k > i for k in seen):
                r[i] += 1
        for i in range(first + 1, seen[-1] + 1):
            if not h[i]:
                z[i] += 1
    stats = JollySeberStats(u=u, m=m, R=R, r=r, z=z)
    return stats, {"U": U_true, "p": p.copy(), "phi": phi.copy()}


def population_draws(stats: JollySeberStats, u_draws, phi_draws,
                     rng: np.random.Generator):
    """Total population sizes N_i = M_i + U_i per stored draw.

    The marked population starts at M_1 = 0; the animals marked by occasion i
    (previous marked plus the u_i newly marked) survive to i+1 binomially
    with rate phi_i.
    """
    u_draws = np.asarray(u_draws)
    phi_draws = np.asarray(phi_draws, dtype=float)
    n_draws, T = u_draws.shape
    if phi_draws.shape != (n_draws, T - 1):
        raise ContractError("phi draws must be (n, T-1)")
    N = np.empty((n_draws, T), dtype=np.int64)
    for d in range(n_draws):
        M = 0
        for i in range(T):
            N[d, i] = M + u_draws[d, i]
            if i < T - 1:
                M = rng.binomial(M + int(stats.u[i]), phi_draws[d, i])
    return N


def save_stats(path, stats: JollySeberStats):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["occasion", "u", "m", "R", "r", "z"])
        for i in range(stats.T):
            w.writerow([i + 1, stats.u[i], stats.m[i], stats.R[i],
                        stats.r[i], stats.z[i]])


def load_stats(path) -> JollySeberStats:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:2] != ["occasion", "u"]:
        raise ContractError(f"{path}: expected a capture-recapture statistics CSV")
    data = np.array([[int(v) for v in row] for row in rows[1:]])
    if data.size == 0:
        raise ContractError(f"{path}: no data rows")
    return JollySeberStats(u=data[:, 1], m=data[:, 2], R=data[:, 3],
                           r=data[:, 4], z=data[:, 5])
