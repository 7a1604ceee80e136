"""Markov transition kernels built on the integrators, plus the chain driver.

Kernels
-------

- ``dhmc``: stepsize and path length drawn fresh each iteration, momentum
  refreshed, one permutation shared by the whole trajectory.  With an empty
  smooth block the proposal conserves the Hamiltonian exactly and is accepted
  with probability one; with a smooth block present a standard
  Metropolis-Hastings test on the energy error decides.
- ``dhmc_coordwise``: the same kernel with every coordinate forced onto the
  Laplace block, so only potential differences are ever needed.
- ``mwg``: random-scan Metropolis-within-Gibbs with the symmetric proposal
  theta_j +- eps / m_j.  It is ``dhmc_coordwise`` with path length 1 and its
  own target statistic: the comparison |p_j| / m_j > dU with
  Laplace-distributed p_j is the Metropolis test with -log(uniform) realized
  as |p_j| / m_j.  A momentum flip is a rejection.
- ``hmc``: ``dhmc`` on an all-smooth partition, where the split step is
  leapfrog; smooth targets only.
- ``rwm``: random-walk Metropolis with a Gaussian proposal of configurable
  covariance.

Randomness is consumed in a fixed order (stepsize, path length jitter,
momentum, permutation, acceptance), and draws that would be degenerate are
skipped entirely, so matched configurations of different kernels can be
coupled draw for draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (ConfigError, ContractError, MassSpec, PhaseState,
                   TargetModel, kinetic_energy, sample_momentum)
from .integrators import _potential_checked, _sweep_tables, _trajectory
from .tuning import (MIN_MASS_DRAWS, TuneState, adapt_stepsize,
                     mass_from_variances, warmup_variances)

__all__ = ["SamplerConfig", "SampleStore", "KERNELS", "TRACE_DTYPE",
           "chain_setup", "run_chain"]

KERNELS = ("dhmc", "dhmc_coordwise", "hmc", "mwg", "rwm")

# Stepsize adaptation steers the move fraction (or acceptance rate) here
# unless the configuration overrides the target.
DEFAULT_TARGET_STAT = {
    "dhmc": 0.8,
    "dhmc_coordwise": 0.8,
    "hmc": 0.8,
    "mwg": 0.44,
    "rwm": 0.234,
}


def config_value(value, name: str, kind=int):
    """``kind(value)``, or a ConfigError that names the field."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}") from None


@dataclass(frozen=True)
class SamplerConfig:
    """Settings for one chain.

    The fields are converted and checked here, each with a ConfigError that
    names it; ``rwm_cov`` needs the model and is checked by ``chain_setup``.
    ``eps_range`` is the (min, max) stepsize jitter window, or one
    number for a fixed stepsize; leave it None to let warmup adaptation find
    a stepsize, in which case the sampling phase uses Uniform(0.8 e, e)
    around the adapted value e.  ``path_len`` is either
    an integer L, jittered over {ceil(0.9 L) .. L} per trajectory, or an
    explicit (min, max) pair; (L, L) disables the jitter.  ``mass`` of None
    means unit masses, re-estimated halfway through warmup when ``tune_mass``
    is on.  ``tune_eps``/``tune_mass`` of None resolve to "tune whatever was
    not given explicitly"; an explicit ``rwm_cov`` is never re-estimated.
    """

    kernel: str = "dhmc"
    eps_range: tuple | float | None = None
    path_len: int | tuple = 1
    mass: MassSpec | None = None
    seed: int | None = None
    n_samples: int = 1000
    n_warmup: int = 500
    target_stat: float | None = None
    tune_eps: bool | None = None
    tune_mass: bool | None = None
    rwm_cov: np.ndarray | list | None = None

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        if self.kernel not in KERNELS:
            raise ConfigError(f"unknown kernel {self.kernel!r}; choose from {KERNELS}")
        if self.eps_range is not None:
            eps = self.eps_range
            if isinstance(eps, (int, float)):
                eps = (eps, eps)
            try:
                lo, hi = map(float, eps)
            except (TypeError, ValueError):
                raise ConfigError("eps_range must be a (min, max) pair or a "
                                  f"number, got {self.eps_range!r}") from None
            if not (0.0 < lo <= hi) or not math.isfinite(hi):
                raise ConfigError(
                    f"eps_range must satisfy 0 < min <= max, got ({lo}, {hi})")
            put("eps_range", (lo, hi))
        pair = isinstance(self.path_len, (tuple, list))
        try:
            lo, hi = map(int, self.path_len) if pair else (int(self.path_len),) * 2
        except (TypeError, ValueError, OverflowError):
            raise ConfigError("path_len must be an integer or a (min, max) pair, "
                              f"got {self.path_len!r}") from None
        if not 1 <= lo <= hi:
            raise ConfigError(
                f"path_len range must satisfy 1 <= min <= max, got ({lo}, {hi})"
                if pair else f"path_len must be >= 1, got {lo}")
        put("path_len", (lo, hi) if pair else lo)
        put("n_samples", config_value(self.n_samples, "n_samples"))
        put("n_warmup", config_value(self.n_warmup, "n_warmup"))
        if self.n_samples < 0 or self.n_warmup < 0:
            raise ConfigError("n_samples and n_warmup must be nonnegative")
        if self.seed is not None:
            put("seed", config_value(self.seed, "seed"))
            if self.seed < 0:
                raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.target_stat is not None:
            put("target_stat", config_value(self.target_stat, "target_stat", float))
            if not 0.0 < self.target_stat < 1.0:
                raise ConfigError(f"target_stat must lie in (0, 1), got {self.target_stat}")
        if self.eps_range is None and not self.resolved_tune_eps():
            raise ConfigError("eps_range is required when stepsize tuning is off")

    def resolved_tune_eps(self) -> bool:
        if self.tune_eps is None:
            return self.eps_range is None
        return bool(self.tune_eps)

    def resolved_tune_mass(self) -> bool:
        if self.kernel == "rwm" and self.rwm_cov is not None:
            return False
        if self.tune_mass is None:
            return self.mass is None
        return bool(self.tune_mass)

    def resolved_target(self) -> float:
        if self.target_stat is not None:
            return self.target_stat
        return DEFAULT_TARGET_STAT[self.kernel]

    def path_len_range(self) -> tuple:
        if isinstance(self.path_len, tuple):
            return self.path_len
        return (math.ceil(0.9 * self.path_len), self.path_len)


# One row per iteration, the ``trace.csv`` columns after ``iteration``.
# ``flips`` counts momentum reflections, which for the Gibbs-style kernels
# equal per-coordinate rejections; ``coord_updates`` is the number of
# coordinate-wise updates attempted (zero for rwm/hmc); ``potential_evals``
# counts potential, potential-difference and gradient calls.
TRACE_DTYPE = np.dtype([
    ("accepted", np.bool_), ("delta_H", np.float64), ("flips", np.int64),
    ("coord_updates", np.int64), ("potential_evals", np.int64),
    ("eps_used", np.float64), ("path_len", np.int64), ("diverged", np.bool_)])


def _draw_eps(rng: np.random.Generator, eps_range) -> float:
    lo, hi = eps_range
    return float(rng.uniform(lo, hi))


def _draw_path_len(rng: np.random.Generator, lo: int, hi: int) -> int:
    # A degenerate range consumes no randomness, so L=1 kernels stay
    # stream-for-stream couplable with Metropolis-within-Gibbs.
    if hi > lo:
        return int(rng.integers(lo, hi + 1))
    return int(lo)


def _dhmc_move(model, theta, smooth, disc, rng, eps_range, path_range, mass,
               tables, u_current):
    """One transition of the trajectory core; returns (theta, trace row,
    cached potential).

    Every kernel but ``rwm`` is this move: ``hmc`` on an all-smooth
    partition, ``mwg`` with path range (1, 1) on an all-discontinuous one.
    ``tables`` are the ``_sweep_tables`` of ``mass``.  With an empty smooth
    block the energy is conserved exactly, so the proposal is accepted with
    probability one and no potential value is needed; the cached potential
    is then None.  Otherwise ``u_current`` is the finite potential at
    ``theta``.  ``theta`` is not modified; an accepted proposal is a new
    array.
    """
    eps = _draw_eps(rng, eps_range)
    L = _draw_path_len(rng, *path_range)
    p = sample_momentum(rng, mass, smooth, disc)
    order = rng.permutation(disc)
    prop = theta.copy()
    if len(smooth):
        k0 = kinetic_energy(p, mass, smooth, disc)
    flips, evals, diverged, u_end = _trajectory(
        model, prop, p, smooth, mass, eps, L, order, tables)
    updates = L * len(disc)
    if diverged:
        row = (False, np.inf, flips, updates, evals, eps, L, True)
        return theta, row, u_current
    delta_h = 0.0
    accepted = True
    if len(smooth):
        k1 = kinetic_energy(p, mass, smooth, disc)
        delta_h = float((u_end + k1) - (u_current + k0))
        accepted = bool(np.log(rng.uniform()) < -delta_h)
    row = (accepted, delta_h, flips, updates, evals, eps, L, False)
    if accepted:
        return prop, row, u_end
    return theta, row, u_current


def _proposal_factor(rwm_cov, dim):
    """Left factor A with A A' = covariance; None means identity."""
    if rwm_cov is None:
        return None
    try:
        cov = np.asarray(rwm_cov, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"rwm_cov must be numeric, got {rwm_cov!r}") from None
    if cov.ndim == 1:
        if cov.shape[0] != dim or np.any(cov < 0):
            raise ConfigError("diagonal rwm_cov must be length dim and nonnegative")
        return np.sqrt(cov)
    if cov.ndim == 2 and cov.shape == (dim, dim):
        try:
            return np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ConfigError("rwm_cov must be positive definite") from exc
    raise ConfigError(f"rwm_cov has shape {cov.shape}, expected ({dim},) or ({dim}, {dim})")


def _rwm_move(model, theta, rng, eps_range, factor, u_current):
    """One random-walk Metropolis transition from ``theta``, of finite
    potential ``u_current``; returns (theta, trace row, cached potential)."""
    eps = _draw_eps(rng, eps_range)
    z = rng.standard_normal(len(theta))
    if factor is None:
        step = eps * z
    elif factor.ndim == 1:
        step = eps * (factor * z)
    else:
        step = eps * (factor @ z)
    prop = theta + step
    u_prop = _potential_checked(model, prop)
    delta = u_prop - u_current
    if np.log(rng.uniform()) < -delta:
        return prop, (True, float(delta), 0, 0, 1, eps, 0, False), u_prop
    return theta, (False, float(delta), 0, 0, 1, eps, 0, False), u_current


@dataclass
class SampleStore:
    """Column-wise draws plus everything needed to interpret and score them.

    ``draws`` holds raw sampling-space values; embedded discrete coordinates
    decode through ``embeddings``.  ``trace`` and ``warmup_trace`` are
    ``TRACE_DTYPE`` arrays with one row per sampling and per warmup
    iteration.  ``potential_evals`` counts sampling-phase model work only,
    warmup work is reported separately.  A store loaded from run artifacts
    holds decoded draws, no embeddings and empty traces.
    """

    names: list
    draws: np.ndarray
    embeddings: dict = field(default_factory=dict)
    trace: np.ndarray = field(default_factory=lambda: np.empty(0, TRACE_DTYPE))
    warmup_trace: np.ndarray = field(
        default_factory=lambda: np.empty(0, TRACE_DTYPE))
    kernel: str = ""
    eps_range: tuple = ()
    mass: MassSpec | None = None
    divergences: int = 0
    potential_evals: int = 0
    warmup_evals: int = 0
    warmup_divergences: int = 0
    warnings: list = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return self.draws.shape[0]

    def decoded_column(self, i: int) -> np.ndarray:
        """Column i with embedded coordinates decoded to their integers."""
        col = self.draws[:, i]
        emap = self.embeddings.get(i)
        if emap is None:
            return col
        return emap.decode(col).astype(float)

    def acceptance_rate(self) -> float:
        if not len(self.trace):
            return float("nan")
        return int(np.count_nonzero(self.trace["accepted"])) / len(self.trace)

    def move_fraction(self) -> float:
        """1 - flips per coordinate update over the sampling phase."""
        updates = int(self.trace["coord_updates"].sum())
        if updates == 0:
            return float("nan")
        return 1.0 - int(self.trace["flips"].sum()) / updates

    def mean_path_len(self) -> float:
        if not len(self.trace):
            return float("nan")
        return float(np.mean(self.trace["path_len"]))


def _resolve_partition(model: TargetModel, kernel: str):
    """(smooth_idx, disc_idx) of ``kernel`` on ``model``: new writable
    arrays, since ``rng.permutation`` rejects a read-only empty one."""
    d = model.dim
    if kernel in ("dhmc_coordwise", "mwg"):
        return np.array([], dtype=np.intp), np.arange(d, dtype=np.intp)
    if kernel == "hmc":
        if len(model.disc_idx):
            raise ConfigError(
                f"hmc requires an all-smooth target, {model.name} declares "
                f"{len(model.disc_idx)} discontinuous coordinates")
        return np.arange(d, dtype=np.intp), np.array([], dtype=np.intp)
    return (np.array(model.smooth_idx, dtype=np.intp),
            np.array(model.disc_idx, dtype=np.intp))


def _iteration_statistic(row) -> float:
    """Move fraction for sweep kernels, acceptance for trajectory kernels,
    read from one ``TRACE_DTYPE`` row.

    For mixed targets both constraints bind, so the minimum is adapted: the
    stepsize shrinks when either the sweep flips too often or the smooth
    block rejects too often.
    """
    stat = 1.0 if row["accepted"] else 0.0
    updates = int(row["coord_updates"])
    if updates:
        stat = min(stat, 1.0 - int(row["flips"]) / updates)
    return stat


def chain_setup(model: TargetModel, cfg: SamplerConfig):
    """Check ``cfg`` against ``model`` (ConfigError); returns (smooth_idx,
    disc_idx, initial mass, rwm proposal factor)."""
    smooth, disc = _resolve_partition(model, cfg.kernel)
    mass = cfg.mass
    if mass is None:
        mass = MassSpec.unit(len(smooth), len(disc))
    try:
        mass.check_sizes(len(smooth), len(disc))
    except ContractError as exc:
        raise ConfigError(str(exc)) from None
    factor = _proposal_factor(cfg.rwm_cov, model.dim) if cfg.kernel == "rwm" else None
    return smooth, disc, mass, factor


def run_chain(model: TargetModel, init, cfg: SamplerConfig,
              rng: np.random.Generator | None = None) -> SampleStore:
    """Warmup, adapt, then collect ``cfg.n_samples`` draws from one chain.

    ``init`` may be a PhaseState, a bare theta vector, or None to start from
    ``model.initial_theta``.  Warmup adapts the stepsize by stochastic
    approximation toward the kernel's target statistic; the draws of the
    first ``n_warmup // 2`` iterations give the masses, or ``rwm``'s scales
    (when enabled).  The sampling-phase kernel is frozen.  Fully
    deterministic given the rng.

    Returns a SampleStore whose ``warmup_trace`` and ``trace`` hold one
    ``TRACE_DTYPE`` row per warmup and per sampling iteration; its counters
    are the column sums of those rows.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    smooth, disc, mass, factor = chain_setup(model, cfg)
    if isinstance(init, PhaseState):
        theta0 = np.array(init.theta, dtype=float)
    elif init is None:
        theta0 = np.asarray(model.initial_theta(rng), dtype=float)
    else:
        theta0 = np.array(init, dtype=float)
    if theta0.shape != (model.dim,):
        raise ConfigError(f"initial point has shape {theta0.shape}, "
                          f"expected ({model.dim},)")
    # The one validation of the chain: every later state is an accepted
    # proposal, whose potential the move has already found finite.
    theta = PhaseState(theta0, np.zeros(model.dim), smooth, disc).theta
    u0 = float(model.potential(theta))
    if not np.isfinite(u0):
        raise ConfigError("initial point has non-finite potential")

    tune_eps = cfg.resolved_tune_eps()
    eps0 = 0.1 if cfg.eps_range is None else 0.5 * sum(cfg.eps_range)
    ts = TuneState(log_eps=math.log(eps0), target_stat=cfg.resolved_target())

    # The draws of iterations 0 .. half-1 give the masses after iteration half.
    warnings = []
    half = cfg.n_warmup // 2
    tune_mass = cfg.resolved_tune_mass() and cfg.n_warmup > 0
    first_half = None
    if tune_mass and half >= MIN_MASS_DRAWS:
        first_half = np.empty((half, model.dim))
    elif tune_mass:
        warnings.append("too few warmup draws to re-estimate masses")

    path_range = (1, 1) if cfg.kernel == "mwg" else cfg.path_len_range()
    u_cur = u0
    tables = _sweep_tables(model, mass, disc, model.dim)

    def move(th, eps_range, u_in):  # with the current mass, tables and factor
        if cfg.kernel == "rwm":
            return _rwm_move(model, th, rng, eps_range, factor, u_in)
        return _dhmc_move(model, th, smooth, disc, rng, eps_range, path_range,
                          mass, tables, u_in)

    rows = np.empty(cfg.n_warmup + cfg.n_samples, dtype=TRACE_DTYPE)
    warmup_trace, trace = rows[:cfg.n_warmup], rows[cfg.n_warmup:]
    for i in range(cfg.n_warmup):
        eps_range = (ts.eps, ts.eps) if tune_eps else cfg.eps_range
        theta, warmup_trace[i], u_cur = move(theta, eps_range, u_cur)
        if tune_eps:
            ts = adapt_stepsize(ts, _iteration_statistic(warmup_trace[i]))
        if first_half is not None and i < half:
            first_half[i] = theta
        elif first_half is not None and i == half:
            var, mass_warnings = warmup_variances(first_half)
            warnings.extend(mass_warnings)
            if cfg.kernel == "rwm":
                factor = np.sqrt(var)
                # eps now scales per-coordinate sd, so restart near 1
                if tune_eps:
                    ts = replace(ts, log_eps=math.log(2.4 / math.sqrt(model.dim)))
            else:
                mass = mass_from_variances(var, smooth, disc)
                tables = _sweep_tables(model, mass, disc, model.dim)

    final_eps_range = (0.8 * ts.eps, ts.eps) if tune_eps else cfg.eps_range

    draws = np.empty((cfg.n_samples, model.dim))
    for i in range(cfg.n_samples):
        theta, trace[i], u_cur = move(theta, final_eps_range, u_cur)
        draws[i] = theta

    return SampleStore(
        names=list(model.param_names), draws=draws,
        embeddings=dict(model.embeddings), trace=trace,
        warmup_trace=warmup_trace, kernel=cfg.kernel,
        eps_range=tuple(final_eps_range), mass=mass,
        divergences=int(trace["diverged"].sum()),
        potential_evals=int(trace["potential_evals"].sum()),
        # plus one for the initial-point check
        warmup_evals=1 + int(warmup_trace["potential_evals"].sum()),
        warmup_divergences=int(warmup_trace["diverged"].sum()),
        warnings=warnings)
