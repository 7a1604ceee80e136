"""Warmup adaptation: the move statistic, stepsize search, mass estimates."""

import numpy as np
import pytest

from dhmc import (ContractError, SampleStore, SamplerConfig, TuneState,
                  adapt_stepsize, run_chain)
from dhmc.models.ar1 import Ar1Target
from dhmc.models.simple import GridTarget
from dhmc.samplers import TRACE_DTYPE
from dhmc.tuning import (MIN_MASS_DRAWS, mass_from_variances,
                         warmup_variances)

from conftest import FlatTarget


def _move_fraction(model, theta, eps):
    cfg = SamplerConfig(kernel="dhmc", eps_range=(eps, eps), path_len=1,
                        n_warmup=0, n_samples=50)
    store = run_chain(model, np.array(theta), cfg, np.random.default_rng(0))
    return store.move_fraction()


# ------------------------------------------------------------- move fraction


def test_move_fraction_weights_by_update_totals():
    # rows of (accepted, delta_H, flips, coord_updates, potential_evals,
    # eps_used, path_len, diverged)
    trace = np.array([(True, 0.0, 1, 2, 2, 0.5, 1, False),
                      (True, 0.0, 0, 8, 8, 0.5, 1, False)], dtype=TRACE_DTYPE)
    store = SampleStore(names=[], draws=np.empty((0, 0)), trace=trace)
    # totals: 1 flip over 10 updates, not the mean of (0.5, 1.0)
    assert store.move_fraction() == pytest.approx(0.9)


def test_flat_target_never_flips():
    assert _move_fraction(FlatTarget(dim=2), [0.0, 0.0], 0.5) == 1.0


def test_single_cell_target_always_flips():
    # jump size 2 always clears the unit-width support, so every proposal
    # runs into the wall
    assert _move_fraction(GridTarget.from_probs([1.0]), [1.5], 2.0) == 0.0


# ------------------------------------------------------------ adapt_stepsize


def test_adapt_first_step_gain_is_one():
    ts = TuneState(log_eps=0.0, target_stat=0.8)
    ts = adapt_stepsize(ts, 1.0)
    assert ts.log_eps == pytest.approx(0.2)
    assert ts.iteration == 1
    ts = adapt_stepsize(ts, 0.0)
    assert ts.log_eps == pytest.approx(0.2 + 2.0 ** -0.6 * (-0.8))
    assert ts.iteration == 2


def test_adapt_direction_and_fixed_point():
    ts = TuneState(log_eps=1.0, target_stat=0.8)
    assert adapt_stepsize(ts, 0.9).log_eps > 1.0
    assert adapt_stepsize(ts, 0.5).log_eps < 1.0
    assert adapt_stepsize(ts, 0.8).log_eps == 1.0


def test_adapt_validation():
    ts = TuneState(log_eps=0.0)
    with pytest.raises(ContractError):
        adapt_stepsize(ts, -0.1)
    with pytest.raises(ContractError):
        adapt_stepsize(ts, 1.1)
    with pytest.raises(ContractError):
        TuneState(log_eps=0.0, target_stat=0.0)
    with pytest.raises(ContractError):
        TuneState(log_eps=0.0, target_stat=1.0)
    assert TuneState(log_eps=np.log(0.25)).eps == pytest.approx(0.25)


def test_stepsize_search_finds_deterministic_root():
    # response stat(eps) = 1 - eps/2 crosses the 0.8 target at eps = 0.4
    ts = TuneState(log_eps=np.log(0.1), target_stat=0.8)
    for _ in range(2000):
        stat = min(1.0, max(0.0, 1.0 - 0.5 * ts.eps))
        ts = adapt_stepsize(ts, stat)
    assert abs(ts.eps - 0.4) / 0.4 <= 0.01


def test_stepsize_search_tolerates_noise():
    rng = np.random.default_rng(42)
    ts = TuneState(log_eps=np.log(0.1), target_stat=0.8)
    for _ in range(2000):
        stat = min(1.0, max(0.0, 1.0 - 0.5 * ts.eps + rng.uniform(-0.1, 0.1)))
        ts = adapt_stepsize(ts, stat)
    assert abs(ts.eps - 0.4) / 0.4 <= 0.05


# ------------------------------------------------------------ mass estimate


def estimate_mass(draws, smooth_idx, disc_idx):
    """Masses and warnings from a batch of draws through the one estimator."""
    var, warnings = warmup_variances(draws)
    return mass_from_variances(var, smooth_idx, disc_idx), warnings


def test_estimate_mass_inverse_sd_and_inverse_var():
    rng = np.random.default_rng(1)
    col = rng.normal(size=50)
    col = col / col.std(ddof=1)
    draws = np.column_stack([2.0 * col, 2.0 * col])  # sample sd exactly 2
    mass, warnings = estimate_mass(draws, [0], [1])
    assert warnings == []
    assert mass.diag_smooth[0] == pytest.approx(0.25, rel=1e-12)
    assert mass.m_disc[0] == pytest.approx(0.5, rel=1e-12)


def test_estimate_mass_constant_coordinate_warns():
    rng = np.random.default_rng(2)
    draws = np.column_stack([rng.normal(size=20), np.full(20, 3.0)])
    mass, warnings = estimate_mass(draws, [], [0, 1])
    assert mass.m_disc[1] == 1.0
    assert warnings == ["coordinate 1 constant; mass set to 1"]


def test_estimate_mass_scale_equivariance():
    rng = np.random.default_rng(3)
    draws = rng.normal(size=(40, 2))
    base, _ = estimate_mass(draws, [0], [1])
    scaled, _ = estimate_mass(3.0 * draws, [0], [1])
    assert scaled.diag_smooth[0] == pytest.approx(base.diag_smooth[0] / 9.0)
    assert scaled.m_disc[0] == pytest.approx(base.m_disc[0] / 3.0)


def test_mass_floor():
    mass = mass_from_variances(np.array([1e10, 1e20]), [0], [1])
    assert mass.diag_smooth[0] == 1e-8
    assert mass.m_disc[0] == 1e-8


def test_estimate_mass_on_stationary_ar1_draws():
    model = Ar1Target(alpha=0.9, dim=5)
    rng = np.random.default_rng(7)
    draws = np.array([model.initial_theta(rng) for _ in range(400)])
    mass, warnings = estimate_mass(draws, np.arange(5), [])
    assert warnings == []
    # unit marginal variance, so every mass should sit near 1
    np.testing.assert_allclose(mass.diag_smooth, 1.0, rtol=0.2)


def test_welford_matches_batch_variance():
    rng = np.random.default_rng(5)
    draws = rng.normal(size=(200, 3)) * [1.0, 2.0, 0.3]
    var, warnings = warmup_variances(draws)
    assert warnings == []
    np.testing.assert_allclose(var, draws.var(axis=0, ddof=1), atol=1e-10)
    mass = mass_from_variances(var, [0, 1], [2])
    np.testing.assert_allclose(mass.diag_smooth, 1.0 / var[:2], rtol=1e-15)
    np.testing.assert_allclose(mass.m_disc, 1.0 / np.sqrt(var[2:]),
                               rtol=1e-15)


def test_estimate_mass_validation():
    assert MIN_MASS_DRAWS == 10
    warmup_variances(np.zeros((MIN_MASS_DRAWS, 2)))
    with pytest.raises(ContractError):
        warmup_variances(np.zeros((MIN_MASS_DRAWS - 1, 2)))
    with pytest.raises(ContractError):
        warmup_variances(np.zeros(20))


# ------------------------------------------------------------ warmup plan


def test_rwm_scales_come_from_the_same_estimate():
    # every 50-wide proposal leaves the three-cell support, so nothing
    # moves in the first half of warmup: the same constant-coordinate rule
    # as the trajectory kernels gives scale 1 and its warning
    cfg = SamplerConfig(kernel="rwm", eps_range=(50.0, 50.0), n_warmup=40,
                        n_samples=5, seed=2)
    store = run_chain(GridTarget.from_probs([0.2, 0.5, 0.3]), None, cfg)
    assert not store.warmup_trace["accepted"][:20].any()
    assert store.warnings == ["coordinate 0 constant; mass set to 1"]


def test_mass_update_uses_the_first_half_of_warmup():
    # The masses of a 40-iteration warmup come from its first 20 draws.  A
    # chain with the same seed, no warmup and unit masses samples exactly
    # those 20 draws.
    model = GridTarget.from_probs([0.1, 0.2, 0.4, 0.2, 0.1])
    kw = dict(kernel="mwg", eps_range=(0.9, 1.1), seed=4)
    full = run_chain(model, None, SamplerConfig(n_warmup=40, n_samples=1, **kw))
    probe = SamplerConfig(n_warmup=0, n_samples=20, tune_mass=False, **kw)
    first = run_chain(model, None, probe).draws
    var, _ = warmup_variances(first)
    assert full.mass.m_disc.tolist() == \
        mass_from_variances(var, [], [0]).m_disc.tolist()
