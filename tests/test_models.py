"""Bundled target models against independent oracles."""

import math

import numpy as np
import pytest
from scipy.stats import binom, norm

from dhmc import ContractError, SamplerConfig, run_chain
from dhmc.embedding import EmbeddingMap
from dhmc.models import build_model
from dhmc.models.ar1 import Ar1Target
from dhmc.models.arch_cp import (ArchChangePointTarget,
                                 arch_neg_log_likelihood, load_series,
                                 save_series, synth_arch_series)
from dhmc.models.binomial import BinomialNTarget
from dhmc.models.gen_bayes import (GenBayesTarget, load_classification,
                                   save_classification, synth_classification)
from dhmc.models.jolly_seber import (JollySeberStats, JollySeberTarget,
                                     load_stats, population_draws, save_stats,
                                     simulate_capture_recapture, survival_chi)
from dhmc.models.simple import BananaTarget, GaussianTarget, GridTarget

from conftest import fd_grad

# -------------------------------------------------------------- GaussianTarget


def test_gaussian_hand_value_and_grad():
    model = GaussianTarget(dim=2, mean=[1.0, -1.0], sd=[2.0, 0.5])
    theta = np.array([2.0, 0.0])
    assert model.potential(theta) == pytest.approx(0.5 * (0.25 + 4.0))
    np.testing.assert_allclose(model.grad_smooth(theta),
                               fd_grad(model.potential, theta), atol=1e-8)


def test_gaussian_diff_matches_full():
    model = GaussianTarget(dim=3, mean=0.3, sd=[1.0, 2.0, 0.7])
    rng = np.random.default_rng(4)
    for _ in range(100):
        theta = rng.normal(size=3)
        j = int(rng.integers(3))
        value = rng.normal()
        moved = theta.copy()
        moved[j] = value
        full = model.potential(moved) - model.potential(theta)
        assert model.potential_diff(theta, j, value) == pytest.approx(
            full, abs=1e-12)


def test_gaussian_broadcast_and_validation():
    model = GaussianTarget(dim=3, mean=2.0, sd=0.5)
    np.testing.assert_array_equal(model.mean, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(model.sd, [0.5, 0.5, 0.5])
    with pytest.raises(ContractError):
        GaussianTarget(dim=0)
    with pytest.raises(ContractError):
        GaussianTarget(dim=2, sd=[1.0, 0.0])


# ------------------------------------------------------------------ GridTarget


def test_grid_from_probs_cell_values():
    model = GridTarget.from_probs([0.2, 0.5, 0.3])
    assert model.potential(np.array([1.5])) == pytest.approx(-np.log(0.2))
    assert model.potential_diff(np.array([1.5]), 0, 2.5) == pytest.approx(
        np.log(0.2 / 0.5))
    assert model.potential(np.array([0.5])) == np.inf
    assert model.potential_diff(np.array([1.5]), 0, 4.5) == np.inf
    np.testing.assert_allclose(model.exact_pmf(), [0.2, 0.5, 0.3])


def test_grid_zero_mass_cell_is_a_wall():
    model = GridTarget.from_probs([0.2, 0.0, 0.8])
    assert model.potential(np.array([2.5])) == np.inf
    np.testing.assert_allclose(model.exact_pmf(), [0.2, 0.0, 0.8])


def test_grid_two_axes_width_correction():
    m0 = EmbeddingMap.uniform(1, 2)
    m1 = EmbeddingMap(np.array([0.0, 1.0, 3.0]), np.array([1.0, 2.0]))
    mass = np.array([[0.1, 0.2], [0.3, 0.4]])
    model = GridTarget([m0, m1], np.log(mass))
    # density = mass / cell volume, so the wide axis-1 cell pays log 2.
    assert model.potential(np.array([1.5, 2.0])) == pytest.approx(
        -np.log(0.2) + np.log(2.0))
    np.testing.assert_allclose(model.exact_pmf(), mass)


def test_grid_diff_off_support_theta_raises():
    # potential_diff is only called where the potential is finite
    model = GridTarget.from_probs([0.5, 0.5])
    assert model.potential(np.array([0.5])) == np.inf
    with pytest.raises(ContractError):
        model.potential_diff(np.array([0.5]), 0, 1.5)


def test_grid_validation():
    emap = EmbeddingMap.uniform(1, 3)
    with pytest.raises(ContractError):
        GridTarget([emap], np.zeros(2))
    with pytest.raises(ContractError):
        GridTarget([emap], np.array([0.0, np.nan, 0.0]))
    with pytest.raises(ContractError):
        GridTarget([emap], np.full(3, -np.inf))


def test_grid_initial_theta_in_support():
    model = GridTarget.from_probs([0.0, 0.0, 1.0])
    theta = model.initial_theta(np.random.default_rng(0))
    assert np.isfinite(model.potential(theta))


# ---------------------------------------------------------------- BananaTarget


def test_banana_quantizes_smooth_potential():
    model = BananaTarget(step=0.5)
    rng = np.random.default_rng(6)
    for _ in range(300):
        theta = rng.normal(scale=3.0, size=2)
        u = model.potential(theta)
        smooth = theta[0] ** 2 / 8.0 + 0.5 * (theta[1] - theta[0] ** 2 / 4.0) ** 2
        assert u == 0.5 * math.floor(smooth / 0.5)
        assert u <= smooth < u + 0.5
    assert model.potential(np.array([0.0, 0.0])) == 0.0
    with pytest.raises(ContractError):
        BananaTarget(step=0.0)


# ------------------------------------------------------------- BinomialNTarget


@pytest.mark.parametrize("kind", ["uniform", "log"])
def test_binomial_matches_enumeration(kind):
    model = BinomialNTarget(5, 0.5, n_max=50, kind=kind)
    ns = np.arange(5, 51)
    ref = binom.logpmf(5, ns, 0.5) - np.log(ns)
    # per-cell mass must be proportional to the pmf regardless of the knots
    widths = np.diff(model.emap.knots)
    log_mass = np.array([
        -model.potential(np.array([model.emap.embed_center(int(n))]))
        for n in ns]) + np.log(widths)
    shift = log_mass - ref
    assert shift.max() - shift.min() < 1e-10


def test_binomial_neighbor_ratio():
    model = BinomialNTarget(5, 0.5, n_max=50)
    u5 = model.potential(np.array([5.5]))
    u6 = model.potential(np.array([6.5]))
    assert u5 - u6 == pytest.approx(np.log(2.5), abs=1e-12)


def test_binomial_single_cell_support():
    model = BinomialNTarget(0, 0.5, n_max=1)
    assert model.potential(np.array([1.5])) == pytest.approx(np.log(2.0))
    assert model.potential(np.array([1.0])) == np.inf
    assert model.potential(np.array([2.2])) == np.inf


def test_binomial_diff_matches_full():
    model = BinomialNTarget(3, 0.3, n_max=20, kind="log")
    rng = np.random.default_rng(9)
    lo, hi = model.emap.knots[0], model.emap.knots[-1]
    for _ in range(100):
        x = rng.uniform(lo + 1e-9, hi)
        v = rng.uniform(lo + 1e-9, hi)
        d = model.potential_diff(np.array([x]), 0, v)
        full = model.potential(np.array([v])) - model.potential(np.array([x]))
        assert d == pytest.approx(full, abs=1e-12)
    assert model.potential_diff(np.array([x]), 0, hi + 1.0) == np.inf
    same = model.emap.embed_center(7)
    assert model.potential_diff(np.array([same]), 0, same) == 0.0


def test_binomial_initial_theta_at_mode():
    model = BinomialNTarget(5, 0.5, n_max=50)
    ns = np.arange(5, 51)
    n_star = ns[np.argmax(binom.logpmf(5, ns, 0.5) - np.log(ns))]
    theta = model.initial_theta(np.random.default_rng(0))
    assert theta[0] == model.emap.embed_center(int(n_star))


def test_binomial_validation():
    with pytest.raises(ContractError):
        BinomialNTarget(-1, 0.5)
    with pytest.raises(ContractError):
        BinomialNTarget(5, 0.0)
    with pytest.raises(ContractError):
        BinomialNTarget(5, 1.0)
    with pytest.raises(ContractError):
        BinomialNTarget(10, 0.5, n_max=9)
    with pytest.raises(ContractError):
        BinomialNTarget(5, 0.5, kind="cubic")
    assert BinomialNTarget(5, 0.5).param_names == ["N"]


# ------------------------------------------------------------------- Ar1Target


def test_ar1_zero_is_stationary_point():
    model = Ar1Target(alpha=0.9, dim=6)
    zero = np.zeros(6)
    assert model.potential(zero) == 0.0
    np.testing.assert_array_equal(model.grad_smooth(zero), zero)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_ar1_matches_dense_precision(dim):
    alpha = 0.9
    model = Ar1Target(alpha=alpha, dim=dim)
    idx = np.arange(dim)
    cov = alpha ** np.abs(idx[:, None] - idx[None, :])
    prec = np.linalg.inv(cov)
    rng = np.random.default_rng(dim)
    for _ in range(20):
        theta = rng.normal(size=dim)
        assert model.potential(theta) == pytest.approx(
            0.5 * theta @ prec @ theta, abs=1e-9)
        np.testing.assert_allclose(model.grad_smooth(theta), prec @ theta,
                                   atol=1e-9)


def test_ar1_grad_matches_finite_differences():
    model = Ar1Target(alpha=0.7, dim=8)
    rng = np.random.default_rng(2)
    for _ in range(20):
        theta = rng.normal(size=8)
        np.testing.assert_allclose(model.grad_smooth(theta),
                                   fd_grad(model.potential, theta), atol=1e-6)


def test_ar1_diff_matches_full():
    model = Ar1Target(alpha=0.9, dim=10)
    rng = np.random.default_rng(3)
    for _ in range(100):
        theta = rng.normal(size=10)
        j = int(rng.integers(10))
        value = rng.normal()
        moved = theta.copy()
        moved[j] = value
        full = model.potential(moved) - model.potential(theta)
        assert model.potential_diff(theta, j, value) == pytest.approx(
            full, abs=1e-9)


def test_ar1_initial_theta_is_stationary_draw():
    model = Ar1Target(alpha=0.9, dim=10000)
    theta = model.initial_theta(np.random.default_rng(77))
    assert abs(theta.var() - 1.0) < 0.2
    lag1 = np.corrcoef(theta[:-1], theta[1:])[0, 1]
    assert abs(lag1 - 0.9) < 0.05


def test_ar1_validation():
    with pytest.raises(ContractError):
        Ar1Target(alpha=1.0)
    with pytest.raises(ContractError):
        Ar1Target(alpha=0.5, dim=1)


# -------------------------------------------------------------- GenBayesTarget


def test_gen_bayes_zero_beta_has_zero_loss():
    X, y, _ = synth_classification(np.random.default_rng(0), n=50, k=4)
    model = GenBayesTarget(X, y)
    beta = np.zeros(4)
    assert np.count_nonzero(model._yx @ beta < 0) == 0
    assert model.potential(beta) == 0.0


def test_gen_bayes_single_datum():
    model = GenBayesTarget(np.array([[1.0]]), np.array([1.0]))
    assert np.count_nonzero(model._yx @ np.array([-2.0]) < 0) == 1
    assert model.potential(np.array([-2.0])) == pytest.approx(3.0)
    assert np.count_nonzero(model._yx @ np.array([2.0]) < 0) == 0


def test_gen_bayes_separable_direction():
    X, y, beta = synth_classification(np.random.default_rng(1), n=80, k=6)
    model = GenBayesTarget(X, y)
    assert np.count_nonzero(model._yx @ beta < 0) == 0
    assert np.count_nonzero(model._yx @ -beta < 0) == 80


def test_gen_bayes_diff_matches_full():
    X, y, _ = synth_classification(np.random.default_rng(2), n=60, k=5)
    model = GenBayesTarget(X, y)
    rng = np.random.default_rng(3)
    for _ in range(100):
        beta = rng.normal(size=5)
        j = int(rng.integers(5))
        value = rng.normal()
        moved = beta.copy()
        moved[j] = value
        full = model.potential(moved) - model.potential(beta)
        assert model.potential_diff(beta, j, value) == pytest.approx(
            full, abs=1e-12)


def test_gen_bayes_validation():
    with pytest.raises(ContractError):
        GenBayesTarget(np.zeros(3), np.ones(3))
    with pytest.raises(ContractError):
        GenBayesTarget(np.zeros((3, 2)), np.ones(2))
    with pytest.raises(ContractError):
        GenBayesTarget(np.zeros((3, 2)), np.array([1.0, 0.5, -1.0]))


def test_synth_classification_standardized():
    X, y, beta = synth_classification(np.random.default_rng(5), n=40, k=3)
    np.testing.assert_allclose(X.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(X.std(axis=0), 1.0, atol=1e-12)
    assert set(np.unique(y)) <= {-1.0, 1.0}
    assert np.all((X @ beta) * y > 0)
    with pytest.raises(ContractError):
        synth_classification(np.random.default_rng(0), n=1, k=3)
    with pytest.raises(ContractError):
        synth_classification(np.random.default_rng(0), n=10, k=0)


def test_classification_round_trip(tmp_path):
    X, y, _ = synth_classification(np.random.default_rng(6), n=12, k=3)
    path = tmp_path / "cls.csv"
    save_classification(path, X, y)
    X2, y2 = load_classification(path)
    np.testing.assert_array_equal(X2, X)
    np.testing.assert_array_equal(y2, y)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ContractError):
        load_classification(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("y,x0\n")
    with pytest.raises(ContractError):
        load_classification(empty)


# ----------------------------------------------------------------- JollySeber


def _js_naive_potential(target, theta):
    """Plain-loop re-implementation of the log posterior, for cross-checking."""
    st = target.stats
    T = st.T
    lp = [float(v) for v in theta[:T]]
    lphi = [float(v) for v in theta[T:2 * T - 1]]
    ut = [float(v) for v in theta[2 * T - 1:]]
    U, widths = [], []
    for i in range(T):
        em = target.emaps[i]
        x = ut[i]
        if not (x > em.knots[0] and x <= em.knots[-1]):
            return float("inf")
        k = next(k for k in range(em.n_cells)
                 if em.knots[k] < x <= em.knots[k + 1])
        U.append(float(em.values[k]))
        widths.append(float(em.knots[k + 1] - em.knots[k]))
    p = [1.0 / (1.0 + math.exp(-v)) for v in lp]
    phi = [1.0 / (1.0 + math.exp(-v)) for v in lphi]
    ll = 0.0
    for i in range(T):
        ll += (math.lgamma(U[i] + 1) - math.lgamma(U[i] - st.u[i] + 1)
               + st.u[i] * math.log(p[i])
               + (U[i] - st.u[i]) * math.log(1.0 - p[i]))
    chi = [0.0] * T
    chi[T - 1] = 1.0
    for i in range(T - 2, -1, -1):
        chi[i] = 1.0 - phi[i] * (p[i + 1] + (1.0 - p[i + 1]) * (1.0 - chi[i + 1]))
    for i in range(T - 1):
        ll += ((st.R[i] - st.r[i]) * math.log(chi[i])
               + st.z[i + 1] * (math.log(phi[i]) + math.log(1.0 - p[i + 1]))
               + st.m[i + 1] * (math.log(phi[i]) + math.log(p[i + 1])))
    lpr = -math.log(U[0])
    for i in range(T - 1):
        sd = math.sqrt(target.sigma_b ** 2 + phi[i] * (1.0 - phi[i]))
        mass = (norm.cdf(U[i + 1] + 1.0, loc=U[i] - st.u[i], scale=sd)
                - norm.cdf(U[i + 1], loc=U[i] - st.u[i], scale=sd))
        lpr += math.log(mass)
    for i in range(T):
        lpr += math.log(p[i]) + math.log(1.0 - p[i])
    for i in range(T - 1):
        lpr += math.log(phi[i]) + math.log(1.0 - phi[i])
    for w in widths:
        lpr -= math.log(w)
    return -(ll + lpr)


@pytest.fixture(scope="module")
def js_small():
    stats = JollySeberStats(u=[15, 4, 6], m=[0, 5, 7], R=[15, 9, 13],
                            r=[10, 6, 0], z=[0, 3, 0])
    return JollySeberTarget(stats, n_max=200)


def test_js_chi_base_case():
    chi = survival_chi([0.5], [0.3, 0.4])
    assert chi[0] == pytest.approx(0.8)
    assert chi[1] == 1.0


def test_js_chi_stays_in_unit_interval():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        T = int(rng.integers(2, 9))
        p = rng.uniform(1e-6, 1 - 1e-6, size=T)
        phi = rng.uniform(1e-6, 1 - 1e-6, size=T - 1)
        chi = survival_chi(phi, p)
        assert np.all(chi >= 0.0) and np.all(chi <= 1.0)
    with pytest.raises(ContractError):
        survival_chi([0.5, 0.5], [0.3, 0.4])


def test_js_potential_matches_naive_reimplementation(js_small):
    tgt = js_small
    rng = np.random.default_rng(8)
    for _ in range(100):
        theta = np.empty(tgt.dim)
        theta[:5] = rng.normal(size=5)
        for i, em in enumerate(tgt.emaps):
            theta[5 + i] = rng.uniform(em.knots[0] + 1e-9, em.knots[-1])
        assert tgt.potential(theta) == pytest.approx(
            _js_naive_potential(tgt, theta), abs=1e-9)


def test_js_below_first_captures_is_off_support(js_small):
    tgt = js_small
    theta = tgt.initial_theta(np.random.default_rng(0))
    theta[5] = tgt.emaps[0].knots[0] - 0.5  # would mean U_1 < u_1
    assert tgt.potential(theta) == np.inf


def test_js_grad_matches_finite_differences(js_small):
    tgt = js_small
    rng = np.random.default_rng(11)
    for _ in range(20):
        theta = np.empty(tgt.dim)
        theta[:5] = rng.normal(size=5)
        for i, em in enumerate(tgt.emaps):
            c = int(rng.integers(0, em.n_cells))
            theta[5 + i] = 0.5 * (em.knots[c] + em.knots[c + 1])
        smooth0 = theta[:5].copy()

        def on_smooth(v):
            t = theta.copy()
            t[:5] = v
            return tgt.potential(t)

        np.testing.assert_allclose(tgt.grad_smooth(theta),
                                   fd_grad(on_smooth, smooth0), atol=1e-5)


def test_js_potential_diff_on_population_coordinates(js_small):
    tgt = js_small
    rng = np.random.default_rng(13)
    for _ in range(100):
        theta = np.empty(tgt.dim)
        theta[:5] = rng.normal(size=5)
        for i, em in enumerate(tgt.emaps):
            theta[5 + i] = rng.uniform(em.knots[0] + 1e-9, em.knots[-1])
        j = int(rng.integers(5, 8))
        em = tgt.emaps[j - 5]
        value = rng.uniform(em.knots[0] + 1e-9, em.knots[-1])
        moved = theta.copy()
        moved[j] = value
        full = tgt.potential(moved) - tgt.potential(theta)
        assert tgt.potential_diff(theta, j, value) == pytest.approx(
            full, abs=1e-9)
    # same cell is free, off support infinite
    x = tgt.emaps[0].embed_center(40)
    theta[5] = x
    assert tgt.potential_diff(theta, 5, x) == 0.0
    assert tgt.potential_diff(theta, 5, tgt.emaps[0].knots[-1] + 1.0) == np.inf
    assert list(tgt.diff_idx) == [5, 6, 7]


def test_js_logit_jacobian_preserves_slice_mass(js_small):
    tgt = js_small
    theta0 = np.empty(tgt.dim)
    theta0[:5] = 0.3
    for i, em in enumerate(tgt.emaps):
        theta0[5 + i] = em.embed_center(min(em.hi, int(tgt.stats.u[i]) * 2 + 5))
    lps = np.linspace(-15.0, 15.0, 6001)

    def on_logit(v):
        t = theta0.copy()
        t[0] = v
        return math.exp(-tgt.potential(t))

    transformed = np.trapezoid([on_logit(v) for v in lps], lps)
    ps = np.linspace(1e-7, 1 - 1e-7, 6001)

    def on_prob(p):
        t = theta0.copy()
        t[0] = math.log(p / (1.0 - p))
        return math.exp(-tgt.potential(t)) / (p * (1.0 - p))

    natural = np.trapezoid([on_prob(v) for v in ps], ps)
    assert abs(transformed - natural) / natural <= 1e-4


def test_js_names_partition_and_start(js_small):
    tgt = js_small
    assert tgt.param_names == ["p1", "p2", "p3", "phi1", "phi2",
                               "U1", "U2", "U3"]
    np.testing.assert_array_equal(tgt.smooth_idx, np.arange(5))
    np.testing.assert_array_equal(tgt.disc_idx, [5, 6, 7])
    assert set(tgt.embeddings) == {5, 6, 7}
    theta = tgt.initial_theta(np.random.default_rng(21))
    assert np.isfinite(tgt.potential(theta))


def test_js_validation():
    good = dict(u=[5, 3], m=[0, 2], R=[5, 4], r=[3, 0], z=[0, 0])
    JollySeberStats(**good)
    with pytest.raises(ContractError):
        JollySeberStats(**{**good, "u": [5, -1]})
    with pytest.raises(ContractError):
        JollySeberStats(u=[5], m=[0], R=[5], r=[0], z=[0])
    with pytest.raises(ContractError):
        JollySeberStats(**{**good, "z": [0, 0, 0]})
    with pytest.raises(ContractError):
        JollySeberStats(**{**good, "r": [6, 0]})
    stats = JollySeberStats(**good)
    with pytest.raises(ContractError):
        JollySeberTarget(stats, sigma_b=0.0)
    with pytest.raises(ContractError):
        JollySeberTarget(stats, n_max=4)
    with pytest.raises(ContractError):
        JollySeberTarget(stats, kind="spline")


def test_closed_population_simulation_identities():
    rng = np.random.default_rng(9)
    stats, truth = simulate_capture_recapture(rng, u1=30, p=[1.0, 1.0, 1.0],
                                              phi=[1.0, 1.0], births_scale=0.0)
    np.testing.assert_array_equal(stats.u, [30, 0, 0])
    np.testing.assert_array_equal(stats.m, [0, 30, 30])
    np.testing.assert_array_equal(stats.R, [30, 30, 30])
    np.testing.assert_array_equal(stats.r, [30, 30, 0])
    np.testing.assert_array_equal(stats.z, [0, 0, 0])
    np.testing.assert_array_equal(truth["U"], [30, 0, 0])
    with pytest.raises(ContractError):
        simulate_capture_recapture(rng, u1=0, p=[0.5, 0.5], phi=[0.9])
    with pytest.raises(ContractError):
        simulate_capture_recapture(rng, u1=5, p=[0.5], phi=[])
    with pytest.raises(ContractError):
        simulate_capture_recapture(rng, u1=5, p=[0.5, 0.5], phi=[0.9, 0.9])


def test_population_draws_deterministic_at_full_survival():
    stats, _ = simulate_capture_recapture(np.random.default_rng(1), u1=30,
                                          p=[1.0, 1.0, 1.0], phi=[1.0, 1.0],
                                          births_scale=0.0)
    u_draws = np.array([[30, 0, 0], [30, 5, 2]])
    phi_draws = np.ones((2, 2))
    n = population_draws(stats, u_draws, phi_draws, np.random.default_rng(0))
    np.testing.assert_array_equal(n, [[30, 30, 30], [30, 35, 32]])
    with pytest.raises(ContractError):
        population_draws(stats, u_draws, np.ones((2, 3)),
                         np.random.default_rng(0))


def test_js_stats_round_trip(tmp_path):
    stats = JollySeberStats(u=[15, 4, 6], m=[0, 5, 7], R=[15, 9, 13],
                            r=[10, 6, 0], z=[0, 3, 0])
    path = tmp_path / "stats.csv"
    save_stats(path, stats)
    loaded = load_stats(path)
    for name in ("u", "m", "R", "r", "z"):
        np.testing.assert_array_equal(getattr(loaded, name),
                                      getattr(stats, name))
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c,d,e,f\n1,1,1,1,1,1\n")
    with pytest.raises(ContractError):
        load_stats(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("occasion,u,m,R,r,z\n")
    with pytest.raises(ContractError):
        load_stats(empty)


# ----------------------------------------------------------- ArchChangePoint


def test_arch_nll_matches_inline_loop():
    rng = np.random.default_rng(3)
    y = rng.normal(size=12)
    a_t = rng.uniform(0.5, 2.0, size=11)
    b_t = rng.uniform(0.0, 0.5, size=11)
    ref = 0.0
    for t in range(1, 12):
        s2 = a_t[t - 1] + b_t[t - 1] * y[t - 1] ** 2
        ref += 0.5 * (math.log(s2) + math.log(2 * math.pi) + y[t] ** 2 / s2)
    assert arch_neg_log_likelihood(y, a_t, b_t) == pytest.approx(ref, abs=1e-12)
    bad_a = a_t.copy()
    bad_a[3] = -10.0
    assert arch_neg_log_likelihood(y, bad_a, b_t) == np.inf
    with pytest.raises(ContractError):
        arch_neg_log_likelihood(y, a_t[:-1], b_t)


def test_arch_no_changepoints_matches_plain_arch_oracle():
    y, _ = synth_arch_series(np.random.default_rng(4), T=60)
    model = ArchChangePointTarget(y, k_max=0)
    rng = np.random.default_rng(5)
    for _ in range(30):
        theta = rng.normal(size=4)
        la0, lb0, lsa, lsb = theta
        a, b = math.exp(la0), math.exp(lb0)
        nll = 0.0
        for t in range(1, len(y)):
            s2 = a + b * y[t - 1] ** 2
            nll += 0.5 * (math.log(s2) + math.log(2 * math.pi) + y[t] ** 2 / s2)

        def half_cauchy(l):
            return math.log(math.pi / 2.0) + math.log1p(math.exp(2.0 * l)) - l

        ref = (nll + 0.5 * (la0 ** 2 + lb0 ** 2) + math.log(2 * math.pi)
               + half_cauchy(lsa) + half_cauchy(lsb))
        assert model.potential(theta) == pytest.approx(ref, abs=1e-10)


def test_arch_no_changepoints_gradient_and_constant_levels():
    y, _ = synth_arch_series(np.random.default_rng(4), T=60)
    model = ArchChangePointTarget(y, k_max=0)
    rng = np.random.default_rng(6)
    for _ in range(10):
        theta = rng.normal(size=4)
        np.testing.assert_allclose(model.grad_smooth(theta),
                                   fd_grad(model.potential, theta),
                                   rtol=1e-6, atol=1e-5)
        a_t, b_t = model.level_paths(theta)
        assert a_t.shape == b_t.shape == (len(y) - 1,)
        np.testing.assert_array_equal(a_t, a_t[0])  # one segment
        np.testing.assert_array_equal(b_t, b_t[0])
        assert a_t[0] == pytest.approx(math.exp(theta[0]), rel=1e-15)
        assert b_t[0] == pytest.approx(math.exp(theta[1]), rel=1e-15)


def test_arch_zero_slope_is_iid_normal():
    y, _ = synth_arch_series(np.random.default_rng(6), T=40)
    a = 1.7
    nll = arch_neg_log_likelihood(y, np.full(39, a), np.zeros(39))
    ref = 0.5 * np.sum(np.log(a) + np.log(2 * np.pi) + y[1:] ** 2 / a)
    assert nll == pytest.approx(ref, abs=1e-10)


def test_arch_tau_order_violation_is_off_support():
    y, _ = synth_arch_series(np.random.default_rng(7), T=50)
    model = ArchChangePointTarget(y, k_max=2)
    theta = model.initial_theta(np.random.default_rng(0))
    assert np.isfinite(model.potential(theta))
    theta[-2:] = model.tau_map.embed_center(20)  # tau1 == tau2
    assert model.potential(theta) == np.inf
    theta[-2] = model.tau_map.embed_center(30)  # tau1 > tau2
    theta[-1] = model.tau_map.embed_center(20)
    assert model.potential(theta) == np.inf


def test_arch_grad_matches_finite_differences():
    y, _ = synth_arch_series(np.random.default_rng(3), T=40)
    model = ArchChangePointTarget(y, k_max=2)
    rng = np.random.default_rng(8)
    for trial in range(10):
        theta = model.initial_theta(np.random.default_rng(trial))
        theta[:model._n_smooth] += 0.3 * rng.normal(size=model._n_smooth)
        smooth0 = theta[:model._n_smooth].copy()

        def on_smooth(v):
            t = theta.copy()
            t[:model._n_smooth] = v
            return model.potential(t)

        np.testing.assert_allclose(model.grad_smooth(theta),
                                   fd_grad(on_smooth, smooth0), atol=1e-5)


def test_arch_level_paths_hand_case():
    y = np.zeros(6)
    y[0] = 1.0  # keep the series valid but irrelevant here
    model = ArchChangePointTarget(y, k_max=1)
    theta = np.zeros(model.dim)
    theta[0] = math.log(2.0)   # a0
    theta[1] = math.log(0.3)   # b0
    theta[2] = 0.7             # da1: a jumps to 2 e^0.7
    theta[3] = -0.2
    theta[-1] = model.tau_map.embed_center(4)
    a_t, b_t = model.level_paths(theta)
    np.testing.assert_allclose(a_t, [2.0, 2.0, 2.0,
                                     2.0 * math.exp(0.7), 2.0 * math.exp(0.7)])
    np.testing.assert_allclose(b_t, [0.3, 0.3, 0.3,
                                     0.3 * math.exp(-0.2), 0.3 * math.exp(-0.2)])


def test_arch_validation():
    with pytest.raises(ContractError):
        ArchChangePointTarget(np.zeros(2))
    with pytest.raises(ContractError):
        ArchChangePointTarget(np.array([1.0, np.inf, 0.0]))
    with pytest.raises(ContractError):
        ArchChangePointTarget(np.zeros(10), k_max=9)
    with pytest.raises(ContractError):
        synth_arch_series(np.random.default_rng(0), T=5)
    with pytest.raises(ContractError):
        synth_arch_series(np.random.default_rng(0), T=20, change_t=1)


def test_arch_series_round_trip(tmp_path):
    y, truth = synth_arch_series(np.random.default_rng(9), T=30)
    assert len(y) == 30
    assert truth["change_t"] == 15
    path = tmp_path / "series.csv"
    save_series(path, y)
    np.testing.assert_array_equal(load_series(path), y)
    bad = tmp_path / "bad.csv"
    bad.write_text("time,value\n1,0.5\n")
    with pytest.raises(ContractError):
        load_series(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("t,y\n")
    with pytest.raises(ContractError):
        load_series(empty)


def test_arch_recovers_planted_change_point():
    y, truth = synth_arch_series(np.random.default_rng(12), T=200, jump=10.0)
    model = ArchChangePointTarget(y, k_max=1)
    cfg = SamplerConfig(kernel="dhmc", n_samples=400, n_warmup=300,
                        path_len=(5, 10))
    store = run_chain(model, None, cfg, rng=np.random.default_rng(5))
    taus = store.decoded_column(store.names.index("tau1"))
    assert abs(np.median(taus) - truth["change_t"]) <= 10


# ------------------------------------------------------------- support fuzz


def _fuzz_cases():
    rng = np.random.default_rng(0)
    X, y, _ = synth_classification(rng, n=50, k=5)
    arch_y, _ = synth_arch_series(rng, T=30)
    stats = JollySeberStats(u=[15, 4, 6], m=[0, 5, 7], R=[15, 9, 13],
                            r=[10, 6, 0], z=[0, 3, 0])
    js = JollySeberTarget(stats, n_max=100)
    arch = ArchChangePointTarget(arch_y, k_max=2)
    grid = GridTarget.from_probs([0.2, 0.0, 0.5, 0.3])

    def always(_m, _t):
        return True

    def grid_ok(m, t):
        for i, em in enumerate(m.axis_maps):
            if not em.contains(t[i]):
                return False
        cells = tuple(em.cell_of(t[i]) for i, em in enumerate(m.axis_maps))
        return m.exact_pmf()[cells] > 0

    def binom_ok(m, t):
        return m.emap.contains(t[0])

    def js_ok(m, t):
        return all(em.contains(t[5 + i]) for i, em in enumerate(m.emaps))

    def arch_ok(m, t):
        cells = []
        for k in range(m.k_max):
            v = t[m._n_smooth + k]
            if not m.tau_map.contains(v):
                return False
            cells.append(m.tau_map.lookup(v))
        return bool(np.all(np.diff(cells) > 0))

    return [
        (GaussianTarget(dim=3, mean=0.5, sd=[1.0, 2.0, 0.5]), always),
        (grid, grid_ok),
        (BananaTarget(), always),
        (BinomialNTarget(5, 0.5, n_max=30), binom_ok),
        (Ar1Target(alpha=0.9, dim=5), always),
        (GenBayesTarget(X, y), always),
        (js, js_ok),
        (arch, arch_ok),
    ]


@pytest.mark.parametrize("model,ok", _fuzz_cases(),
                         ids=lambda c: getattr(c, "name", ""))
def test_potential_finite_exactly_on_support(model, ok):
    rng = np.random.default_rng(123)
    center = model.initial_theta(np.random.default_rng(1))
    for _ in range(10**4):
        theta = center + rng.uniform(-6.0, 6.0, size=model.dim)
        u = model.potential(theta)
        assert not math.isnan(u)
        if ok(model, theta):
            assert math.isfinite(u)
        else:
            assert u == np.inf


# -------------------------------------------------------------- registry


def test_build_model_all_names():
    assert build_model("gaussian", {"dim": 2}).dim == 2
    pmf = build_model("pmf")
    np.testing.assert_allclose(pmf.exact_pmf(), [0.2, 0.5, 0.3])
    assert build_model("banana").dim == 2
    bn = build_model("binomial_n")
    assert (bn.y, bn.q, bn.n_max) == (5, 0.5, 50)
    assert build_model("ar1", {"dim": 10}).dim == 10
    gb = build_model("gen_bayes", {"n": 40, "k": 5})
    assert (gb.n, gb.k) == (40, 5)
    js = build_model("jolly_seber", {"u1": 50, "p": [0.5] * 3,
                                     "phi": [0.8] * 2, "n_max": 300})
    assert js.T == 3
    arch = build_model("arch_cp", {"T": 40, "k_max": 1})
    assert (arch.T, arch.k_max) == (40, 1)
    with pytest.raises(ContractError):
        build_model("mystery")


def test_build_model_loads_data_files(tmp_path):
    X, y, _ = synth_classification(np.random.default_rng(1), n=20, k=3)
    cls = tmp_path / "cls.csv"
    save_classification(cls, X, y)
    model = build_model("gen_bayes", data_path=str(cls))
    np.testing.assert_array_equal(model.X, X)

    series = tmp_path / "series.csv"
    yv, _ = synth_arch_series(np.random.default_rng(2), T=30)
    save_series(series, yv)
    model = build_model("arch_cp", {"k_max": 1}, data_path=str(series))
    np.testing.assert_array_equal(model.y, yv)

    stats = JollySeberStats(u=[15, 4, 6], m=[0, 5, 7], R=[15, 9, 13],
                            r=[10, 6, 0], z=[0, 3, 0])
    sp = tmp_path / "stats.csv"
    save_stats(sp, stats)
    model = build_model("jolly_seber", {"n_max": 200}, data_path=str(sp))
    np.testing.assert_array_equal(model.stats.u, stats.u)
