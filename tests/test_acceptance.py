"""Acceptance checks for the whole sampler stack.

Each test prints one PASS/FAIL line so the suite doubles as a checklist:

    python3 -m pytest tests/test_acceptance.py -v

The checks are end-to-end: exact energy bookkeeping of the integrators,
equivalence and coupling of the kernels, distributional correctness against
enumerated posteriors, error-order scaling, efficiency comparisons at equal
evaluation budgets, and recovery of planted parameters on the capture-
recapture model.  Random seeds are fixed; every tolerance was chosen against
an independently computed reference.
"""

import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import binom

from dhmc import (MassSpec, PhaseState, SamplerConfig, batch_means_ess,
                  coord_sweep, dhmc_step, min_ess_report, run_chain)
from dhmc.embedding import EmbeddingMap
from dhmc.models import build_model
from dhmc.models.ar1 import Ar1Target
from dhmc.models.binomial import BinomialNTarget
from dhmc.models.jolly_seber import JollySeberStats, JollySeberTarget
from dhmc.models.simple import GaussianTarget, GridTarget

from conftest import (CoupledMix, SmoothStep, all_disc_state,
                      all_smooth_state, batch_se, fd_jacobian, hamiltonian)
from test_models import _js_naive_potential

THREE_STATE = np.array([0.2, 0.5, 0.3])

_CAPMAN = None


@pytest.fixture(autouse=True)
def _capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _announce(line):
    # route around fd-level capture so the line shows even when tests pass
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


@contextmanager
def _criterion(num, name, max_seconds=None):
    t0 = time.time()
    try:
        yield
        elapsed = time.time() - t0
        if max_seconds is not None:
            assert elapsed < max_seconds, \
                f"took {elapsed:.1f}s, budget {max_seconds}s"
    except BaseException:
        _announce(f"ACCEPTANCE {num:02d} FAIL: {name}")
        raise
    _announce(f"ACCEPTANCE {num:02d} PASS: {name} [{elapsed:.1f}s]")


def _random_grid(rng, ndim):
    """A grid target with random masses and occasional hard walls."""
    shape = tuple(rng.integers(2, 5) for _ in range(ndim))
    mass = rng.uniform(0.05, 1.0, size=shape)
    if rng.uniform() < 0.5:
        mass[tuple(rng.integers(0, s) for s in shape)] = 0.0
    emaps = [EmbeddingMap.uniform(0, s - 1) for s in shape]
    with np.errstate(divide="ignore"):
        return GridTarget(emaps, np.log(mass))


def _interior_start(rng, model):
    """A random finite-potential point strictly inside some cell."""
    while True:
        theta = np.array([rng.uniform(m.knots[0] + 0.01, m.knots[-1] - 0.01)
                          for m in model.axis_maps])
        if np.isfinite(model.potential(theta)):
            return theta


def test_01_exact_energy_conservation():
    rng = np.random.default_rng(401)
    cases = 0
    with _criterion(1, "integrators conserve H to machine precision",
                    max_seconds=10):
        # coordinate sweeps on random grids, with and without walls
        for _ in range(400):
            model = _random_grid(rng, int(rng.integers(1, 3)))
            d = model.dim
            theta = _interior_start(rng, model)
            mass = MassSpec(m_disc=rng.uniform(0.3, 3.0, size=d))
            st = all_disc_state(theta, rng.laplace(0.0, mass.m_disc))
            h0 = hamiltonian(model, st, mass)
            order = rng.permutation(model.disc_idx)
            out = coord_sweep(model, st, order, float(rng.uniform(0.05, 2.0)),
                              mass)
            h1 = hamiltonian(model, out.state, mass)
            assert abs(h1 - h0) <= 1e-10 * (1.0 + abs(h0))
            cases += 1
        # sweeps of the discontinuous block of a mixed target
        cm = CoupledMix()
        for _ in range(200):
            theta = np.array([rng.normal(), rng.uniform(1.05, 2.95)])
            mass = MassSpec(m_disc=rng.uniform(0.3, 3.0, size=1),
                            diag_smooth=rng.uniform(0.3, 3.0, size=1))
            p = np.array([rng.normal(), rng.laplace(0.0, mass.m_disc[0])])
            st = PhaseState(theta, p, cm.smooth_idx, cm.disc_idx)
            h0 = hamiltonian(cm, st, mass)
            order = rng.permutation(cm.disc_idx)
            out = coord_sweep(cm, st, order, float(rng.uniform(0.05, 1.5)),
                              mass)
            h1 = hamiltonian(cm, out.state, mass)
            assert abs(h1 - h0) <= 1e-10 * (1.0 + abs(h0))
            cases += 1
        assert cases == 600


def test_02_reversibility_and_volume():
    cm = CoupledMix()
    mass = MassSpec(m_disc=np.array([0.8]), diag_smooth=np.array([1.2]))
    rng = np.random.default_rng(402)
    with _criterion(2, "step map reverses and preserves phase volume",
                    max_seconds=30):
        checked = 0
        while checked < 100:
            theta = np.array([rng.normal(), rng.uniform(1.05, 2.95)])
            p = np.array([rng.normal(), rng.laplace(0.0, 0.8)])
            eps = float(rng.uniform(0.05, 0.25))
            order = rng.permutation(cm.disc_idx)
            st = PhaseState(theta, p, cm.smooth_idx, cm.disc_idx)
            out = dhmc_step(cm, st, eps, mass, order)
            end = out.state
            # stay clear of cell boundaries so the branch is stable
            if out.flips or out.diverged:
                continue
            if min(abs(end.theta[1] - k) for k in (1.0, 2.0, 3.0)) < 1e-3:
                continue
            if min(abs(theta[1] - k) for k in (1.0, 2.0, 3.0)) < 1e-3:
                continue

            back_start = PhaseState(end.theta, -end.p, cm.smooth_idx, cm.disc_idx)
            back = dhmc_step(cm, back_start, eps, mass, order[::-1]).state
            np.testing.assert_allclose(back.theta, theta, atol=1e-9)
            np.testing.assert_allclose(-back.p, p, atol=1e-9)

            def step_map(z):
                s = PhaseState(z[:2].copy(), z[2:].copy(),
                               cm.smooth_idx, cm.disc_idx)
                o = dhmc_step(cm, s, eps, mass, order).state
                return np.concatenate([o.theta, o.p])

            jac = fd_jacobian(step_map, np.concatenate([theta, p]))
            assert abs(np.linalg.det(jac) - 1.0) <= 1e-5
            checked += 1


def test_03_single_step_kernel_equals_gibbs():
    gt = GridTarget.from_probs(THREE_STATE)
    cfg_d = SamplerConfig(kernel="dhmc", eps_range=(0.3, 1.1), path_len=1,
                          n_warmup=0, n_samples=10**4)
    cfg_m = SamplerConfig(kernel="mwg", eps_range=(0.3, 1.1), n_warmup=0,
                          n_samples=10**4)
    with _criterion(3, "length-1 trajectories coincide with "
                       "Metropolis-within-Gibbs"):
        sd = run_chain(gt, np.array([2.5]), cfg_d, np.random.default_rng(403))
        sm = run_chain(gt, np.array([2.5]), cfg_m, np.random.default_rng(403))
        assert np.array_equal(sd.draws, sm.draws)
        for name in sd.trace.dtype.names:
            assert np.array_equal(sd.trace[name], sm.trace[name]), name


def test_04_stationary_distributions():
    with _criterion(4, "chains reproduce enumerated posteriors",
                    max_seconds=120):
        bt = BinomialNTarget(y=5, q=0.5, n_max=50)
        vals = bt.embeddings[0].values
        post = binom.pmf(5, vals, 0.5) / vals  # likelihood times the 1/N prior
        post /= post.sum()
        cfg = SamplerConfig(kernel="dhmc", n_warmup=1000, n_samples=10**5,
                            path_len=2, seed=101)
        st = run_chain(bt, None, cfg)
        dec = st.decoded_column(0).astype(int)
        freq = np.array([(dec == v).mean() for v in vals])
        assert 0.5 * np.abs(freq - post).sum() <= 0.02

        gt = GridTarget.from_probs(THREE_STATE)
        em = gt.axis_maps[0]
        for kernel, seed in [("dhmc", 102), ("mwg", 103), ("rwm", 104)]:
            cfg = SamplerConfig(kernel=kernel, n_warmup=1000, n_samples=10**5,
                                path_len=2, seed=seed)
            st = run_chain(gt, None, cfg)
            cells = em.decode(st.draws[:, 0]).astype(int) - 1
            freq = np.bincount(cells, minlength=3) / len(cells)
            tv = 0.5 * np.abs(freq - THREE_STATE).sum()
            assert tv <= 0.02, f"{kernel}: TV {tv:.4f}"


def test_05_error_order_scaling():
    g = GaussianTarget(dim=2, sd=(1.0, 1.3))
    mass2 = MassSpec(m_disc=np.array([]), diag_smooth=np.ones(2))
    empty_order = np.array([], dtype=np.intp)
    tau = 1.2
    eps_list = [0.2, 0.1, 0.05, 0.025]

    def leapfrog_step(model, state, eps, mass):
        # with an empty sweep the split step is exactly velocity Verlet
        return dhmc_step(model, state, eps, mass, empty_order)

    def end_error(stepper):
        errs = []
        for eps in eps_list:
            st = all_smooth_state([1.0, -0.5], [0.3, 0.7])
            h0 = hamiltonian(g, st, mass2)
            for _ in range(int(round(tau / eps))):
                st = stepper(g, st, eps, mass2).state
            errs.append(abs(hamiltonian(g, st, mass2) - h0))
        return np.polyfit(np.log(eps_list), np.log(errs), 1)[0]

    with _criterion(5, "energy error scales as stepsize squared, "
                       "with an order-one floor across a jump",
                    max_seconds=60):
        slope = end_error(leapfrog_step)
        assert 1.7 <= slope <= 2.3, f"split integrator (leapfrog) slope {slope:.2f}"

        # leapfrog across an undeclared jump: the error never shrinks
        ss = SmoothStep(edge=0.0, height=1.0)
        mass1 = MassSpec(m_disc=np.array([]), diag_smooth=np.ones(1))
        floors = []
        for eps in (0.1, 0.05, 0.025):
            st = all_smooth_state([0.0], [2.0])
            h0 = hamiltonian(ss, st, mass1)
            for _ in range(int(round(tau / eps))):
                st = leapfrog_step(ss, st, eps, mass1).state
            floors.append(abs(hamiltonian(ss, st, mass1) - h0))
        assert min(floors) >= 0.1


def test_06_ar1_efficiency_per_evaluation():
    model = Ar1Target(alpha=0.9, dim=100)
    ratios = []
    with _criterion(6, "Laplace-momentum trajectories beat coordinate "
                       "Metropolis threefold per evaluation",
                    max_seconds=600):
        for seed in range(4):
            # trajectory settings from a coarse pre-scan; both kernels get
            # the same potential-evaluation budget of about 4.3e6
            cfg_d = SamplerConfig(kernel="dhmc_coordwise", path_len=40,
                                  target_stat=0.7, n_warmup=200,
                                  n_samples=1136, tune_mass=False, seed=seed)
            sd = run_chain(model, None, cfg_d)
            rd = min_ess_report(sd)
            cfg_m = SamplerConfig(kernel="mwg", n_warmup=300, n_samples=43200,
                                  tune_mass=False, seed=1000 + seed)
            sm = run_chain(model, None, cfg_m)
            rm = min_ess_report(sm)
            assert abs(sd.potential_evals - sm.potential_evals) \
                <= 0.01 * sm.potential_evals
            ratios.append(rd.ess_per_eval / rm.ess_per_eval)
        mean_ratio = float(np.mean(ratios))
        assert mean_ratio >= 3.0, f"ratios {np.round(ratios, 2)}"


def test_07_stepsize_jitter_restores_ergodicity():
    gt = GridTarget.from_probs(THREE_STATE)
    with _criterion(7, "fixed stepsize confines the chain to a lattice, "
                       "jitter frees it",
                    max_seconds=10):
        fixed = SamplerConfig(kernel="mwg", eps_range=(0.5, 0.5),
                              tune_eps=False, n_warmup=0, n_samples=1000,
                              seed=86)
        st = run_chain(gt, np.array([1.5]), fixed)
        steps = (st.draws[:, 0] - 1.5) / 0.5
        assert (np.abs(steps - np.round(steps)) < 1e-9).all()

        jitter = SamplerConfig(kernel="mwg", eps_range=(0.4, 0.5),
                               tune_eps=False, n_warmup=0, n_samples=1000,
                               seed=86)
        st = run_chain(gt, np.array([1.5]), jitter)
        steps = (st.draws[:, 0] - 1.5) / 0.5
        off = np.abs(steps - np.round(steps)) >= 1e-9
        assert off.mean() >= 0.99


def test_08_flip_statistic_calibration():
    gt = GridTarget.from_probs(THREE_STATE)
    with _criterion(8, "flip statistic matches enumeration and tunes to "
                       "its target",
                    max_seconds=60):
        # with unit step over unit cells every proposal crosses one wall or
        # one neighbor, so the expected flip fraction enumerates exactly:
        #   0.2*(1 + 0)/2 + 0.5*((1-0.4) + (1-0.6))/2 + 0.3*(0 + 1)/2 = 0.5
        cfg = SamplerConfig(kernel="mwg", eps_range=(1.0, 1.0), tune_eps=False,
                            tune_mass=False, mass=MassSpec(m_disc=np.ones(1)),
                            n_warmup=500, n_samples=20000)
        st = run_chain(gt, np.array([1.5]), cfg, np.random.default_rng(140))
        flips = st.trace["flips"].astype(float)
        z = abs(flips.mean() - 0.5) / batch_se(flips)
        assert z <= 3.0, f"flip fraction {flips.mean():.4f}, z {z:.2f}"

        # stochastic-approximation warmup reaches the 0.8 target
        cfg_t = SamplerConfig(kernel="mwg", eps_range=(0.5, 0.5), tune_eps=True,
                              target_stat=0.8, tune_mass=False,
                              mass=MassSpec(m_disc=np.ones(1)),
                              n_warmup=2000, n_samples=0)
        st = run_chain(gt, np.array([2.5]), cfg_t, np.random.default_rng(141))
        warm = st.warmup_trace
        stats = 1.0 - warm["flips"] / warm["coord_updates"]
        tail = float(np.mean(stats[-500:]))
        assert 0.75 <= tail <= 0.85, f"late-warmup statistic {tail:.3f}"


def test_09_ess_estimator_calibration():
    def ar1_series(rng, n, rho):
        z = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = z[0]
        c = np.sqrt(1.0 - rho * rho)
        for t in range(1, n):
            x[t] = rho * x[t - 1] + c * z[t]
        return x

    with _criterion(9, "batch-means ESS calibrates on iid and "
                       "autocorrelated input",
                    max_seconds=30):
        # single estimates carry ~30% noise at 25 batches, so each check
        # averages ten fixed-seed replicates
        iid = np.mean([
            batch_means_ess(np.random.default_rng(s).standard_normal(10**5))
            for s in range(2718, 2728)]) / 10**5
        assert 0.8 <= iid <= 1.2, f"iid ESS/n {iid:.3f}"

        theory = 0.1 / 1.9  # (1 - rho) / (1 + rho) at rho = 0.9
        ratio = np.mean([
            batch_means_ess(ar1_series(np.random.default_rng(s), 10**5, 0.9))
            for s in range(314, 324)]) / 10**5 / theory
        assert 0.6 <= ratio <= 1.5, f"ar1 ratio {ratio:.3f}"


def test_10_hinge_loss_posterior_efficiency():
    model = build_model("gen_bayes", {"n": 300, "k": 40}, None, 21)
    with _criterion(10, "Laplace-momentum sampler beats equal-budget "
                        "random walk tenfold per draw",
                    max_seconds=900):
        cfg_d = SamplerConfig(kernel="dhmc_coordwise", path_len=11,
                              n_warmup=300, n_samples=1000, seed=7)
        sd = run_chain(model, None, cfg_d)
        rd = min_ess_report(sd)
        per100_d = 100 * rd.min_ess / sd.n_samples

        cfg_r = SamplerConfig(kernel="rwm", n_warmup=2000,
                              n_samples=int(sd.potential_evals), seed=8)
        sr = run_chain(model, None, cfg_r)
        rr = min_ess_report(sr)
        per100_r = 100 * rr.min_ess / sr.n_samples
        assert per100_d >= 10 * per100_r, \
            f"per-100-draw ESS {per100_d:.2f} vs {per100_r:.4f}"


def test_11_capture_recapture_correctness():
    with _criterion(11, "capture-recapture posterior: oracle agreement and "
                        "planted-truth recovery",
                    max_seconds=600):
        stats = JollySeberStats(u=[15, 4, 6], m=[0, 5, 7], R=[15, 9, 13],
                                r=[10, 6, 0], z=[0, 3, 0])
        target = JollySeberTarget(stats, n_max=200)
        rng = np.random.default_rng(411)
        for _ in range(100):
            theta = target.initial_theta(rng)
            theta[target.smooth_idx] += rng.uniform(-2.0, 2.0,
                                                    size=len(target.smooth_idx))
            want = _js_naive_potential(target, theta)
            got = target.potential(theta)
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want))

        model = build_model("jolly_seber", {}, None, 33)  # planted 0.4 / 0.85
        cfg = SamplerConfig(kernel="dhmc", path_len=8, n_warmup=400,
                            n_samples=900, seed=201)
        st = run_chain(model, None, cfg)
        assert st.divergences == 0
        for i, nm in enumerate(st.names):
            if nm.startswith("phi"):
                truth = 0.85
            elif nm.startswith("p"):
                truth = 0.4
            else:
                continue
            vals = 1.0 / (1.0 + np.exp(-st.draws[:, i]))
            z = abs(vals.mean() - truth) / vals.std()
            assert z <= 3.0, f"{nm}: mean {vals.mean():.3f}, z {z:.2f}"
