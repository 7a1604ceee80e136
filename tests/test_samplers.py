"""Transition kernels and the chain driver.

Covers configuration validation, the coupling between the split-integrator
kernel and Metropolis-within-Gibbs, reversibility and stationarity of the
transition laws, and the warmup adaptation in run_chain.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

from dhmc import (ConfigError, ContractError, MassSpec, PhaseState,
                  SamplerConfig, TargetModel, TuneState, adapt_stepsize,
                  run_chain, samplers)
from dhmc.embedding import EmbeddingMap
from dhmc.integrators import _sweep_tables
from dhmc.models.binomial import BinomialNTarget
from dhmc.models.simple import BananaTarget, GaussianTarget, GridTarget

from conftest import (CoupledMix, SmoothStep, WalledGaussian,
                      reference_dhmc_move, small_arch_cp, small_jolly_seber)


def three_state():
    return GridTarget.from_probs(np.array([0.2, 0.5, 0.3]))


# ------------------------------------------------------------- configuration


def test_config_validation():
    with pytest.raises(ConfigError, match="unknown kernel"):
        SamplerConfig(kernel="nuts")
    with pytest.raises(ConfigError, match="must be a .min, max. pair"):
        SamplerConfig(eps_range=0.5j)
    for bad in [(0.0, 1.0), (-1.0, 1.0), (0.5, 0.2), (0.1, np.inf)]:
        with pytest.raises(ConfigError, match="0 < min <= max"):
            SamplerConfig(eps_range=bad)
    with pytest.raises(ConfigError, match="path_len range"):
        SamplerConfig(path_len=(0, 3))
    with pytest.raises(ConfigError, match="path_len range"):
        SamplerConfig(path_len=(5, 3))
    with pytest.raises(ConfigError, match="path_len must be >= 1"):
        SamplerConfig(path_len=0)
    with pytest.raises(ConfigError, match="nonnegative"):
        SamplerConfig(n_samples=-1)
    with pytest.raises(ConfigError, match="target_stat"):
        SamplerConfig(target_stat=1.0)


def test_config_resolution():
    cfg = SamplerConfig()
    assert cfg.resolved_tune_eps() and cfg.resolved_tune_mass()
    assert cfg.resolved_target() == 0.8
    cfg = SamplerConfig(kernel="mwg", eps_range=(0.1, 0.2),
                        mass=MassSpec(m_disc=np.ones(1)))
    assert not cfg.resolved_tune_eps() and not cfg.resolved_tune_mass()
    assert cfg.resolved_target() == 0.44
    assert SamplerConfig(kernel="rwm").resolved_target() == 0.234
    assert SamplerConfig(target_stat=0.6).resolved_target() == 0.6
    # explicit flags override the "tune what was not given" default
    cfg = SamplerConfig(eps_range=(0.1, 0.2), tune_eps=True)
    assert cfg.resolved_tune_eps()
    # an explicit rwm proposal covariance is kept as given
    cfg = SamplerConfig(kernel="rwm", rwm_cov=np.ones(2), tune_mass=True)
    assert not cfg.resolved_tune_mass()


def test_path_len_jitter_window():
    assert SamplerConfig(path_len=1).path_len_range() == (1, 1)
    assert SamplerConfig(path_len=10).path_len_range() == (9, 10)
    assert SamplerConfig(path_len=27).path_len_range() == (25, 27)
    assert SamplerConfig(path_len=(4, 9)).path_len_range() == (4, 9)


def test_partition_requirements():
    # mwg sweeps every coordinate of any target; hmc refuses a discrete one
    g = GaussianTarget(dim=2)
    cfg = SamplerConfig(kernel="mwg", eps_range=(0.1, 0.2), n_warmup=0,
                        n_samples=3, seed=0)
    store = run_chain(g, np.zeros(2), cfg)
    assert (store.trace["coord_updates"] == 2).all()
    cfg = SamplerConfig(kernel="hmc", eps_range=(0.1, 0.2), n_samples=3)
    with pytest.raises(ConfigError, match="all-smooth"):
        run_chain(three_state(), np.array([1.5]), cfg)


# -------------------------------------------------- kernel-level mechanics


def test_pure_discontinuous_dhmc_is_rejection_free():
    emap = EmbeddingMap.uniform(0, 1)
    gt = GridTarget([emap, emap], np.log([[0.1, 0.4], [0.3, 0.2]]))
    idx = np.arange(2, dtype=np.intp)
    cfg = SamplerConfig(kernel="dhmc", eps_range=(0.2, 0.9), path_len=(2, 2),
                        n_warmup=0, n_samples=20)
    r1, r2 = np.random.default_rng(5), np.random.default_rng(5)
    tr = run_chain(gt, np.array([0.5, 1.5]), cfg, r1).trace
    assert tr["accepted"].all() and (tr["delta_H"] == 0.0).all()
    assert (tr["coord_updates"] == 4).all() and (tr["potential_evals"] == 4).all()
    for _ in range(20):
        # replicate the randomness by hand: stepsize, momenta, permutation,
        # and no acceptance draw at the end
        r2.uniform(0.2, 0.9)
        r2.laplace(0.0, np.ones(2))
        r2.permutation(idx)
    assert r1.uniform() == r2.uniform()


def test_single_step_dhmc_couples_with_mwg():
    bt = BinomialNTarget(y=5, q=0.5, n_max=50)
    th0 = bt.initial_theta(np.random.default_rng(0))
    cfg_d = SamplerConfig(kernel="dhmc", eps_range=(0.3, 1.1), path_len=1,
                          n_warmup=0, n_samples=500)
    cfg_m = SamplerConfig(kernel="mwg", eps_range=(0.3, 1.1), n_warmup=0,
                          n_samples=500)
    sd = run_chain(bt, th0.copy(), cfg_d, np.random.default_rng(87))
    sm = run_chain(bt, th0.copy(), cfg_m, np.random.default_rng(87))
    assert np.array_equal(sd.draws, sm.draws)
    for name in samplers.TRACE_DTYPE.names:
        assert np.array_equal(sd.trace[name], sm.trace[name]), name


def test_mwg_trace_shape():
    cfg = SamplerConfig(kernel="mwg", eps_range=(0.3, 0.6), n_warmup=0,
                        n_samples=1)
    store = run_chain(three_state(), np.array([2.5]), cfg,
                      np.random.default_rng(1))
    tr = store.trace[0]
    assert tr["accepted"] and tr["delta_H"] == 0.0
    assert tr["coord_updates"] == 1 and tr["path_len"] == 1


def test_rwm_zero_covariance_stays_put():
    g = GaussianTarget(dim=2)
    cfg = SamplerConfig(kernel="rwm", eps_range=(1.0, 1.0), rwm_cov=np.zeros(2),
                        n_warmup=0, n_samples=10)
    store = run_chain(g, np.array([0.3, -0.2]), cfg, np.random.default_rng(2))
    assert store.trace["accepted"].all() and (store.trace["delta_H"] == 0.0).all()
    assert (store.draws == [0.3, -0.2]).all()


def test_rwm_covariance_validation():
    g = GaussianTarget(dim=2)
    rng = np.random.default_rng(3)
    for cov, msg in [
        (np.array([1.0, -1.0]), "nonnegative"),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), "positive definite"),
        (np.ones((3, 3)), "shape"),
    ]:
        cfg = SamplerConfig(kernel="rwm", eps_range=(1.0, 1.0), rwm_cov=cov,
                            n_warmup=0, n_samples=1)
        with pytest.raises(ConfigError, match=msg):
            run_chain(g, np.zeros(2), cfg, rng)


def test_rwm_acceptance_at_reference_scale():
    # sd-2.4 proposals on a unit Gaussian sit near the classic 0.44 rate
    g = GaussianTarget(dim=1)
    cfg = SamplerConfig(kernel="rwm", eps_range=(2.4, 2.4), n_warmup=0,
                        n_samples=10**4)
    store = run_chain(g, np.zeros(1), cfg, np.random.default_rng(50))
    assert 0.35 <= store.acceptance_rate() <= 0.55


def test_hmc_small_step_acceptance_is_high():
    g = GaussianTarget(dim=1)
    cfg = SamplerConfig(kernel="hmc", eps_range=(0.1, 0.1), path_len=(16, 16),
                        n_warmup=0, n_samples=10**4)
    store = run_chain(g, np.zeros(1), cfg, np.random.default_rng(51))
    assert store.acceptance_rate() >= 0.95


def test_hmc_suffers_on_a_hidden_step():
    # same stepsize, but a potential with an undeclared jump: the order-one
    # energy error knocks the acceptance rate well below the smooth case
    ss = SmoothStep(edge=0.0, height=1.0)
    cfg = SamplerConfig(kernel="hmc", eps_range=(0.1, 0.1), path_len=(16, 16),
                        n_warmup=0, n_samples=4000)
    store = run_chain(ss, np.array([-0.5]), cfg, np.random.default_rng(52))
    assert store.acceptance_rate() <= 0.9


def test_hmc_eval_accounting():
    # the initial-point potential, the opening gradient, one gradient per
    # leapfrog step, then the trajectory's one closing potential
    g = GaussianTarget(dim=1)
    cfg = SamplerConfig(kernel="hmc", eps_range=(0.1, 0.1), path_len=(5, 5),
                        n_warmup=0, n_samples=1)
    store = run_chain(g, np.zeros(1), cfg, np.random.default_rng(4))
    assert store.warmup_evals + store.potential_evals == 2 + 5 + 1
    assert store.trace["path_len"][0] == 5


# ------------------------------------------- reversibility and stationarity


def test_detailed_balance_on_three_state_grid():
    gt = three_state()
    probs = np.array([0.2, 0.5, 0.3])
    emap = gt.axis_maps[0]
    for name, eps in [("mwg", (0.3, 1.6)), ("rwm", (0.8, 0.8))]:
        cfg = SamplerConfig(kernel=name, eps_range=eps, n_warmup=0, n_samples=1)
        rng = np.random.default_rng(60)
        counts = np.zeros((3, 3), dtype=int)
        for _ in range(10**5):
            th = float(1 + rng.choice(3, p=probs) + rng.uniform())
            new = run_chain(gt, np.array([th]), cfg, rng).draws[0, 0]
            c0, c1 = emap.cells([th, new])  # fails off the support
            counts[c0, c1] += 1
        for x in range(3):
            for y in range(x + 1, 3):
                tot = counts[x, y] + counts[y, x]
                assert abs(counts[x, y] - counts[y, x]) <= 4 * np.sqrt(max(tot, 1)), \
                    f"{name}: flow {x}->{y} unbalanced: {counts[x, y]} vs {counts[y, x]}"


@pytest.mark.parametrize("k", [1, 10, 50])
def test_grid_distribution_is_stationary(k):
    gt = three_state()
    probs = np.array([0.2, 0.5, 0.3])
    emap = gt.axis_maps[0]
    cfg = SamplerConfig(kernel="dhmc", eps_range=(0.2, 1.5), path_len=(1, 3),
                        n_warmup=0, n_samples=k)
    rng = np.random.default_rng(70 + k)
    cells = np.zeros(3, dtype=int)
    for _ in range(800):
        th = float(1 + rng.choice(3, p=probs) + rng.uniform())
        last = run_chain(gt, np.array([th]), cfg, rng).draws[-1, 0]
        (cell,) = emap.cells([last])  # fails off the support
        cells[cell] += 1
    assert sps.chisquare(cells, 800 * probs).pvalue > 0.01


def test_fixed_stepsize_confines_to_a_lattice():
    gt = three_state()
    fixed = SamplerConfig(kernel="mwg", eps_range=(0.5, 0.5), tune_eps=False,
                          n_warmup=0, n_samples=3000, seed=86)
    st = run_chain(gt, np.array([1.5]), fixed)
    steps = (st.draws[:, 0] - 1.5) / 0.5
    on_lattice = np.abs(steps - np.round(steps)) < 1e-9
    assert on_lattice.all()
    jitter = SamplerConfig(kernel="mwg", eps_range=(0.4, 0.5), tune_eps=False,
                           n_warmup=0, n_samples=3000, seed=86)
    st = run_chain(gt, np.array([1.5]), jitter)
    steps = (st.draws[:, 0] - 1.5) / 0.5
    on_lattice = np.abs(steps - np.round(steps)) < 1e-9
    assert on_lattice.mean() <= 0.01


# ------------------------------------------------------------------ run_chain


def test_run_chain_matches_manual_transition_loop():
    # 200 one-draw chains, each started at the last draw with the same rng,
    # retrace one 200-draw chain: no state but theta carries over
    cm = CoupledMix()
    mass = MassSpec(m_disc=np.array([1.0]), diag_smooth=np.array([1.0]))
    cfg = SamplerConfig(kernel="dhmc", eps_range=(0.2, 0.6), path_len=(2, 4),
                        mass=mass, n_warmup=0, n_samples=200, seed=88)
    store = run_chain(cm, np.array([0.5, 1.5]), cfg)
    rng = np.random.default_rng(88)
    one = replace(cfg, n_samples=1)
    theta = np.array([0.5, 1.5])
    manual = np.empty((200, 2))
    for i in range(200):
        theta = run_chain(cm, theta, one, rng).draws[0]
        manual[i] = theta
    assert np.array_equal(store.draws, manual)


def test_run_chain_is_reproducible_and_accepts_init_forms():
    cm = CoupledMix()
    cfg = SamplerConfig(kernel="dhmc", eps_range=(0.3, 0.5), n_warmup=20,
                        n_samples=50, seed=13)
    a = run_chain(cm, np.array([0.5, 1.5]), cfg)
    b = run_chain(cm, np.array([0.5, 1.5]), cfg)
    assert np.array_equal(a.draws, b.draws)
    ps = PhaseState(np.array([0.5, 1.5]), np.zeros(2), cm.smooth_idx, cm.disc_idx)
    c = run_chain(cm, ps, cfg)
    assert np.array_equal(a.draws, c.draws)
    d = run_chain(cm, None, cfg)  # starts from model.initial_theta instead
    assert np.array_equal(d.draws, run_chain(cm, None, cfg).draws)


def test_run_chain_init_validation():
    cm = CoupledMix()
    cfg = SamplerConfig(kernel="dhmc", eps_range=(0.3, 0.5), n_samples=5)
    with pytest.raises(ConfigError, match="shape"):
        run_chain(cm, np.zeros(3), cfg)
    # the only validation of the state: the moves then carry a bare theta
    with pytest.raises(ContractError, match="finite"):
        run_chain(cm, np.array([np.nan, 1.5]), cfg)
    with pytest.raises(ContractError, match="finite"):
        run_chain(cm, np.array([np.inf, 1.5]), cfg)
    gt = three_state()
    bad = SamplerConfig(kernel="mwg", eps_range=(0.3, 0.5), n_samples=5)
    with pytest.raises(ConfigError, match="non-finite potential"):
        run_chain(gt, np.array([9.0]), bad)
    with pytest.raises(ConfigError, match="eps_range is required"):
        SamplerConfig(kernel="dhmc", tune_eps=False, n_samples=5)


def test_run_chain_zero_samples():
    cfg = SamplerConfig(kernel="mwg", eps_range=(0.5, 0.5), n_warmup=3,
                        n_samples=0, seed=1)
    store = run_chain(three_state(), None, cfg)
    assert store.draws.shape == (0, 1)
    assert len(store.trace) == 0 and len(store.warmup_trace) == 3
    assert np.isnan(store.acceptance_rate())
    assert np.isnan(store.move_fraction())
    assert store.warmup_evals >= 4  # initial check plus one eval per sweep


def test_warmup_trace_replays_the_stepsize_search():
    n_warmup = 200
    cfg = SamplerConfig(kernel="mwg", n_warmup=n_warmup, n_samples=50, seed=9)
    store = run_chain(three_state(), None, cfg)
    assert len(store.warmup_trace) == n_warmup and len(store.trace) == 50
    # untuned runs start the search at eps 0.1
    ts = TuneState(log_eps=math.log(0.1), target_stat=cfg.resolved_target())
    for row in store.warmup_trace:
        ts = adapt_stepsize(ts, samplers._iteration_statistic(row))
    assert store.eps_range == (0.8 * ts.eps, ts.eps)
    assert store.potential_evals == store.trace["potential_evals"].sum()
    assert store.divergences == store.trace["diverged"].sum()
    assert store.warmup_evals == store.warmup_trace["potential_evals"].sum() + 1
    assert store.warmup_divergences == store.warmup_trace["diverged"].sum()


def test_run_chain_explicit_mass_is_kept():
    mass = MassSpec(m_disc=np.array([2.0]))
    cfg = SamplerConfig(kernel="mwg", eps_range=(0.5, 0.5), mass=mass,
                        n_warmup=100, n_samples=20, seed=2)
    store = run_chain(three_state(), None, cfg)
    assert store.mass is mass


def test_run_chain_warns_on_short_mass_warmup():
    cfg = SamplerConfig(kernel="mwg", eps_range=(0.5, 0.5), n_warmup=4,
                        n_samples=5, seed=3)
    store = run_chain(three_state(), None, cfg)
    assert "too few warmup draws to re-estimate masses" in store.warnings


def test_run_chain_two_seeds_agree_and_match_cell_weights():
    cm = CoupledMix()
    w = cm.cell_weights()
    means = []
    for seed in (83, 84):
        cfg = SamplerConfig(kernel="dhmc", n_warmup=800, n_samples=6000,
                            path_len=3, seed=seed)
        st = run_chain(cm, None, cfg)
        assert st.divergences == 0
        means.append(st.draws[:, 0].mean())
        assert abs(means[-1]) <= 0.05
        cells = st.decoded_column(1)
        freq = np.array([(cells == v).mean() for v in st.embeddings[1].values])
        assert 0.5 * np.abs(freq - w).sum() <= 0.03
    assert abs(means[0] - means[1]) <= 0.05


def test_adaptation_finds_the_target_statistic():
    # tune on the quantized Gaussian, then freeze the adapted stepsize and
    # masses and measure the long-run move fraction at that exact point
    bt = BananaTarget()
    tuned = run_chain(bt, None, SamplerConfig(kernel="mwg", n_warmup=2000,
                                              n_samples=2000, seed=80))
    lo, hi = tuned.eps_range
    assert lo == pytest.approx(0.8 * hi)
    frozen = SamplerConfig(kernel="mwg", eps_range=(hi, hi), mass=tuned.mass,
                           tune_eps=False, tune_mass=False, n_warmup=200,
                           n_samples=5000, seed=81)
    stat = run_chain(bt, None, frozen).move_fraction()
    assert abs(stat - 0.44) <= 0.08


def test_adaptation_mixed_target_tracks_both_statistics():
    cm = CoupledMix()
    tuned = run_chain(cm, None, SamplerConfig(kernel="dhmc", n_warmup=2000,
                                              n_samples=1500, path_len=3, seed=81))
    hi = tuned.eps_range[1]
    frozen = SamplerConfig(kernel="dhmc", eps_range=(hi, hi), mass=tuned.mass,
                           tune_eps=False, tune_mass=False, path_len=3,
                           n_warmup=200, n_samples=5000, seed=82)
    st = run_chain(cm, None, frozen)
    stat = min(st.acceptance_rate(), st.move_fraction())
    assert abs(stat - 0.8) <= 0.08


def test_warmup_mass_estimate_recovers_scales():
    g = GaussianTarget(dim=2, sd=(1.0, 3.0))
    cfg = SamplerConfig(kernel="hmc", n_warmup=1200, n_samples=10,
                        path_len=8, seed=82)
    store = run_chain(g, None, cfg)
    np.testing.assert_allclose(store.mass.diag_smooth, [1.0, 1.0 / 9.0], rtol=0.3)


def test_run_chain_counts_divergences_and_stays_in_support():
    wg = WalledGaussian(bound=2.0)
    cfg = SamplerConfig(kernel="hmc", eps_range=(1.5, 1.5), path_len=(8, 8),
                        n_warmup=0, n_samples=400, seed=85, tune_eps=False)
    store = run_chain(wg, np.array([0.0]), cfg)
    assert store.divergences > 0
    assert np.isfinite(store.draws).all()
    assert np.abs(store.draws).max() < 2.0
    diverged = store.trace[store.trace["diverged"]]
    assert len(diverged) == store.divergences
    assert not diverged["accepted"].any()


def test_store_decodes_embedded_columns():
    cm = CoupledMix()
    cfg = SamplerConfig(kernel="dhmc", eps_range=(0.3, 0.6), n_warmup=10,
                        n_samples=40, seed=6)
    store = run_chain(cm, None, cfg)
    emap = store.embeddings[1]
    np.testing.assert_array_equal(store.decoded_column(1),
                                  emap.decode(store.draws[:, 1]).astype(float))
    np.testing.assert_array_equal(store.decoded_column(0), store.draws[:, 0])
    assert store.n_samples == 40 and store.draws.shape == (40, 2)


# ------------------------------------------------------- the trajectory core


class Counted(TargetModel):
    """Delegating wrapper that counts model calls by kind.

    A diff asked for a coordinate outside the inner ``diff_idx`` raises.
    """

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.name = inner.name
        self.embeddings = inner.embeddings
        self.calls = {"potential": 0, "potential_diff": 0, "grad_smooth": 0}
        if inner.potential_diff is not None:
            self.potential_diff = self._diff
        self._covered = set(np.asarray(inner.diff_idx).tolist())

    @property
    def smooth_idx(self):
        return self.inner.smooth_idx

    @property
    def disc_idx(self):
        return self.inner.disc_idx

    @property
    def diff_idx(self):
        return self.inner.diff_idx

    def initial_theta(self, rng):
        return self.inner.initial_theta(rng)

    def potential(self, theta):
        self.calls["potential"] += 1
        return self.inner.potential(theta)

    def grad_smooth(self, theta):
        g = self.inner.grad_smooth(theta)
        self.calls["grad_smooth"] += 1  # a call that raised is not counted
        return g

    def _diff(self, theta, j, value):
        if j not in self._covered:
            raise AssertionError(f"diff asked for coordinate {j}, outside "
                                 "diff_idx")
        self.calls["potential_diff"] += 1
        return self.inner.potential_diff(theta, j, value)


def _count_own_potentials(model):
    """Count every ``potential`` call of ``model``, also those its own code
    makes, by wrapping the instance attribute; returns the list of calls."""
    full = model.potential
    seen = []

    def potential(theta):
        seen.append(1)
        return full(theta)

    model.potential = potential
    return seen


_CORE_TARGETS = {"mixed": CoupledMix, "smooth": lambda: GaussianTarget(dim=2),
                 "disc": three_state, "jolly_seber": small_jolly_seber,
                 "arch_cp": small_arch_cp}


@pytest.mark.parametrize("target", sorted(_CORE_TARGETS))
def test_eval_counters_match_model_calls(target):
    # the counters are cost-true: a potential the model evaluates inside its
    # own potential_diff is a call too
    for kernel in ("dhmc", "dhmc_coordwise", "hmc", "mwg", "rwm"):
        inner = _CORE_TARGETS[target]()
        all_potentials = _count_own_potentials(inner)
        model = Counted(inner)
        if kernel == "hmc" and len(model.disc_idx):
            continue
        cfg = SamplerConfig(kernel=kernel, path_len=4, n_warmup=40,
                            n_samples=40, seed=17)
        store = run_chain(model, None, cfg)
        calls = dict(model.calls, potential=len(all_potentials))
        assert sum(calls.values()) == \
            store.potential_evals + store.warmup_evals, (kernel, calls)


def test_split_step_carries_its_closing_gradient():
    # one gradient per step plus the opening one of each trajectory
    model = Counted(CoupledMix())
    cfg = SamplerConfig(kernel="dhmc", eps_range=(0.3, 0.6), path_len=(2, 5),
                        n_warmup=0, n_samples=60, tune_eps=False,
                        tune_mass=False, seed=23)
    store = run_chain(model, None, cfg)
    assert store.divergences == 0
    steps = int(store.trace["path_len"].sum())
    assert model.calls["grad_smooth"] == steps + cfg.n_samples


def test_split_trajectory_makes_one_potential_call():
    # the closing potential of each trajectory, plus the initial-point
    # check: the steps in between call only grad_smooth
    model = Counted(CoupledMix())
    cfg = SamplerConfig(kernel="dhmc", eps_range=(0.3, 0.6), path_len=(2, 5),
                        n_warmup=0, n_samples=60, tune_eps=False,
                        tune_mass=False, seed=23)
    store = run_chain(model, None, cfg)
    assert store.divergences == 0
    assert model.calls["potential"] == 1 + cfg.n_samples


def test_arch_cp_change_point_update_is_one_diff_call():
    # each tau update of a dhmc sweep is one potential_diff call, and that
    # call evaluates no potential of its own
    arch = small_arch_cp()
    all_potentials = _count_own_potentials(arch)
    model = Counted(arch)
    cfg = SamplerConfig(kernel="dhmc", eps_range=(0.05, 0.1), path_len=(2, 5),
                        n_warmup=0, n_samples=40, tune_eps=False,
                        tune_mass=False, seed=41)
    store = run_chain(model, None, cfg)
    assert store.divergences == 0
    steps = int(store.trace["path_len"].sum())
    assert model.calls["potential_diff"] == arch.k_max * steps
    # the initial-point check, then one closing potential per trajectory
    assert model.calls["potential"] == 1 + cfg.n_samples
    assert len(all_potentials) == model.calls["potential"]


@pytest.mark.parametrize("make", [small_jolly_seber, small_arch_cp],
                         ids=["jolly_seber", "arch_cp"])
def test_one_closing_potential_moves_as_a_potential_after_every_step(make):
    # Large steps leave the support in the middle of trajectories.  There the
    # reference's potential is +inf and the move's gradient raises; either
    # way the trajectory diverges at the same step, with the same random
    # draws.  Only potential_evals differs: the reference calls potential at
    # every step end, the move once after the last step and not at all
    # after a divergence, whose raising gradient it does not count.
    model = make()
    smooth, disc = model.smooth_idx, model.disc_idx
    mass = MassSpec.unit(len(smooth), len(disc))
    tables = _sweep_tables(model, mass, disc, model.dim)
    evals = samplers.TRACE_DTYPE.names.index("potential_evals")
    early = late = 0
    for seed in range(30):
        theta = model.initial_theta(np.random.default_rng(seed))
        u = model.potential(theta)
        rng, ref_rng = (np.random.default_rng(100 + seed) for _ in range(2))
        for _ in range(5):
            args = ((0.05, 1.5), (6, 12), mass)
            new, row, u_new = samplers._dhmc_move(
                model, theta, smooth, disc, rng, *args, tables, u)
            ref, ref_row, ref_u, steps = reference_dhmc_move(
                model, theta, ref_rng, *args, u)
            assert new.tobytes() == ref.tobytes()
            assert u_new == ref_u
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            for i, (got, want) in enumerate(zip(row, ref_row)):
                if i != evals:
                    assert got == want, samplers.TRACE_DTYPE.names[i]
            diverged = ref_row[-1]
            assert row[evals] == ref_row[evals] - steps + (not diverged)
            early += diverged and steps < ref_row[6]
            late += diverged and steps == ref_row[6]
            theta, u = new, u_new
    assert early >= 5 and late >= 1


class _SilentWall(WalledGaussian):
    """A wall that the gradient does not signal, against the contract."""

    def grad_smooth(self, theta):
        return np.array([theta[0]])


def test_closing_potential_catches_an_end_the_gradient_missed():
    # Steps past the wall go on; the trajectory's one closing potential
    # marks those that end there divergent, and the draws stay inside.
    model = Counted(_SilentWall(bound=2.0))
    cfg = SamplerConfig(kernel="hmc", eps_range=(1.5, 1.5), path_len=(8, 8),
                        n_warmup=0, n_samples=400, seed=85, tune_eps=False)
    store = run_chain(model, np.array([0.0]), cfg)
    assert store.divergences > 0
    assert np.abs(store.draws).max() < 2.0
    assert not store.trace[store.trace["diverged"]]["accepted"].any()
    assert model.calls["potential"] == 1 + cfg.n_samples


def test_dhmc_on_an_all_smooth_target_is_hmc():
    g = GaussianTarget(dim=3, sd=(1.0, 2.0, 0.5))
    stores = [run_chain(g, None, SamplerConfig(kernel=k, path_len=5,
                                               n_warmup=60, n_samples=80,
                                               seed=29))
              for k in ("dhmc", "hmc")]
    np.testing.assert_array_equal(stores[0].draws, stores[1].draws)
    assert stores[0].potential_evals == stores[1].potential_evals
    assert np.array_equal(stores[0].trace["delta_H"], stores[1].trace["delta_H"])


@pytest.mark.parametrize("kernel,target", [
    ("dhmc", CoupledMix), ("dhmc_coordwise", CoupledMix), ("mwg", three_state),
    ("hmc", lambda: GaussianTarget(dim=2)), ("rwm", CoupledMix)])
def test_cached_potential_is_none_or_exact(kernel, target, monkeypatch):
    model = target()
    seen = []

    def checked(move):
        def wrapped(model_, theta, *args):
            before = theta.copy()
            new, trace, u = move(model_, theta, *args)
            assert np.array_equal(theta, before)  # the input is never written
            if u is not None:
                ref = model.potential(new)
                assert abs(u - ref) <= 1e-12 * max(1.0, abs(ref))
            seen.append(u)
            return new, trace, u
        return wrapped

    for name in ("_dhmc_move", "_rwm_move"):
        monkeypatch.setattr(samplers, name, checked(getattr(samplers, name)))
    cfg = SamplerConfig(kernel=kernel, path_len=3, n_warmup=30, n_samples=60,
                        seed=31)
    run_chain(model, None, cfg)
    assert len(seen) == 90


@pytest.mark.parametrize("kernel", ["dhmc", "dhmc_coordwise", "mwg"])
@pytest.mark.parametrize("make", [CoupledMix, small_jolly_seber],
                         ids=["coupled_mix", "jolly_seber"])
def test_sweep_tables_follow_the_mass(make, kernel, monkeypatch):
    # run_chain builds the tables once and again at the mass update; every
    # move must get the tables of the mass it runs with
    model = make()
    move = samplers._dhmc_move
    masses = []

    def checked(model_, theta, smooth, disc, rng, eps_range, path_range, mass,
                tables, u_current):
        want = _sweep_tables(model_, mass, disc, model_.dim)
        for got_col, want_col in zip(tables, want, strict=True):
            np.testing.assert_array_equal(got_col, want_col)
        if not masses or masses[-1] is not mass:
            masses.append(mass)
        return move(model_, theta, smooth, disc, rng, eps_range, path_range,
                    mass, tables, u_current)

    monkeypatch.setattr(samplers, "_dhmc_move", checked)
    cfg = SamplerConfig(kernel=kernel, path_len=2, n_warmup=40, n_samples=10,
                        seed=47)
    store = run_chain(model, None, cfg)
    assert len(masses) == 2  # the unit start, then the warmup estimate
    assert store.mass is masses[-1]
    assert not np.array_equal(masses[0].m_disc, masses[1].m_disc)


def test_run_chain_leaves_the_model_index_arrays_writable():
    # PhaseState copies the partition it freezes, as it copies theta and p
    model = small_jolly_seber()
    idx = (model.smooth_idx, model.disc_idx)
    assert all(arr.flags.writeable for arr in idx)
    run_chain(model, None, SamplerConfig(n_warmup=4, n_samples=2, seed=5))
    st = PhaseState(model.initial_theta(np.random.default_rng(0)),
                    np.zeros(model.dim), *idx)
    assert all(arr.flags.writeable for arr in idx)
    assert not any(arr.flags.writeable for arr in (st.smooth_idx, st.disc_idx))
