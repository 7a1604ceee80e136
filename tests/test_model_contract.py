"""The TargetModel contract, checked on every bundled model.

- ``potential_diff`` agrees with ``potential(new) - potential(old)`` at every
  update of real ``dhmc`` and ``dhmc_coordwise`` chains, and at hand-built
  support edges;
- ``potential_diff`` is a pure function of its arguments;
- ``grad_smooth`` matches central finite differences;
- a proposed value off the support gives ``+inf`` from both the
  ``potential`` and the ``potential_diff`` path, never an exception or NaN;
- with the smooth block anywhere, as the split step's half drift leaves it,
  ``potential_diff`` is ``+inf`` or finite and raises nothing;
- ``grad_smooth`` is finite wherever the potential is finite and raises
  ``OutOfSupportError`` wherever it is ``+inf``, without a warning: at the
  step ends of real trajectories that leave the support and at far
  smooth-block probes.
"""

import math
import warnings

import numpy as np
import pytest

from dhmc import (ContractError, MassSpec, OutOfSupportError, SamplerConfig,
                  run_chain)
from dhmc.embedding import EmbeddingMap
from dhmc.models import build_model
from dhmc.models.jolly_seber import JollySeberStats, JollySeberTarget
from dhmc.models.simple import GridTarget

from conftest import (fd_grad, reference_dhmc_move, small_arch_cp,
                      small_jolly_seber)


def _grid():
    # a 3 x 4 table with one zero-mass cell, one axis on log knots
    log_mass = np.log(np.arange(1.0, 13.0)).reshape(3, 4)
    log_mass[2, 1] = -np.inf
    return GridTarget([EmbeddingMap.uniform(0, 2), EmbeddingMap.logarithmic(1, 4)],
                      log_mass)


MODELS = {
    "gaussian": lambda: build_model("gaussian", {"dim": 3, "mean": 0.5,
                                                 "sd": [1.0, 2.0, 0.5]}),
    "pmf": lambda: build_model("pmf"),
    "grid": _grid,
    "banana": lambda: build_model("banana"),
    "binomial_n": lambda: build_model("binomial_n", {"n_max": 30}),
    "ar1": lambda: build_model("ar1", {"dim": 6}),
    "gen_bayes": lambda: build_model("gen_bayes", {"n": 40, "k": 5},
                                     synth_seed=1),
    "jolly_seber": small_jolly_seber,
    "arch_cp": small_arch_cp,
}
WITH_DIFF = [n for n, make in MODELS.items() if make().potential_diff is not None]
WITH_SMOOTH = [n for n, make in MODELS.items() if len(make().smooth_idx)]


def assert_diff_matches(model, theta, j, value, got):
    """``got`` equals the two-potential reference, ``+inf`` exactly when it is.

    Where the smooth block of ``theta`` lies off the support, the contract
    asks only for ``+inf`` or a finite value.
    """
    old = model.potential(theta)
    if old == math.inf:
        assert got == math.inf or math.isfinite(got), (j, value, got)
        return
    assert math.isfinite(old)
    moved = theta.copy()
    moved[j] = value
    new = model.potential(moved)
    want = new - old
    if want == math.inf:
        assert got == math.inf, (j, value, got)
    else:
        assert math.isfinite(got), (j, value, got, want)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(old), abs(new)), \
            (j, value, got, want)


def _walk(model, kernel, seed, n_warmup=30, n_samples=60):
    cfg = SamplerConfig(kernel=kernel, path_len=8, n_warmup=n_warmup,
                        n_samples=n_samples, seed=seed)
    return run_chain(model, None, cfg)


# -------------------------------------------------------------- partition


@pytest.mark.parametrize("name", MODELS)
def test_partition_covers_every_coordinate_once(name):
    model = MODELS[name]()
    smooth, disc = model.smooth_idx, model.disc_idx
    for block in (smooth, disc):
        assert block.ndim == 1 and block.dtype == np.intp
    assert sorted(smooth.tolist() + disc.tolist()) == list(range(model.dim))
    assert set(np.asarray(model.diff_idx).tolist()) <= set(range(model.dim))
    # a model declares its non-empty block(s); the other stays empty
    for block in (smooth, disc):
        if not len(block):
            assert not block.flags.writeable


@pytest.mark.parametrize("name", WITH_DIFF)
def test_diff_outside_diff_idx_is_a_contract_error(name):
    model = MODELS[name]()
    theta = model.initial_theta(np.random.default_rng(1))
    covered = set(np.asarray(model.diff_idx).tolist())
    for j in sorted(set(range(model.dim)) - covered):
        with pytest.raises(ContractError, match=rf"coordinate {j}\b"):
            model.potential_diff(theta, j, theta[j] + 0.3)


# ------------------------------------------------- diffs along trajectories


@pytest.mark.parametrize("name", WITH_DIFF)
def test_potential_diff_agrees_along_trajectories(name):
    checked = 0
    for kernel in ("dhmc", "dhmc_coordwise"):
        model = MODELS[name]()
        diff = model.potential_diff

        def checked_diff(theta, j, value):
            nonlocal checked
            got = diff(theta, j, value)
            assert_diff_matches(model, theta, j, value, got)
            checked += 1
            return got

        model.potential_diff = checked_diff
        _walk(model, kernel, seed=13)
    assert checked >= 1000


def _arch_at(model, taus):
    theta = model.initial_theta(np.random.default_rng(2))
    for k, tau in enumerate(taus):
        theta[model._n_smooth + k] = model.tau_map.embed_center(tau)
    assert math.isfinite(model.potential(theta))
    return theta


def test_arch_cp_diff_at_support_edges():
    model = MODELS["arch_cp"]()
    T, first = model.T, model._n_smooth
    knots = model.tau_map.knots

    theta = _arch_at(model, [2, T - 1])
    cases = [
        (first, knots[0] - 0.5, math.inf),      # tau_1 below 2
        (first, knots[0], math.inf),            # the left knot is open
        (first, theta[first] + 1.0, None),      # 2 -> 3
        (first + 1, knots[-1] + 0.5, math.inf),  # tau_2 past T - 1
        (first + 1, knots[-1], 0.0),            # right knot closes cell T - 1
        (first + 1, theta[first + 1] - 1.0, None),  # T - 1 -> T - 2
        (first, theta[first] + 30.0, None),     # a long move: 2 -> 32
    ]
    theta_nb = _arch_at(model, [10, 11])
    cases_nb = [
        (first, theta_nb[first] + 1.0, math.inf),      # onto tau_2
        (first, theta_nb[first] + 5.0, math.inf),      # past tau_2
        (first + 1, theta_nb[first + 1] - 1.0, math.inf),  # onto tau_1
        (first + 1, theta_nb[first + 1] - 3.0, math.inf),  # past tau_1
        (first, theta_nb[first] - 1.0, None),
        (first + 1, theta_nb[first + 1] + 20.0, None),
    ]
    for th, group in ((theta, cases), (theta_nb, cases_nb)):
        for j, value, want in group:
            got = model.potential_diff(th, j, value)
            assert_diff_matches(model, th, j, value, got)
            if want is not None:
                assert got == want, (j, value, got)


def test_arch_cp_middle_change_point_meets_both_neighbours():
    model = build_model("arch_cp", {"T": 40, "k_max": 3}, synth_seed=3)
    j = model._n_smooth + 1
    theta = _arch_at(model, [10, 12, 14])
    for step, finite in ((-2.0, False), (-1.0, True), (1.0, True),
                         (2.0, False), (9.0, False)):
        got = model.potential_diff(theta, j, theta[j] + step)
        assert_diff_matches(model, theta, j, theta[j] + step, got)
        assert math.isfinite(got) == finite, (step, got)


def test_jolly_seber_diff_at_support_edges():
    model = MODELS["jolly_seber"]()
    T = model.T
    first = 2 * T - 1
    for i, emap in enumerate(model.emaps):  # the first, middle and last count
        j = first + i
        # the log-odds the terms of U_{i+1} read: p_{i+1}, phi_i, phi_{i+1}
        logits = [i] + [T + k for k in (i - 1, i) if 0 <= k < T - 1]
        for at, logit in [(None, None)] + [
                (at, logit) for at in logits
                for logit in (30.0, -30.0, 750.0, -750.0)]:
            theta = model.initial_theta(np.random.default_rng(i))
            if at is not None:
                theta[at] = logit
            theta[j] = emap.embed_center(emap.lo)
            for value, finite in ((emap.knots[0], False),
                                  (emap.knots[0] - 0.3, False),
                                  (emap.embed_center(emap.lo + 1), True),
                                  (emap.embed_center(emap.lo + 40), True)):
                got = model.potential_diff(theta, j, value)
                assert_diff_matches(model, theta, j, value, got)
                assert math.isfinite(got) == finite, (at, logit, value, got)
            theta[j] = emap.embed_center(model.n_max)
            for value, finite in ((emap.knots[-1] + 0.01, False),
                                  (emap.knots[-1], True),
                                  (emap.embed_center(model.n_max - 1), True),
                                  (emap.embed_center(emap.lo), True)):
                got = model.potential_diff(theta, j, value)
                assert_diff_matches(model, theta, j, value, got)
                assert math.isfinite(got) == finite, (at, logit, value, got)


# ----------------------------------------------------------------- purity


@pytest.mark.parametrize("name", ["gaussian", "ar1", "jolly_seber", "arch_cp"])
def test_potential_diff_is_pure(name):
    model = MODELS[name]()
    rng = np.random.default_rng(4)
    theta = model.initial_theta(rng)
    theta.setflags(write=False)  # any write to theta raises
    other = model.initial_theta(rng)
    other[model.smooth_idx] += 0.3
    for j in model.diff_idx:
        for step in (-0.9, -0.2, 0.4, 3.0, 40.0):
            first = model.potential_diff(theta, j, theta[j] + step)
            model.potential(other)
            model.grad_smooth(other)
            model.potential_diff(other, j, other[j] - step)
            again = model.potential_diff(theta, j, theta[j] + step)
            assert first == again, (j, step, first, again)


# ------------------------------------------------------ gradient contract


@pytest.mark.parametrize("name", WITH_SMOOTH)
def test_grad_smooth_matches_finite_differences(name):
    model = MODELS[name]()
    smooth = model.smooth_idx
    store = _walk(model, "dhmc", seed=5, n_warmup=20, n_samples=30)
    points = [model.initial_theta(np.random.default_rng(0))]
    points += [store.draws[i] for i in (9, 19, 29)]
    for theta in points:

        def on_smooth(v, theta=theta):
            t = theta.copy()
            t[smooth] = v
            return model.potential(t)

        fd = fd_grad(on_smooth, theta[smooth])
        np.testing.assert_allclose(model.grad_smooth(theta), fd,
                                   rtol=1e-6, atol=1e-5)


def assert_grad_keeps_the_contract(model, theta):
    """A finite gradient where the potential is finite, ``OutOfSupportError``
    where it is +inf, and no warning from either; returns whether theta is
    on the support."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = model.potential(theta)
        if u == math.inf:
            with pytest.raises(OutOfSupportError):
                model.grad_smooth(theta)
            return False
        assert math.isfinite(u), u
        g = model.grad_smooth(theta)
        assert np.all(np.isfinite(g)), (theta, g)
        return True


def _far_smooth_points(model, rng):
    """The smooth block at +-750, where exp overflows, and at +-1e160, where
    a square overflows: all positive, all negative and mixed signs."""
    smooth = model.smooth_idx
    signs = (np.ones(len(smooth)), -np.ones(len(smooth)),
             rng.choice([-1.0, 1.0], len(smooth)))
    points = []
    for scale in (750.0, 1e160):
        for sign in signs:
            theta = model.initial_theta(rng)
            theta[smooth] = scale * sign
            points.append(theta)
    return points


@pytest.mark.parametrize("name", WITH_SMOOTH)
def test_grad_smooth_keeps_the_contract_along_trajectories(name):
    # Steps of up to 1.5 take jolly_seber and arch_cp off the support in the
    # middle of trajectories; every step end of a loop that calls potential
    # after each step is checked, up to the first one off the support.
    model = MODELS[name]()
    mass = MassSpec.unit(len(model.smooth_idx), len(model.disc_idx))
    ends = []
    for seed in range(20):
        theta = model.initial_theta(np.random.default_rng(seed))
        u = model.potential(theta)
        rng = np.random.default_rng(100 + seed)
        for _ in range(5):
            theta, _, u, _ = reference_dhmc_move(
                model, theta, rng, (0.05, 1.5), (6, 12), mass, u, ends)
    off = [assert_grad_keeps_the_contract(model, theta)
           for theta in ends].count(False)
    assert off == 0 if name in ("gaussian", "ar1") else off >= 20
    far = _far_smooth_points(model, np.random.default_rng(6))
    on = [assert_grad_keeps_the_contract(model, theta) for theta in far]
    assert on == _FAR_ON_SUPPORT.get(name, [True] * 3 + [False] * 3)


# Where the far probes lie: the quadratic potentials of gaussian and ar1
# overflow at +-1e160, arch_cp's levels overflow at every probe, and
# jolly_seber is on the support only with every p and phi rounded to 0.
_FAR_ON_SUPPORT = {"arch_cp": [False] * 6,
                   "jolly_seber": [False, True, False] * 2}


# --------------------------------------------------- off-support proposals


def _off_support(name, model, theta):
    """(j, value) pairs that move an in-support theta off the support."""
    if name in ("pmf", "binomial_n"):
        knots = model.embeddings[0].knots
        return [(0, knots[0]), (0, knots[0] - 2.0), (0, knots[-1] + 0.5)]
    if name == "grid":
        ax0, ax1 = model.axis_maps
        return [(0, ax0.knots[-1] + 0.5), (1, ax1.knots[0] - 0.1),
                (1, ax1.embed_center(2))]  # into the zero-mass cell
    if name == "jolly_seber":
        first = 2 * model.T - 1
        return [(first + i, x) for i, em in enumerate(model.emaps)
                for x in (em.knots[0], em.knots[-1] + 0.5)]
    if name == "arch_cp":
        first = model._n_smooth
        knots = model.tau_map.knots
        log_sigma_a = 4 * model.k_max + 2
        return [(first, knots[0] - 1.0), (first + 1, knots[-1] + 0.5),
                (first, theta[first + 1]),  # onto the next change point
                (first + 1, theta[first] - 1.0),  # past the previous one
                # exp(800) overflows a float: a scale beyond the float range
                (log_sigma_a, 800.0), (log_sigma_a + 1, 800.0)]
    raise KeyError(name)


BOUNDED = ["pmf", "grid", "binomial_n", "jolly_seber", "arch_cp"]


@pytest.mark.parametrize("name", BOUNDED)
def test_off_support_is_inf_on_both_paths(name):
    model = MODELS[name]()
    theta = model.initial_theta(np.random.default_rng(1))
    if name == "grid":
        theta = np.array([model.axis_maps[0].embed_center(2),
                          model.axis_maps[1].embed_center(4)])
    assert math.isfinite(model.potential(theta))
    covered = set(np.asarray(model.diff_idx).tolist())
    for j, value in _off_support(name, model, theta):
        moved = theta.copy()
        moved[j] = value
        assert model.potential(moved) == np.inf, (j, value)
        if j in covered:
            assert model.potential_diff(theta, j, value) == np.inf, (j, value)


def test_arch_cp_gradient_at_an_overflowing_scale_is_a_contract_error():
    model = small_arch_cp()
    theta = model.initial_theta(np.random.default_rng(1))
    theta[4 * model.k_max + 3] = 800.0  # log_sigma_b
    assert model.potential(theta) == np.inf
    with pytest.raises(OutOfSupportError, match="off support"):
        model.grad_smooth(theta)


def test_arch_cp_gradient_where_a_variance_vanishes_is_a_contract_error():
    model = build_model("arch_cp", {}, None, 0)
    theta = model.initial_theta(np.random.default_rng(0))
    theta[0] = theta[1] = -800.0  # both first-segment levels round to 0
    assert model.potential(theta) == np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfSupportError, match="off support"):
            model.grad_smooth(theta)


@pytest.mark.parametrize("a, on", [
    (math.exp(-360.0), False),  # squares to a subnormal
    (2e-154, False),  # squares to a normal 4e-308, but y_t^2 / 4e-308 overflows
    (math.exp(-340.0), True),
])
def test_arch_cp_variance_below_its_floor_is_off_the_support(a, on):
    # b = e^-800 rounds to 0, so every variance is the level a.  Below the
    # floor the gradient would overflow: the parent gave a finite potential
    # there and a gradient of -inf or NaN.
    model = build_model("arch_cp", {}, None, 0)
    theta = model.initial_theta(np.random.default_rng(0))
    theta[0], theta[1] = math.log(a), -800.0
    theta[2:2 + model.k_max] = 0.0  # every segment at the level a
    assert assert_grad_keeps_the_contract(model, theta) == on


def test_arch_cp_diff_into_a_variance_below_its_floor_is_inf():
    # Segment 1 gets a level a of e^-360 and a b that keeps the variances of
    # its own two times above twice the floor, but not that of the time
    # t = tau_1 that a move of tau_1 down by one hands it, whose y_{t-1}^2
    # is smaller.
    model = small_arch_cp()
    K, first = model.k_max, model._n_smooth
    ylag2 = model._ylag2  # index i holds t = i + 2
    tau1 = next(t for t in range(3, model.T - 3)
                if 4.0 * ylag2[t - 2] < min(ylag2[t - 1], ylag2[t]))
    theta = _arch_at(model, [tau1, tau1 + 2])
    floor = math.sqrt(model._var2_floor)
    lb1 = math.log(floor / math.sqrt(ylag2[tau1 - 2]
                                     * min(ylag2[tau1 - 1], ylag2[tau1])))
    theta[0], theta[1] = 0.0, 0.0
    theta[2:2 + K] = [-360.0, 360.0]           # da: segment 1 only
    theta[2 + K:2 + 2 * K] = [lb1, -lb1]       # db: segment 1 only
    value = model.tau_map.embed_center(tau1 - 1)
    got = model.potential_diff(theta, first, value)
    assert_diff_matches(model, theta, first, value, got)
    assert got == math.inf
    # the move up hands segment 1's first time to segment 0: finite
    value = model.tau_map.embed_center(tau1 + 1)
    got = model.potential_diff(theta, first, value)
    assert_diff_matches(model, theta, first, value, got)
    assert math.isfinite(got)


def test_arch_cp_potential_where_a_variance_is_subnormal_is_silent():
    model = build_model("arch_cp", {}, None, 0)
    theta = model.initial_theta(np.random.default_rng(0))
    theta[0] = theta[1] = -740.0  # the first-segment variance is subnormal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.potential(theta) == np.inf


@pytest.mark.parametrize("j, value", [
    pytest.param(2, 40.0, id="p3-rounds-to-1"),
    pytest.param(2, -800.0, id="p3-rounds-to-0"),
    pytest.param(14, -800.0, id="phi2-rounds-to-0"),
])
def test_jolly_seber_gradient_where_a_probability_rounds_off(j, value):
    # p (1 - p) dU/dp is 0 * inf where p rounds to 0 or 1; the potential is
    # finite there and so must be the gradient
    model = build_model("jolly_seber", {}, None, 33)
    theta = model.initial_theta(np.random.default_rng(0))
    theta[j] = value
    smooth = model.smooth_idx

    def on_smooth(v):
        t = theta.copy()
        t[smooth] = v
        return model.potential(t)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(model.potential(theta))
        g = model.grad_smooth(theta)
        # potentials of order 1e5 need a wider step than the default 1e-6
        # to keep rounding out of the difference quotient
        fd = fd_grad(on_smooth, theta[smooth], h=1e-4)
    np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-5)


def test_jolly_seber_never_seen_again_term_where_chi_rounds_to_zero():
    # c_i = R_i - r_i is 0 at occasion 1 and 15 at occasion 2.  With every
    # log-odds at +750, p and phi round to 1 and so do chi_1 = chi_2 = 0:
    # c_1 log chi_1 is 0 * log 0, which must add nothing, and c_2 log chi_2
    # makes the potential +inf.
    stats = JollySeberStats(u=[30, 20, 10], m=[0, 10, 10], R=[30, 25, 20],
                            r=[30, 10, 0], z=[0, 5, 0])
    model = JollySeberTarget(stats)
    start = model.initial_theta(np.random.default_rng(2))
    theta = start.copy()
    theta[model.smooth_idx] = 750.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.potential(theta) == math.inf
        with pytest.raises(OutOfSupportError, match="potential is \\+inf"):
            model.grad_smooth(theta)
    # phi_1 and p_2 at +750 alone: chi_1 = 0 only where c_1 = 0, so the
    # potential is finite, and so is every diff through it
    theta = start.copy()
    theta[[1, model.T]] = 750.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(model.potential(theta))
        for j in model.diff_idx:
            value = theta[j] + 0.5
            got = model.potential_diff(theta, j, value)
            assert_diff_matches(model, theta, j, value, got)
    # phi_1 at +750 and p_2 at +36, which stays below 1: chi_1 = (1 - p_2)
    # chi_2 rounds to 0 where c_1 = 0, and the gradient is finite and exact
    theta = start.copy()
    theta[[1, 2, 3, 4]] = [36.0, 2.5, 750.0, 2.5]
    smooth = model.smooth_idx
    p = 1.0 / (1.0 + np.exp(-theta[:model.T]))
    assert np.all(p < 1.0)

    def on_smooth(v):
        t = theta.copy()
        t[smooth] = v
        return model.potential(t)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_allclose(model.grad_smooth(theta),
                                   fd_grad(on_smooth, theta[smooth]),
                                   rtol=1e-6, atol=1e-5)


def test_jolly_seber_link_whose_mass_rounds_to_zero_is_off_the_support():
    # With sigma_b = 1, U_4 = 4000 lies so far from its Normal links that
    # their interval masses round to 0: the potential is +inf.  The gradient
    # must raise before it divides by such a mass (it would warn and return
    # NaN), and a diff from there is +inf, also back onto the support (a
    # difference of the log masses is NaN there, or -inf).
    model = build_model("jolly_seber", {"sigma_b": 1.0}, None, 33)
    theta = model.initial_theta(np.random.default_rng(0))
    # every link at its mean, U_{i+1} = U_i - u_i, ending at U_T = u_T
    u, first = model.stats.u.tolist(), 2 * model.T - 1
    U = [u[-1]]
    for i in range(model.T - 2, -1, -1):
        U.insert(0, U[0] + u[i])
    for i, (emap, n) in enumerate(zip(model.emaps, U)):
        theta[first + i] = emap.embed_center(n)
    assert math.isfinite(model.potential(theta))
    j, emap = first + 3, model.emaps[3]
    start = float(theta[j])
    theta[j] = emap.embed_center(4000)
    assert not assert_grad_keeps_the_contract(model, theta)
    for value in (emap.embed_center(4001), emap.embed_center(3000), start):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model.potential_diff(theta, j, value)
        assert got == math.inf, (value, got)
        assert_diff_matches(model, theta, j, value, got)
    back = theta.copy()
    back[j] = start
    assert math.isfinite(model.potential(back))


@pytest.mark.parametrize("levels, finite", [
    pytest.param({"log_sigma_a": 700.0, "log_eta_a": 5.0}, True, id="5.0-True"),
    pytest.param({"log_sigma_a": 700.0, "log_eta_a": 20.0}, False,
                 id="20.0-False"),
    pytest.param({"log_a0": 720.0}, False, id="log_a0-720-False"),
    pytest.param({"log_b0": 400.0}, True, id="log_b0-400-True"),
    pytest.param({"log_eta_a": 720.0}, False, id="log_eta_a-720-False"),
    pytest.param({"log_eta_b": -800.0}, False, id="log_eta_b--800-False"),
    pytest.param({"log_eta_a": -800.0, "da": 0.0}, False,
                 id="log_eta_a--800-da-0-False"),
    pytest.param({"da1": 1e200, "log_eta_a1": 400.0}, False,
                 id="da1-1e200-log_eta_a1-400-False"),
    pytest.param({"da1": -1e200, "log_eta_a1": 400.0}, True,
                 id="da1--1e200-log_eta_a1-400-True"),
    pytest.param({"da1": 1e-10, "log_eta_a1": -368.0}, False,
                 id="da1-1e-10-log_eta_a1--368-False"),
    pytest.param({"log_a0": -360.0, "log_b0": -800.0}, False,
                 id="log_a0--360-log_b0--800-False"),
])
def test_arch_cp_overflowing_scale_squares_are_silent(levels, finite):
    # sigma_a = e^700 stays below math.exp's limit; at log_eta = 5 only the
    # squared scale overflows, at 20 the scale sigma_a * eta_a itself does.
    # A base level of e^720 overflows the variance itself; at log_b0 = 400
    # only the squared variance does.  A jump scale e^720 overflows exp, and
    # e^-800 rounds to 0: log 0 + delta^2 / 0 would be NaN, not +inf.  A jump
    # of 1e200 over a scale near e^400 squares both past the float range:
    # delta^2 / scale^2 would be inf / inf, where (delta / scale)^2 is about
    # 1e53.  Upward the level overflows, so the potential is +inf.  A jump
    # scale near e^-368 squares to a subnormal, where da / scale^2 would
    # overflow in the gradient: the potential is +inf there too, and so it
    # is where a variance squares to a subnormal.
    model = small_arch_cp()
    theta = model.initial_theta(np.random.default_rng(1))
    for j, name in enumerate(model.param_names):
        for prefix, value in levels.items():
            if name.startswith(prefix):
                theta[j] = value
    assert assert_grad_keeps_the_contract(model, theta) == finite


@pytest.mark.parametrize("name", ["gaussian", "ar1", "jolly_seber", "arch_cp"])
def test_diff_with_a_far_smooth_block_is_inf_or_finite(name):
    # The split step sweeps wherever its half drift lands; a smooth value of
    # +-750 overflows exp, so arch_cp's potential is +inf there.  gaussian
    # and ar1 diff their smooth coordinates, whose squares overflow at
    # +-1e160: a move there, or back to the origin, is +inf or finite too.
    model = MODELS[name]()
    for theta in _far_smooth_points(model, np.random.default_rng(6)):
        for j in model.diff_idx:
            emap = model.embeddings.get(int(j))
            ends = ((emap.knots[0], emap.knots[-1]) if emap else
                    (0.0, -theta[j], 1.5 * theta[j], 2.0 * theta[j]))
            for value in (theta[j] - 3.0, theta[j] - 1.0, theta[j] + 1.0,
                          theta[j] + 3.0, *ends):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = model.potential_diff(theta, int(j), float(value))
                assert got == math.inf or math.isfinite(got), (j, value, got)
                assert_diff_matches(model, theta, int(j), float(value), got)


@pytest.mark.parametrize("coord, level, always_inf", [
    (0, 720.0, True),   # log_a0: every level a_k overflows
    (3, 720.0, True),   # da2: la + da_2 overflows, so the last level a_2
    # log_b0: b_k is finite and b_k * y_{t-1}^2 overflows only at some t, so
    # a move that switches only other times has a finite diff
    (1, 708.0, False),
])
def test_arch_cp_change_point_diff_is_inf_when_a_level_overflows(
        coord, level, always_inf):
    model = small_arch_cp()
    K, first = model.k_max, model._n_smooth
    assert model.param_names[coord] in ("log_a0", "da2", "log_b0")
    theta = model.initial_theta(np.random.default_rng(1))
    theta[coord] = level
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.potential(theta) == np.inf
        # the last change point borders the segments K-1 and K
        for step in (-3.0, -1.0, 1.0, 3.0):
            value = float(theta[first + K - 1] + step)
            got = model.potential_diff(theta, first + K - 1, value)
            if always_inf:
                assert got == np.inf, (step, got)
            else:
                assert got == np.inf or math.isfinite(got), (step, got)


@pytest.mark.parametrize("name", sorted(set(MODELS) - set(BOUNDED)))
def test_far_moves_stay_finite_on_a_full_support(name):
    model = MODELS[name]()
    theta = model.initial_theta(np.random.default_rng(1))
    for j in range(model.dim):
        for value in (theta[j] - 1e3, theta[j] + 1e3):
            moved = theta.copy()
            moved[j] = value
            assert math.isfinite(model.potential(moved)), (j, value)
            if model.potential_diff is not None:
                assert math.isfinite(model.potential_diff(theta, j, value))
