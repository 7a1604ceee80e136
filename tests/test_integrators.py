"""Coordinate-wise and split (leapfrog with an empty sweep) integrators."""

import numpy as np
import pytest

from dhmc import (ContractError, MassSpec, ModelError, PhaseState, coord_sweep,
                  dhmc_step)
from dhmc.integrators import _check_step_args, _sweep_inplace, _sweep_tables
from dhmc.models import build_model
from dhmc.models.simple import BananaTarget, GaussianTarget, GridTarget

from conftest import (CoupledMix, FlatTarget, LinearSlope, SmoothStep,
                      StepBarrier, WalledGaussian, all_disc_state,
                      all_smooth_state, fd_jacobian, hamiltonian,
                      small_arch_cp, small_jolly_seber)

_EMPTY = np.array([], dtype=np.intp)
_UNIT1 = MassSpec(m_disc=np.ones(1))


def _order(*idx):
    return np.array(idx, dtype=np.intp)


def leapfrog_step(model, state, eps, mass):
    """The split step with an empty sweep: one velocity-Verlet step."""
    return dhmc_step(model, state, eps, mass, _EMPTY)


# ------------------------------------ one coordinate update: a sweep of [j]


def test_coord_update_flat_advances():
    out = coord_sweep(FlatTarget(dim=1), all_disc_state([0.0], [2.0]), [0],
                      0.5, _UNIT1)
    assert out.state.theta[0] == 0.5
    assert out.state.p[0] == 2.0
    assert out.flips == 0


def test_coord_update_pays_for_barrier():
    model = StepBarrier(edge=1.0, height=1.0)
    out = coord_sweep(model, all_disc_state([0.8], [1.5]), [0], 0.5, _UNIT1)
    assert out.state.theta[0] == pytest.approx(1.3)
    assert out.state.p[0] == pytest.approx(0.5)
    assert out.flips == 0


def test_coord_update_bounces_off_barrier():
    model = StepBarrier(edge=1.0, height=1.0)
    out = coord_sweep(model, all_disc_state([0.8], [0.5]), [0], 0.5, _UNIT1)
    assert out.state.theta[0] == 0.8
    assert out.state.p[0] == -0.5
    assert out.flips == 1


def test_coord_update_exact_tie_bounces():
    model = StepBarrier(edge=1.0, height=0.5)
    out = coord_sweep(model, all_disc_state([0.8], [0.5]), [0], 0.5, _UNIT1)
    assert out.state.theta[0] == 0.8
    assert out.state.p[0] == -0.5
    assert out.flips == 1


def test_coord_update_zero_momentum_moves_right():
    # sign(0) = +1: the proposal goes right, and a downhill slope then
    # hands the freed potential to the momentum.
    model = LinearSlope(slope=-1.0)
    out = coord_sweep(model, all_disc_state([0.0], [0.0]), [0], 0.5, _UNIT1)
    assert out.state.theta[0] == 0.5
    assert out.state.p[0] == pytest.approx(0.5)
    assert out.flips == 0


def test_coord_update_infinite_wall_always_bounces():
    model = GridTarget.from_probs([0.2, 0.5, 0.3])
    out = coord_sweep(model, all_disc_state([3.5], [100.0]), [0], 1.0, _UNIT1)
    assert out.state.theta[0] == 3.5
    assert out.state.p[0] == -100.0
    assert out.flips == 1


def test_coord_update_mass_scales_jump_and_budget():
    # m = 2 halves the jump and doubles the energy budget |p| / m.
    model = StepBarrier(edge=1.0, height=1.0)
    mass = MassSpec(m_disc=np.array([2.0]))
    out = coord_sweep(model, all_disc_state([0.9], [3.0]), [0], 0.5, mass)
    assert out.state.theta[0] == pytest.approx(1.15)
    assert out.state.p[0] == pytest.approx(3.0 - 2.0 * 1.0)


def test_coord_update_eval_accounting():
    with_diff = coord_sweep(FlatTarget(dim=1, with_diff=True),
                            all_disc_state([0.0], [1.0]), [0], 0.5, _UNIT1)
    without = coord_sweep(FlatTarget(dim=1, with_diff=False),
                          all_disc_state([0.0], [1.0]), [0], 0.5, _UNIT1)
    assert with_diff.potential_evals == 1
    assert without.potential_evals == 2


def test_coord_update_argument_errors():
    st = all_disc_state([0.0], [1.0])
    with pytest.raises(ContractError):
        coord_sweep(FlatTarget(dim=1), st, [0], 0.0, _UNIT1)
    with pytest.raises(ContractError):
        coord_sweep(FlatTarget(dim=1), st, [0], -0.1, _UNIT1)
    smooth = all_smooth_state([0.0], [1.0])
    with pytest.raises(ContractError):
        coord_sweep(GaussianTarget(dim=1), smooth, [0], 0.5,
                    MassSpec.diagonal([1.0], []))
    with pytest.raises(ContractError):
        coord_sweep(FlatTarget(dim=2), st, [0], 0.5, _UNIT1)


def test_nan_potential_raises():
    class NanDiff(FlatTarget):
        def __init__(self):
            super().__init__(dim=1)
            self.potential_diff = lambda theta, j, value: float("nan")

    class NanPot(FlatTarget):
        def potential(self, theta):
            return float("nan")

    st = all_disc_state([0.0], [1.0])
    with pytest.raises(ModelError):
        coord_sweep(NanDiff(), st, [0], 0.5, _UNIT1)
    with pytest.raises(ModelError):
        coord_sweep(NanPot(dim=1, with_diff=False), st, [0], 0.5, _UNIT1)


# --------------------------------------------------------------- coord_sweep


def test_sweep_flat_advances_every_coordinate():
    mass = MassSpec(m_disc=np.array([1.0, 2.0]))
    st = all_disc_state([0.0, 0.0], [2.0, -1.0])
    out = coord_sweep(FlatTarget(dim=2), st, _order(0, 1), 0.5, mass)
    np.testing.assert_allclose(out.state.theta, [0.5, -0.25])
    np.testing.assert_array_equal(out.state.p, st.p)
    assert out.flips == 0
    assert out.potential_evals == 2


def test_sweep_rejects_smooth_coordinates():
    model = CoupledMix()
    st = PhaseState(model.initial_theta(np.random.default_rng(0)),
                    [0.1, 0.2], [0], [1])
    with pytest.raises(ContractError):
        coord_sweep(model, st, _order(0, 1), 0.1,
                    MassSpec.diagonal([1.0], [1.0]))


def test_sweep_preserves_hamiltonian_exactly():
    rng = np.random.default_rng(2024)
    model = CoupledMix()
    for _ in range(200):
        theta = np.array([rng.normal(), rng.uniform(1.0 + 1e-6, 3.0)])
        p = rng.laplace(size=2)
        mass = MassSpec.diagonal([rng.uniform(0.5, 2.0)],
                                 [rng.uniform(0.5, 2.0)])
        st = PhaseState(theta, p, [0], [1])
        h0 = hamiltonian(model, st, mass)
        out = coord_sweep(model, st, _order(1), rng.uniform(0.01, 1.5), mass)
        h1 = hamiltonian(model, out.state, mass)
        assert abs(h1 - h0) <= 1e-10 * (1.0 + abs(h0))


def test_sweep_preserves_hamiltonian_at_walls():
    rng = np.random.default_rng(7)
    model = GridTarget.from_probs([0.3, 0.0, 0.7])
    mass = MassSpec(m_disc=np.array([1.0]))
    for _ in range(200):
        theta = np.array([rng.uniform(1.0 + 1e-6, 2.0)])
        p = rng.laplace(size=1)
        st = all_disc_state(theta, p)
        h0 = hamiltonian(model, st, mass)
        out = coord_sweep(model, st, _order(0), rng.uniform(0.05, 3.0), mass)
        h1 = hamiltonian(model, out.state, mass)
        assert np.isfinite(h1)
        assert abs(h1 - h0) <= 1e-10 * (1.0 + abs(h0))


def test_sweep_reversibility():
    rng = np.random.default_rng(5)
    model = CoupledMix()
    mass = MassSpec.diagonal([1.3], [0.8])
    for _ in range(100):
        theta = np.array([rng.normal(), rng.uniform(1.0 + 1e-6, 3.0)])
        p = rng.laplace(size=2)
        st = PhaseState(theta, p, [0], [1])
        fwd = coord_sweep(model, st, _order(1), 0.37, mass)
        flipped = PhaseState(fwd.state.theta, -fwd.state.p, [0], [1])
        back = coord_sweep(model, flipped, _order(1), 0.37, mass)
        np.testing.assert_allclose(back.state.theta, st.theta, atol=1e-9)
        np.testing.assert_allclose(-back.state.p, st.p, atol=1e-9)


def test_coord_update_volume_preservation():
    # Accept-branch Jacobian should have unit determinant; checked by
    # central finite differences on a target with a smoothly varying jump
    # cost and momenta large enough that the branch never changes.
    class Wavy(FlatTarget):
        def __init__(self):
            super().__init__(dim=1, with_diff=False)

        def potential(self, theta):
            return 0.3 * float(np.sin(theta[0]))

    model = Wavy()
    rng = np.random.default_rng(17)
    for _ in range(20):
        theta0 = rng.uniform(-3.0, 3.0)
        p0 = rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 3.0)

        def step(v):
            out = coord_sweep(model, all_disc_state([v[0]], [v[1]]), [0],
                              0.7, _UNIT1)
            return np.array([out.state.theta[0], out.state.p[0]])

        jac = fd_jacobian(step, np.array([theta0, p0]), h=1e-6)
        assert abs(np.linalg.det(jac) - 1.0) <= 1e-5


def test_bounce_branch_determinant_is_minus_one():
    model = StepBarrier(edge=1.0, height=50.0)

    def step(v):
        out = coord_sweep(model, all_disc_state([v[0]], [v[1]]), [0], 0.7,
                          _UNIT1)
        return np.array([out.state.theta[0], out.state.p[0]])

    jac = fd_jacobian(step, np.array([0.8, 1.0]), h=1e-6)
    assert abs(np.linalg.det(jac) + 1.0) <= 1e-5


# ------------------------------------- the sweep's scalar fast path, bitwise


def _reference_sweep(model, theta, p, order, eps, mass, disc_idx):
    """The per-update loop on numpy scalars that ``_sweep_inplace`` replaces:
    one diff for a coordinate of ``diff_idx``, two potentials for any other.
    It evaluates both potentials every time, but counts the first only where
    the fast path cannot carry it: before the first uncovered update, and
    after a covered update that moved.
    """
    m_by = dict(zip(np.asarray(disc_idx).tolist(), mass.m_disc))
    covered = set(np.asarray(model.diff_idx).tolist())
    flips = 0
    evals = 0
    known = False  # the potential at theta is carried
    for j in order:
        pj = p[j]
        s = 1.0 if pj >= 0 else -1.0
        minv = 1.0 / m_by[j]
        new = theta[j] + eps * s * minv
        if j in covered:
            du = model.potential_diff(theta, j, new)
            evals += 1
        else:
            old = theta[j]
            u0 = model.potential(theta)
            theta[j] = new
            u1 = model.potential(theta)
            theta[j] = old
            evals += 1 if known else 2
            du = np.inf if u0 == np.inf else u1 - u0
        if du != du:
            raise ModelError(f"{model.name} returned NaN potential difference")
        moved = abs(pj) * minv > du
        if moved:
            theta[j] = new
            p[j] = pj - s * m_by[j] * du
        else:
            p[j] = -pj
            flips += 1
        known = j not in covered or (known and not moved)
    return flips, evals


class _WallAt:
    """A model whose coordinate ``wall`` never moves, so it always bounces:
    its diff is ``+inf`` there, and its potential is ``+inf`` wherever that
    coordinate left its value in ``theta``.

    It also records the types the sweep passes as ``j`` and ``value``.
    """

    def __init__(self, model, wall, theta):
        self.model = model
        self.name = model.name
        self.wall = wall
        self.pinned = theta[wall] if wall >= 0 else None
        self.arg_types = set()

    @property
    def diff_idx(self):
        return self.model.diff_idx

    def potential(self, theta):
        if self.wall >= 0 and theta[self.wall] != self.pinned:
            return float("inf")
        return self.model.potential(theta)

    def potential_diff(self, theta, j, value):
        self.arg_types.add((type(j), type(value)))
        if j == self.wall:
            return float("inf")
        return self.model.potential_diff(theta, j, value)


# Each model is swept over every coordinate, as dhmc_coordwise sweeps it:
# jolly_seber and arch_cp take their smooth coordinates, and banana every
# coordinate, through the two-potential branch.
_SWEPT = {
    "ar1": lambda: build_model("ar1", {"dim": 8}),
    "gaussian": lambda: build_model("gaussian", {"dim": 4, "mean": 0.5,
                                                 "sd": [1.0, 2.0, 0.5, 3.0]}),
    "pmf": lambda: build_model("pmf", {"probs": [0.1, 0.2, 0.3, 0.25, 0.15]}),
    "binomial_n": lambda: build_model("binomial_n", {"n_max": 30}),
    "gen_bayes": lambda: build_model("gen_bayes", {"n": 40, "k": 5},
                                     synth_seed=1),
    "jolly_seber": small_jolly_seber,
    "arch_cp": small_arch_cp,
    "banana": lambda: build_model("banana"),
}


@pytest.mark.parametrize("wall", [False, True])
@pytest.mark.parametrize("name", sorted(_SWEPT))
def test_sweep_fast_path_is_bitwise_the_scalar_loop(name, wall):
    model = _SWEPT[name]()
    rng = np.random.default_rng(sorted(_SWEPT).index(name))
    idx = np.arange(model.dim)
    theta = model.initial_theta(rng)
    assert np.isfinite(model.potential(theta))
    p = 3.0 * rng.laplace(size=model.dim)
    # signed zeros take the sign(0) = +1 branch; a 1-d model gets them at
    # the start of its second and third sweeps
    zeros = [0.0, -0.0]
    for k, j in enumerate(idx[1:3] if len(idx) > 2 else []):
        p[j] = zeros[k]
    mass = MassSpec(m_disc=rng.uniform(0.5, 2.0, size=len(idx)))
    target = _WallAt(model, int(idx[0]) if wall else -1, theta)
    tables = _sweep_tables(target, mass, idx, model.dim)
    start = theta.copy()
    ref_theta, ref_p = theta.copy(), p.copy()
    moves = 0
    for sweep in range(40):
        if len(idx) == 1 and sweep in (1, 2):
            ref_p[idx[0]] = p[idx[0]] = zeros[sweep - 1]
        order = rng.permutation(idx)
        eps = float(rng.uniform(0.2, 1.5))
        before = theta.copy()
        want = _reference_sweep(target, ref_theta, ref_p, order, eps, mass,
                                idx)
        got = _sweep_inplace(target, theta, p, order, eps, tables)
        assert got == want
        assert theta.tobytes() == ref_theta.tobytes()
        assert p.tobytes() == ref_p.tobytes()
        moves += int(np.count_nonzero(theta != before))
    if wall:
        assert theta[idx[0]] == start[idx[0]]
    assert moves > 0 or (wall and len(idx) == 1)
    fast_types = {t for t in target.arg_types if t[1] is float}
    assert fast_types == ({(int, float)} if len(model.diff_idx) else set())


@pytest.mark.parametrize("make", [small_jolly_seber, small_arch_cp, CoupledMix])
def test_mixed_dhmc_step_keeps_smooth_momenta_bitwise(make):
    # The sweep writes p back whole; the smooth entries must come out exactly
    # as the kick set them, and the whole step as the scalar loop gives it.
    model = make()
    rng = np.random.default_rng(4)
    smooth, disc = model.smooth_idx, model.disc_idx
    mass = MassSpec(m_disc=rng.uniform(0.5, 2.0, size=len(disc)),
                    diag_smooth=rng.uniform(0.5, 2.0, size=len(smooth)))
    tables = _sweep_tables(model, mass, disc, model.dim)
    for _ in range(20):
        theta = model.initial_theta(rng)
        p = np.empty(model.dim)
        p[smooth] = rng.standard_normal(len(smooth))
        p[disc] = rng.laplace(size=len(disc))
        eps = float(rng.uniform(0.01, 0.1))
        order = rng.permutation(disc)
        out = dhmc_step(model, PhaseState(theta, p, smooth, disc), eps, mass,
                        order)
        assert not out.diverged
        half = 0.5 * eps
        ref_theta, ref_p = theta.copy(), p.copy()
        ref_p[smooth] -= half * model.grad_smooth(ref_theta)
        ref_theta[smooth] += half * mass.smooth_velocity(ref_p[smooth])
        kicked = ref_p[smooth].copy()
        swept_p = ref_p.copy()
        _sweep_inplace(model, ref_theta.copy(), swept_p, order, eps,
                       tables)
        assert swept_p[smooth].tobytes() == kicked.tobytes()
        flips, _ = _reference_sweep(model, ref_theta, ref_p, order, eps,
                                    mass, disc)
        assert flips == out.flips
        ref_theta[smooth] += half * mass.smooth_velocity(ref_p[smooth])
        ref_p[smooth] -= half * model.grad_smooth(ref_theta)
        assert out.state.theta.tobytes() == ref_theta.tobytes()
        assert out.state.p.tobytes() == ref_p.tobytes()


# ---------------------------------------------------------------- dhmc_step


def test_dhmc_step_pure_disc_matches_sweep():
    model = BananaTarget()
    mass = MassSpec(m_disc=np.array([1.0, 2.0]))
    st = all_disc_state([0.3, -0.2], [1.2, -0.7])
    order = _order(1, 0)
    split = dhmc_step(model, st, 0.3, mass, order)
    sweep = coord_sweep(model, st, order, 0.3, mass)
    np.testing.assert_array_equal(split.state.theta, sweep.state.theta)
    np.testing.assert_array_equal(split.state.p, sweep.state.p)
    assert split.flips == sweep.flips
    assert split.potential_evals == sweep.potential_evals


def test_dhmc_step_pure_smooth_is_velocity_verlet():
    model = GaussianTarget(dim=1)
    mass = MassSpec.diagonal([1.0], [])
    st = all_smooth_state([1.0], [0.0])
    out = dhmc_step(model, st, 0.1, mass, _EMPTY)
    h0 = hamiltonian(model, st, mass)
    h1 = hamiltonian(model, out.state, mass)
    assert abs(h1 - h0) <= 1e-4
    # no sweep in between: kick, one full drift, kick, bit for bit.
    p = st.p - 0.05 * model.grad_smooth(st.theta)
    theta = st.theta + 0.1 * p
    p = p - 0.05 * model.grad_smooth(theta)
    np.testing.assert_array_equal(out.state.theta, theta)
    np.testing.assert_array_equal(out.state.p, p)
    assert out.potential_evals == 3


def test_dhmc_step_smooth_local_error_order():
    model = GaussianTarget(dim=2, sd=[1.0, 1.3])
    mass = MassSpec.diagonal([1.0, 1.0], [])
    order = _EMPTY
    epss = 0.2 * 2.0 ** -np.arange(5)
    errs = []
    for eps in epss:
        st = PhaseState([1.0, -0.5], [0.3, 0.7], [0, 1], [])
        h0 = hamiltonian(model, st, mass)
        out = dhmc_step(model, st, eps, mass, order)
        errs.append(abs(hamiltonian(model, out.state, mass) - h0))
    slope = np.polyfit(np.log(epss), np.log(errs), 1)[0]
    assert slope >= 2.7


def test_dhmc_step_discontinuity_local_error_order():
    # Start the discontinuous coordinate a fixed fraction of one jump away
    # from a cell boundary so every stepsize crosses it exactly once.
    model = CoupledMix()
    mass = MassSpec.diagonal([1.0], [1.0])
    order = _order(1)
    epss = 0.2 * 2.0 ** -np.arange(5)
    errs = []
    for eps in epss:
        st = PhaseState([0.9, 2.0 - 0.4 * eps], [0.35, 2.0], [0], [1])
        h0 = hamiltonian(model, st, mass)
        out = dhmc_step(model, st, eps, mass, order)
        assert out.state.theta[1] > 2.0
        errs.append(abs(hamiltonian(model, out.state, mass) - h0))
    slope = np.polyfit(np.log(epss), np.log(errs), 1)[0]
    assert slope >= 1.8


def test_dhmc_step_reversible_on_mixed_target():
    model = CoupledMix()
    mass = MassSpec.diagonal([0.7], [1.4])
    rng = np.random.default_rng(3)
    for _ in range(50):
        theta = np.array([rng.normal(), rng.uniform(1.0 + 1e-6, 3.0)])
        p = np.array([rng.normal(), rng.laplace()])
        st = PhaseState(theta, p, [0], [1])
        fwd = dhmc_step(model, st, 0.23, mass, _order(1))
        flipped = PhaseState(fwd.state.theta, -fwd.state.p, [0], [1])
        back = dhmc_step(model, flipped, 0.23, mass, _order(1))
        np.testing.assert_allclose(back.state.theta, st.theta, atol=1e-9)
        np.testing.assert_allclose(-back.state.p, st.p, atol=1e-9)


def test_dhmc_step_divergence_keeps_start_state():
    model = WalledGaussian(bound=2.0)
    mass = MassSpec.diagonal([1.0], [])
    st = all_smooth_state([1.9], [5.0])
    out = dhmc_step(model, st, 0.5, mass, _EMPTY)
    assert out.diverged
    np.testing.assert_array_equal(out.state.theta, st.theta)
    np.testing.assert_array_equal(out.state.p, st.p)


class _BandedMix(CoupledMix):
    """CoupledMix whose smooth coordinate is off the support in (1.0, 1.2)."""

    def potential(self, theta):
        if 1.0 < theta[0] < 1.2:
            return float("inf")
        return super().potential(theta)


class _BandedMixNoDiff(_BandedMix):
    potential_diff = None
    diff_idx = _EMPTY


@pytest.mark.parametrize("make, evals, flips", [
    (_BandedMix, 1 + 3, None),        # one diff, the closing calls
    (_BandedMixNoDiff, 2 + 3, 1),     # the fallback's two potentials
])
def test_dhmc_step_sweeps_where_the_half_drift_leaves_the_support(
        make, evals, flips):
    # The half drift lands at 1.082, inside the band; the step ends at 1.264.
    # Only the closing potential decides the divergence, so the sweep runs
    # off the support: a diff there is finite, the fallback's two +inf
    # potentials bounce, and neither raises.
    model = make()
    mass = MassSpec.diagonal([1.0], [1.0])
    st = PhaseState([0.9, model.emap.embed_center(2)], [2.0, 0.3], [0], [1])
    out = dhmc_step(model, st, 0.2, mass, _order(1))
    assert not out.diverged
    assert out.state.theta[0] > 1.2
    assert out.potential_evals == evals  # with the entry gradient
    if flips is not None:
        assert out.flips == flips
        assert out.state.theta[1] == st.theta[1]
        assert out.state.p[1] == -0.3


def test_dhmc_step_closing_potential_catches_an_end_the_gradient_missed():
    # _BandedMix's gradient does not signal its band, against the contract;
    # the step ends at about 1.1, inside it, and its closing potential
    # marks the step divergent
    model = _BandedMix()
    mass = MassSpec.diagonal([1.0], [1.0])
    st = PhaseState([0.9, model.emap.embed_center(2)], [2.0, 0.3], [0], [1])
    out = dhmc_step(model, st, 0.12, mass, _order(1))
    assert out.diverged
    assert out.state is st
    assert out.potential_evals == 1 + 3  # one diff, the closing calls


# ------------------------------- leapfrog: dhmc_step with an empty sweep


def test_leapfrog_harmonic_energy_drift():
    model = GaussianTarget(dim=1)
    mass = MassSpec.diagonal([1.0], [])
    eps = 0.01
    st = all_smooth_state([1.0], [0.0])
    h0 = hamiltonian(model, st, mass)
    n = int(round(100.0 * np.pi / eps))
    worst = 0.0
    for _ in range(n):
        st = leapfrog_step(model, st, eps, mass).state
    worst = abs(hamiltonian(model, st, mass) - h0)
    assert worst <= 1e-3


def test_leapfrog_exact_for_linear_potential():
    class LinearSmooth(FlatTarget):
        def __init__(self, c):
            super().__init__(dim=1)
            self.c = c
            self.smooth_idx = np.array([0], dtype=np.intp)
            self.disc_idx = _EMPTY

        def potential(self, theta):
            return self.c * float(theta[0])

        def grad_smooth(self, theta):
            return np.array([self.c])

    c = 1.3
    model = LinearSmooth(c)
    mass = MassSpec.diagonal([1.0], [])
    st = all_smooth_state([0.2], [0.9])
    eps = 0.3
    for k in range(1, 8):
        st = leapfrog_step(model, st, eps, mass).state
        t = k * eps
        assert st.theta[0] == pytest.approx(0.2 + 0.9 * t - 0.5 * c * t * t,
                                            abs=1e-12)
        assert st.p[0] == pytest.approx(0.9 - c * t, abs=1e-12)


def test_leapfrog_error_stays_order_one_at_jump():
    model = SmoothStep(edge=1.0, height=1.0)
    mass = MassSpec.diagonal([1.0], [])
    for eps in [0.1, 0.05, 0.025]:
        st = all_smooth_state([0.99], [2.0])
        h0 = hamiltonian(model, st, mass)
        out = leapfrog_step(model, st, eps, mass)
        assert out.state.theta[0] > 1.0
        dh = hamiltonian(model, out.state, mass) - h0
        assert abs(dh) >= 0.5


def test_leapfrog_divergence_and_partition_check():
    model = WalledGaussian(bound=2.0)
    mass = MassSpec.diagonal([1.0], [])
    out = leapfrog_step(model, all_smooth_state([1.9], [5.0]), 0.5, mass)
    assert out.diverged
    np.testing.assert_array_equal(out.state.theta, [1.9])
    # a sweep order may only visit discontinuous coordinates
    with pytest.raises(ContractError, match="not in disc_idx"):
        dhmc_step(model, all_smooth_state([1.0], [1.0]), 0.1, mass, _order(0))


def test_leapfrog_eval_count():
    model = GaussianTarget(dim=1)
    out = leapfrog_step(model, all_smooth_state([1.0], [0.3]), 0.1,
                        MassSpec.diagonal([1.0], []))
    assert out.potential_evals == 3


# --------------------------------------------------------------- sweep orders


def test_sweep_order_draw_and_reverse():
    # drawn as _dhmc_move draws it, a plain array; its reverse is an order too
    rng = np.random.default_rng(0)
    disc = np.array([3, 5, 9], dtype=np.intp)
    order = rng.permutation(disc)
    assert sorted(order.tolist()) == [3, 5, 9]
    st = all_disc_state(np.zeros(10), np.ones(10))
    mass = MassSpec(m_disc=np.ones(10))
    model = FlatTarget(dim=10)
    back = _check_step_args(model, st, mass, 0.5, order[::-1])
    assert back.tolist() == order.tolist()[::-1]
    with pytest.raises(ContractError, match="1-d"):
        _check_step_args(model, st, mass, 0.5, np.zeros((2, 2), dtype=np.intp))


def test_sweep_order_reversal_symmetry_frequencies():
    rng = np.random.default_rng(99)
    disc = np.array([0, 1, 2], dtype=np.intp)
    counts = {}
    for _ in range(10**5):
        perm = tuple(rng.permutation(disc).tolist())
        counts[perm] = counts.get(perm, 0) + 1
    assert len(counts) == 6
    for perm, c in counts.items():
        c_rev = counts[perm[::-1]]
        # difference of two ~Bin(1e5, 1/6) counts: 4 sigma ~ 670
        assert abs(c - c_rev) <= 700
