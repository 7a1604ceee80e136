"""Phase-space state, masses, kinetic energy, momentum sampling."""

import numpy as np
import pytest
from scipy import stats

from dhmc import (ContractError, MassSpec, PhaseState, kinetic_energy,
                  sample_momentum)


# ---------------------------------------------------------------- PhaseState


def test_state_copies_and_freezes_arrays():
    theta = np.array([1.0, 2.0])
    p = np.array([0.5, -0.5])
    st = PhaseState(theta, p, [0], [1])
    theta[0] = 99.0
    assert st.theta[0] == 1.0
    with pytest.raises(ValueError):
        st.theta[0] = 3.0
    with pytest.raises(ValueError):
        st.p[0] = 3.0
    assert st.dim == 2


def test_state_partition_must_cover_range():
    with pytest.raises(ContractError):
        PhaseState([1.0, 2.0], [0.0, 0.0], [0], [0])  # overlap
    with pytest.raises(ContractError):
        PhaseState([1.0, 2.0], [0.0, 0.0], [0], [])  # missing coordinate
    with pytest.raises(ContractError):
        PhaseState([1.0, 2.0], [0.0, 0.0], [0], [2])  # out of range
    with pytest.raises(ContractError):
        PhaseState([1.0, 2.0], [0.0, 0.0], [0, 1], [1])


def test_state_requires_finite_matching_arrays():
    with pytest.raises(ContractError):
        PhaseState([np.inf], [0.0], [0], [])
    with pytest.raises(ContractError):
        PhaseState([0.0], [np.nan], [0], [])
    with pytest.raises(ContractError):
        PhaseState([0.0, 1.0], [0.0], [0, 1], [])
    with pytest.raises(ContractError):
        PhaseState([[0.0]], [[0.0]], [0], [])


# ------------------------------------------------------------------ MassSpec


def test_mass_validation():
    with pytest.raises(ContractError):
        MassSpec(m_disc=np.array([1.0, -1.0]))
    with pytest.raises(ContractError):
        MassSpec(m_disc=np.array([0.0]))
    with pytest.raises(ContractError):
        MassSpec(m_disc=np.array([np.inf]))
    with pytest.raises(ContractError):
        MassSpec(m_disc=np.array([1.0]), diag_smooth=np.array([0.0]))


def test_check_sizes_messages():
    mass = MassSpec.diagonal([1.0, 2.0], [3.0])
    mass.check_sizes(2, 1)
    with pytest.raises(ContractError, match="m_disc"):
        mass.check_sizes(2, 2)
    with pytest.raises(ContractError, match="diag_smooth"):
        mass.check_sizes(3, 1)
    with pytest.raises(ContractError, match="missing"):
        MassSpec(m_disc=np.ones(1)).check_sizes(2, 1)


def test_unit_mass():
    mass = MassSpec.unit(2, 3)
    np.testing.assert_array_equal(mass.diag_smooth, np.ones(2))
    np.testing.assert_array_equal(mass.m_disc, np.ones(3))


# ------------------------------------------------------------ kinetic energy


def test_kinetic_laplace_block():
    mass = MassSpec(m_disc=np.array([1.0, 1.0]))
    assert kinetic_energy(np.array([-2.0, 3.0]), mass, [], [0, 1]) == 5.0


def test_kinetic_gaussian_block():
    mass = MassSpec.diagonal([1.0, 1.0], [])
    assert kinetic_energy(np.array([3.0, 4.0]), mass, [0, 1], []) == 12.5


def test_kinetic_mixed():
    mass = MassSpec.diagonal([4.0], [2.0])
    assert kinetic_energy(np.array([2.0, -3.0]), mass, [0], [1]) == 2.0


def test_kinetic_symmetry_and_convexity():
    rng = np.random.default_rng(11)
    mass = MassSpec.diagonal([2.0, 0.5], [1.0, 3.0])
    for _ in range(200):
        p = rng.standard_normal(4)
        q = rng.standard_normal(4)
        kp = kinetic_energy(p, mass, [0, 1], [2, 3])
        assert kp == kinetic_energy(-p, mass, [0, 1], [2, 3])
        kq = kinetic_energy(q, mass, [0, 1], [2, 3])
        km = kinetic_energy(0.5 * (p + q), mass, [0, 1], [2, 3])
        assert km <= 0.5 * kp + 0.5 * kq + 1e-12
    assert kinetic_energy(np.zeros(4), mass, [0, 1], [2, 3]) == 0.0
    assert kinetic_energy(np.array([0.0, 0.0, 1e-3, 0.0]), mass, [0, 1], [2, 3]) > 0.0


def test_kinetic_dimension_mismatch():
    mass = MassSpec.diagonal([1.0], [1.0])
    with pytest.raises(ContractError):
        kinetic_energy(np.zeros(3), mass, [0], [1])


# --------------------------------------------------------- sample_momentum


def test_momentum_seeded_determinism():
    mass = MassSpec.diagonal([2.0], [3.0])
    a = sample_momentum(np.random.default_rng(5), mass, [0], [1])
    b = sample_momentum(np.random.default_rng(5), mass, [0], [1])
    np.testing.assert_array_equal(a, b)


def test_momentum_stream_order_is_gaussian_then_laplace():
    mass = MassSpec.diagonal([4.0, 9.0], [2.0])
    p = sample_momentum(np.random.default_rng(42), mass, [0, 1], [2])
    rng = np.random.default_rng(42)
    z = rng.standard_normal(2)
    lap = rng.laplace(0.0, [2.0])
    np.testing.assert_array_equal(p[:2], np.sqrt([4.0, 9.0]) * z)
    np.testing.assert_array_equal(p[2:], lap)


def test_momentum_empty_smooth_block_consumes_no_gaussians():
    mass = MassSpec(m_disc=np.array([1.5, 0.5]))
    p = sample_momentum(np.random.default_rng(9), mass, [], [0, 1])
    rng = np.random.default_rng(9)
    np.testing.assert_array_equal(p, rng.laplace(0.0, [1.5, 0.5]))


def test_momentum_scaled_kinetic_is_unit_exponential():
    n = 10**5
    m = np.full(n, 2.5)
    mass = MassSpec(m_disc=m)
    p = sample_momentum(np.random.default_rng(123), mass, [], np.arange(n))
    scaled = np.abs(p) / m
    assert stats.kstest(scaled, "expon").pvalue > 0.01


def test_momentum_laplace_mean_abs():
    n = 10**6
    mass = MassSpec(m_disc=np.ones(n))
    p = sample_momentum(np.random.default_rng(7), mass, [], np.arange(n))
    assert abs(np.mean(np.abs(p)) - 1.0) < 0.005


def test_momentum_gaussian_variances():
    n = 2 * 10**5
    diag = np.tile([4.0, 9.0], n // 2)
    mass = MassSpec.diagonal(diag, [])
    p = sample_momentum(np.random.default_rng(21), mass, np.arange(n), [])
    assert abs(p[0::2].var() / 4.0 - 1.0) < 0.03
    assert abs(p[1::2].var() / 9.0 - 1.0) < 0.03
