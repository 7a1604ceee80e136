"""Knot maps for integer coordinates and the width-corrected density, which
a one-axis ``GridTarget`` evaluates as its potential."""

import pickle

import numpy as np
import pytest

from dhmc import ContractError, EmbeddingMap, OutOfSupportError
from dhmc.models.simple import GridTarget


def value_at(emap, x):
    """The integer whose cell holds x."""
    return emap.values[emap.cell(x)]


def test_uniform_lookup_interior():
    emap = EmbeddingMap.uniform(1, 9)
    assert emap.cell(2.5) == 1
    assert value_at(emap, 2.5) == 2


def test_lookup_right_endpoint_belongs_to_cell():
    emap = EmbeddingMap.uniform(1, 9)
    # cells are right-closed: (2, 3] carries the value 2
    assert value_at(emap, 3.0) == 2
    assert value_at(emap, 10.0) == 9


def test_log_lookup_just_past_knot():
    emap = EmbeddingMap.logarithmic(1, 10)
    assert value_at(emap, np.log(7.0) + 1e-9) == 7


def test_left_edge_is_open():
    emap = EmbeddingMap.uniform(1, 3)
    assert emap.cell(1.0) is None
    assert emap.cell(4.0 + 1e-12) is None
    with pytest.raises(OutOfSupportError):
        emap.decode([1.0])


def test_embed_center_values():
    assert EmbeddingMap.uniform(1, 9).embed_center(3) == 3.5
    log2 = float(np.log(2.0))
    assert EmbeddingMap.logarithmic(1, 9).embed_center(1) == pytest.approx(0.5 * log2)


def test_embed_center_out_of_range():
    emap = EmbeddingMap.uniform(1, 9)
    with pytest.raises(OutOfSupportError):
        emap.embed_center(10)
    with pytest.raises(OutOfSupportError):
        emap.embed_center(0)


@pytest.mark.parametrize("emap", [
    EmbeddingMap.uniform(1, 12),
    EmbeddingMap.logarithmic(1, 12),
    EmbeddingMap.uniform(7, 19),
    EmbeddingMap.logarithmic(0, 6),
    EmbeddingMap.logarithmic(-3, 4),
])
def test_round_trip_all_values(emap):
    for n in range(emap.lo, emap.hi + 1):
        assert emap.cell(emap.embed_center(n)) == n - emap.lo
        assert value_at(emap, emap.embed_center(n)) == n


def test_log_knots_finite_for_nonpositive_lo():
    emap = EmbeddingMap.logarithmic(0, 5)
    assert np.all(np.isfinite(emap.knots))
    assert emap.lo == 0 and emap.hi == 5
    assert value_at(emap, 0.5 * np.log(2.0)) == 0


def test_partition_every_point_claimed_once():
    # x belongs to the one cell k with knots[k] < x <= knots[k + 1], or to
    # none off the support; ``cells`` and ``decode`` agree with ``cell``
    rng = np.random.default_rng(3)
    for emap in (EmbeddingMap.logarithmic(1, 40), EmbeddingMap.uniform(-2, 5)):
        knots = emap.knots
        xs = np.concatenate([
            rng.uniform(knots[0] - 1.0, knots[-1] + 1.0, size=3000),
            knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
            [np.nan, np.inf, -np.inf]])
        ks = [emap.cell(x) for x in xs]
        for x, k in zip(xs, ks):
            owners = np.flatnonzero((knots[:-1] < x) & (x <= knots[1:]))
            assert owners.tolist() == ([] if k is None else [k]), x
            one = emap.cells([x])
            assert one is None if k is None else one.tolist() == [k], x
        on = np.array([k is not None for k in ks])
        assert 0 < on.sum() < len(xs)
        cells = emap.cells(xs[on])
        assert cells.tolist() == [k for k in ks if k is not None]
        np.testing.assert_array_equal(emap.decode(xs[on]), emap.values[cells])
        assert emap.cells(xs) is None
        with pytest.raises(OutOfSupportError):
            emap.decode(xs)
        assert emap.cells(np.array([])).shape == (0,)
        assert emap.decode(np.array([])).shape == (0,)


def test_density_integrates_to_total_mass():
    probs = np.array([0.2, 0.5, 0.3])
    for emap in (EmbeddingMap.uniform(1, 3), EmbeddingMap.logarithmic(1, 3)):
        model = GridTarget.from_probs(probs, emap)
        total = 0.0
        for k in range(emap.n_cells):
            # stay inside one cell: the density is constant there and the
            # left knot itself belongs to the previous cell
            grid = np.linspace(emap.knots[k] + 1e-9, emap.knots[k + 1], 200)
            vals = np.array([np.exp(-model.potential(np.array([x])))
                             for x in grid])
            total += np.trapezoid(vals, grid)
        assert total == pytest.approx(probs.sum(), abs=1e-6)


def test_measure_preservation_within_cells():
    emap = EmbeddingMap.logarithmic(2, 9)
    for n in range(emap.lo, emap.hi + 1):
        k = n - emap.lo
        for x in (emap.knots[k] + 1e-9, emap.embed_center(n), emap.knots[k + 1]):
            assert value_at(emap, x) == n


def test_log_density_values():
    # the embedded log density is -potential of a one-axis grid
    uni = GridTarget.from_probs([0.5, 0.5], EmbeddingMap.uniform(1, 2))
    assert -uni.potential(np.array([1.5])) == pytest.approx(np.log(0.5))
    log2 = float(np.log(2.0))
    logm = GridTarget.from_probs([0.5, 0.5], EmbeddingMap.logarithmic(1, 2))
    assert -logm.potential(np.array([0.5 * log2])) == pytest.approx(
        np.log(0.5 / log2))
    assert -logm.potential(np.array([-1.0])) == -np.inf
    assert -uni.potential(np.array([0.5])) == -np.inf


def test_zero_probability_cell_gets_minus_inf_density():
    model = GridTarget.from_probs([0.5, 0.0, 0.5], EmbeddingMap.uniform(1, 3))
    assert -model.potential(np.array([2.5])) == -np.inf
    assert -model.potential(np.array([1.5])) == pytest.approx(np.log(0.5))


def test_decode_vectorized():
    emap = EmbeddingMap.uniform(3, 7)
    xs = np.array([3.2, 4.0, 7.9, 8.0])
    np.testing.assert_array_equal(emap.decode(xs), [3, 3, 7, 7])
    with pytest.raises(OutOfSupportError):
        emap.decode(np.array([3.5, 3.0]))
    with pytest.raises(OutOfSupportError):
        emap.decode(np.array([8.0 + 1e-9]))


def test_construction_validation():
    with pytest.raises(ContractError):
        EmbeddingMap(knots=[0.0], values=[])
    with pytest.raises(ContractError):
        EmbeddingMap(knots=[0.0, 0.0, 1.0], values=[1, 2])
    with pytest.raises(ContractError):
        EmbeddingMap(knots=[0.0, np.inf], values=[1])
    with pytest.raises(ContractError):
        EmbeddingMap(knots=[0.0, 1.0, 2.0], values=[1, 3])
    with pytest.raises(ContractError):
        EmbeddingMap(knots=[0.0, 1.0, 2.0], values=[1])
    with pytest.raises(ContractError):
        EmbeddingMap.uniform(5, 4)
    with pytest.raises(ContractError):
        EmbeddingMap.logarithmic(2, 1)


def test_single_cell_support():
    emap = EmbeddingMap.uniform(1, 1)
    assert emap.n_cells == 1
    assert value_at(emap, 1.4) == 1
    assert emap.cell(2.5) is None


def test_maps_are_frozen():
    emap = EmbeddingMap.uniform(1, 3)
    with pytest.raises(ValueError):
        emap.knots[0] = -1.0
    with pytest.raises(ValueError):
        emap.values[0] = 5


def test_maps_compare_by_knots_and_values():
    emap = EmbeddingMap.uniform(1, 3)
    assert emap == EmbeddingMap.uniform(1, 3)
    assert emap == pickle.loads(pickle.dumps(emap))
    assert emap != EmbeddingMap.uniform(1, 4)
    assert emap != EmbeddingMap.uniform(2, 4)  # the same widths, shifted
    assert emap != EmbeddingMap.logarithmic(1, 3)  # the same values
    assert emap != "uniform(1, 3)"
    with pytest.raises(TypeError):
        hash(emap)
