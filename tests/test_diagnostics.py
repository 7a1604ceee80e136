"""Batch-means ESS, per-run reports, and cross-chain summaries."""

import numpy as np
import pytest

from dhmc import (ContractError, SampleStore, batch_means_ess, min_ess_report,
                  summarize)
from dhmc.embedding import EmbeddingMap


def _ar1(rng, n, rho):
    z = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = z[0]
    c = np.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + c * z[t]
    return x


# ------------------------------------------------------------ batch_means_ess


def test_ess_iid_sequence_near_n():
    x = np.random.default_rng(2718).standard_normal(10**5)
    assert 0.8 <= batch_means_ess(x) / 10**5 <= 1.2


def test_ess_autocorrelated_sequence_matches_theory():
    rho = 0.9
    x = _ar1(np.random.default_rng(314), 10**5, rho)
    ratio = batch_means_ess(x) / 10**5
    assert 0.03 <= ratio <= 0.08
    theory = (1.0 - rho) / (1.0 + rho)
    assert 0.6 * theory <= ratio <= 1.5 * theory


def test_ess_periodic_blocks_collapse():
    # constant blocks aligned with the batch size: the batch means carry
    # all the variance, so ESS ~ number of batches
    x = np.repeat(np.resize([1.0, -1.0], 25), 200)
    assert batch_means_ess(x) < 0.05 * len(x)


def test_ess_zero_batch_mean_variance_is_infinite():
    x = np.tile([-1.0, 1.0], 2500)
    assert batch_means_ess(x) == np.inf


def test_ess_drops_remainder_from_head():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(1037)
    got = batch_means_ess(x, batches=25)
    kept = x[1037 - 25 * 41:]
    means = kept.reshape(25, 41).mean(axis=1)
    manual = len(kept) * kept.var(ddof=1) / (41 * means.var(ddof=1))
    assert got == pytest.approx(manual, rel=1e-12)
    # the dropped draws do not influence the estimate
    y = x.copy()
    y[:12] = 1e6
    assert batch_means_ess(y, batches=25) == pytest.approx(got, rel=1e-12)


def test_ess_affine_invariance():
    x = _ar1(np.random.default_rng(11), 5000, 0.6)
    base = batch_means_ess(x)
    assert batch_means_ess(3.7 * x - 12.0) == pytest.approx(base, rel=1e-10)
    assert batch_means_ess(-x) == pytest.approx(base, rel=1e-10)


def test_ess_thinning_consistency():
    x = _ar1(np.random.default_rng(99), 4 * 10**5, 0.9)
    full = batch_means_ess(x)
    thinned = batch_means_ess(x[::4])
    assert 0.7 <= thinned / full <= 1.4


def test_ess_preconditions():
    with pytest.raises(ContractError, match="constant"):
        batch_means_ess(np.zeros(100))
    with pytest.raises(ContractError, match="need at least 50 draws, got 49"):
        batch_means_ess(np.arange(49.0))
    with pytest.raises(ContractError):
        batch_means_ess(np.arange(100.0), batches=1)
    with pytest.raises(ContractError):
        batch_means_ess(np.zeros((10, 10)))


# ------------------------------------------------------------ min_ess_report


def test_report_single_column():
    x = np.random.default_rng(0).standard_normal(2000)
    store = SampleStore(names=["a"], draws=x[:, None], potential_evals=4000)
    rep = min_ess_report(store)
    assert rep.min_ess == min(rep.ess_mean[0], rep.ess_second[0])
    assert rep.min_ess == pytest.approx(
        min(batch_means_ess(x), batch_means_ess(x * x)))
    assert rep.ess_per_eval == pytest.approx(rep.min_ess / 4000)
    d = rep.to_dict()
    assert d["ess_per_100_samples"] == pytest.approx(100 * rep.min_ess / 2000)


def test_report_min_attained_on_sticky_column():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(4000)
    b = _ar1(rng, 4000, 0.95)
    store = SampleStore(names=["a", "b"], draws=np.column_stack([a, b]))
    rep = min_ess_report(store)
    assert rep.min_ess_name in ("b", "b^2")
    for v in np.concatenate([rep.ess_mean, rep.ess_second]):
        assert rep.min_ess <= v
    assert np.isnan(rep.ess_per_eval)


def test_report_excludes_constant_columns():
    rng = np.random.default_rng(2)
    store = SampleStore(names=["a", "c"],
                      draws=np.column_stack([rng.standard_normal(500),
                                             np.full(500, 7.0)]))
    rep = min_ess_report(store)
    assert np.isnan(rep.ess_mean[1]) and np.isnan(rep.ess_second[1])
    assert any("c^1 is constant" in w for w in rep.warnings)
    assert any("c^2 is constant" in w for w in rep.warnings)
    assert np.isfinite(rep.min_ess)
    with pytest.raises(ContractError, match="every selected sequence"):
        min_ess_report(SampleStore(names=["c"], draws=np.full((500, 1), 7.0)))


def test_report_scores_decoded_values():
    emap = EmbeddingMap.uniform(1, 5)
    rng = np.random.default_rng(3)
    cells = rng.integers(0, 5, size=1000)
    # embedded positions jitter inside the cell; decoding removes the jitter
    raw = emap.knots[cells] + rng.uniform(0.01, 0.99, size=1000)
    store = SampleStore(names=["n"], draws=raw[:, None], embeddings={0: emap})
    rep = min_ess_report(store)
    decoded = emap.decode(raw).astype(float)
    assert rep.min_ess == pytest.approx(
        min(batch_means_ess(decoded), batch_means_ess(decoded ** 2)))


def test_report_selectors():
    rng = np.random.default_rng(4)
    store = SampleStore(names=["a", "b"], draws=rng.standard_normal((300, 2)))
    by_name = min_ess_report(store, selector=["b"])
    by_index = min_ess_report(store, selector=[1])
    assert by_name.names == ["b"]
    assert by_name.min_ess == by_index.min_ess
    with pytest.raises(ContractError, match="unknown parameter"):
        min_ess_report(store, selector=["z"])
    with pytest.raises(ContractError, match="out of range"):
        min_ess_report(store, selector=[2])
    with pytest.raises(ContractError, match="empty parameter"):
        min_ess_report(store, selector=[])


def test_report_chain_length_preconditions():
    rng = np.random.default_rng(5)
    empty = SampleStore(names=["a"], draws=np.empty((0, 1)))
    with pytest.raises(ContractError, match="no draws"):
        min_ess_report(empty)
    short = SampleStore(names=["a"], draws=rng.standard_normal((30, 1)))
    with pytest.raises(ContractError, match="need at least 50 draws"):
        min_ess_report(short)
    min_ess_report(short, batches=10)  # fewer batches make it legal
    for batches in (1, 0, -5):  # the count is at fault, not a constant column
        with pytest.raises(ContractError, match="need at least 2 batches"):
            min_ess_report(short, batches=batches)


# ----------------------------------------------------------------- summarize


def test_summarize_identical_chains_zero_width():
    x = np.random.default_rng(6).standard_normal((400, 2))
    stores = [SampleStore(names=["a", "b"], draws=x.copy(), potential_evals=100)
              for _ in range(3)]
    s = summarize(min_ess_report(st) for st in stores)
    assert s.min_ess_halfwidth == 0.0
    assert s.n_chains == 3
    assert len(s.per_chain_min_ess) == 3
    assert set(s.mean_ess_by_param) == {"a", "b"}


def test_summarize_matches_manual_mean():
    rng = np.random.default_rng(7)
    stores = [SampleStore(names=["a"], draws=rng.standard_normal((500, 1)),
                        potential_evals=1000) for _ in range(4)]
    reports = [min_ess_report(st) for st in stores]
    s = summarize(reports)
    mins = np.array([r.min_ess for r in reports])
    assert s.min_ess_mean == pytest.approx(mins.mean())
    assert s.min_ess_halfwidth == pytest.approx(
        1.96 * mins.std(ddof=1) / np.sqrt(4))
    assert s.ess_per_eval_mean == pytest.approx(
        np.mean([r.ess_per_eval for r in reports]))


def test_summarize_preconditions():
    x = np.random.default_rng(8).standard_normal((300, 1))
    one = min_ess_report(SampleStore(names=["a"], draws=x))
    with pytest.raises(ContractError, match="at least 2 chains"):
        summarize([one])
    other = min_ess_report(SampleStore(names=["b"], draws=x.copy()))
    with pytest.raises(ContractError, match="disagree"):
        summarize([one, other])
    shorter = min_ess_report(SampleStore(names=["a"], draws=x[:200].copy()))
    with pytest.raises(ContractError, match="disagree"):
        summarize([one, shorter])
    fewer_batches = min_ess_report(SampleStore(names=["a"], draws=x),
                                   batches=10)
    with pytest.raises(ContractError, match="disagree"):
        summarize([one, fewer_batches])
