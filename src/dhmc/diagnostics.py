"""Effective sample size by batch means and cross-chain run summaries.

ESS here is the batch-means estimator with a fixed batch count (25 unless
asked otherwise): split the chain into equal batches, compare the variance of
batch means against the overall variance, and scale.  Cost-normalized figures
divide by the number of potential evaluations, which is the platform-neutral
way to compare samplers that pay wildly different amounts per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ContractError

__all__ = ["EssReport", "ChainSummary", "batch_means_ess", "min_ess_report",
           "summarize"]


def batch_means_ess(x, batches: int = 25) -> float:
    """Effective sample size of a scalar sequence via batch means.

    Uses n * var(x) / (b * var(batch means)) with b the batch size; the
    remainder n mod batches is dropped from the head so the most recent
    draws are kept.  Requires at least two draws per batch.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ContractError("batch_means_ess expects a 1-d sequence")
    if batches < 2:
        raise ContractError("need at least 2 batches")
    n = x.shape[0]
    if n < 2 * batches:
        raise ContractError(f"need at least {2 * batches} draws, got {n}")
    b = n // batches
    x = x[n - batches * b:]
    n_used = batches * b
    overall = x.var(ddof=1)
    if overall <= 0.0:
        raise ContractError("sequence is constant; ESS is undefined")
    means = x.reshape(batches, b).mean(axis=1)
    mean_var = means.var(ddof=1)
    if mean_var <= 0.0:
        return float("inf")
    return float(n_used * overall / (b * mean_var))


@dataclass(frozen=True)
class EssReport:
    """Per-parameter ESS of the first and second moments plus the minimum.

    ``ess_mean[i]`` and ``ess_second[i]`` belong to ``names[i]``; a NaN entry
    marks a sequence that was constant and therefore excluded from the
    minimum.  ``ess_per_eval`` is min_ess over the sampling-phase potential
    evaluations.
    """

    names: list
    ess_mean: np.ndarray
    ess_second: np.ndarray
    min_ess: float
    min_ess_name: str
    ess_per_eval: float
    batch_count: int
    n_samples: int
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "names": list(self.names),
            "ess_mean": [float(v) for v in self.ess_mean],
            "ess_second": [float(v) for v in self.ess_second],
            "min_ess": float(self.min_ess),
            "min_ess_name": self.min_ess_name,
            "ess_per_eval": float(self.ess_per_eval),
            "ess_per_100_samples": float(100.0 * self.min_ess / self.n_samples)
            if self.n_samples else float("nan"),
            "batch_count": self.batch_count,
            "n_samples": self.n_samples,
            "warnings": list(self.warnings),
        }


def _resolve_selector(names, selector):
    if selector is None:
        return list(range(len(names)))
    idx = []
    for item in selector:
        if isinstance(item, str):
            if item not in names:
                raise ContractError(f"unknown parameter {item!r}")
            idx.append(names.index(item))
        else:
            i = int(item)
            if not 0 <= i < len(names):
                raise ContractError(f"parameter index {i} out of range")
            idx.append(i)
    return idx


def min_ess_report(store, selector=None, batches: int = 25) -> EssReport:
    """ESS of each selected parameter and of its square, with the minimum.

    Embedded discrete coordinates are scored on their decoded integer values,
    so the report speaks about the distribution that matters rather than the
    embedding artifact.  Constant sequences are excluded with a warning.
    """
    if batches < 2:
        raise ContractError(f"need at least 2 batches, got {batches}")
    if store.n_samples == 0:
        raise ContractError("store holds no draws")
    if store.n_samples < 2 * batches:
        raise ContractError(
            f"need at least {2 * batches} draws for {batches} batches, "
            f"got {store.n_samples}")
    idx = _resolve_selector(store.names, selector)
    if not idx:
        raise ContractError("empty parameter selection")
    ess_mean = np.full(len(idx), np.nan)
    ess_second = np.full(len(idx), np.nan)
    names = [store.names[i] for i in idx]
    warnings = []
    min_ess = np.inf
    min_name = ""
    for pos, i in enumerate(idx):
        x = store.decoded_column(i)
        for power, out in ((1, ess_mean), (2, ess_second)):
            seq = x if power == 1 else x * x
            try:
                ess = batch_means_ess(seq, batches)
            except ContractError:  # the counts are checked: a constant seq
                warnings.append(
                    f"{store.names[i]}^{power} is constant; excluded from ESS")
                continue
            out[pos] = ess
            if ess < min_ess:
                min_ess = ess
                min_name = store.names[i] if power == 1 else f"{store.names[i]}^2"
    if not np.isfinite(min_ess):
        raise ContractError("every selected sequence was constant")
    evals = getattr(store, "potential_evals", 0)
    per_eval = min_ess / evals if evals else float("nan")
    return EssReport(names=names, ess_mean=ess_mean, ess_second=ess_second,
                     min_ess=float(min_ess), min_ess_name=min_name,
                     ess_per_eval=per_eval, batch_count=batches,
                     n_samples=store.n_samples, warnings=warnings)


@dataclass(frozen=True)
class ChainSummary:
    """Cross-chain mean of the minimum ESS with a normal-theory interval.

    The half-width is 1.96 times the standard error of the mean across
    chains, the usual "(+- ...)" attached to averaged ESS figures.
    """

    n_chains: int
    min_ess_mean: float
    min_ess_halfwidth: float
    per_chain_min_ess: list
    ess_per_eval_mean: float
    mean_ess_by_param: dict
    batch_count: int

    def to_dict(self) -> dict:
        return {
            "n_chains": self.n_chains,
            "min_ess_mean": float(self.min_ess_mean),
            "min_ess_halfwidth": float(self.min_ess_halfwidth),
            "per_chain_min_ess": [float(v) for v in self.per_chain_min_ess],
            "ess_per_eval_mean": float(self.ess_per_eval_mean),
            "mean_ess_by_param": {k: float(v)
                                  for k, v in self.mean_ess_by_param.items()},
            "batch_count": self.batch_count,
        }


def summarize(reports) -> ChainSummary:
    """Average the ``min_ess_report``s of k >= 2 chains of the same run."""
    reports = list(reports)
    if len(reports) < 2:
        raise ContractError("need at least 2 chains to summarize")
    first = reports[0]
    for r in reports[1:]:
        if (r.names != first.names or r.n_samples != first.n_samples
                or r.batch_count != first.batch_count):
            raise ContractError("chains disagree in parameters or draw counts")
    mins = np.array([r.min_ess for r in reports])
    k = len(mins)
    half = 1.96 * mins.std(ddof=1) / math.sqrt(k)
    per_evals = np.array([r.ess_per_eval for r in reports])
    by_param = {}
    for pos, name in enumerate(first.names):
        vals = np.array([r.ess_mean[pos] for r in reports])
        by_param[name] = float(np.nanmean(vals)) if np.any(np.isfinite(vals)) else float("nan")
    return ChainSummary(
        n_chains=k, min_ess_mean=float(mins.mean()),
        min_ess_halfwidth=float(half), per_chain_min_ess=list(mins),
        ess_per_eval_mean=float(np.nanmean(per_evals)) if np.any(np.isfinite(per_evals)) else float("nan"),
        mean_ess_by_param=by_param, batch_count=first.batch_count)
